"""Server power model (Eqn. 3, after Fan, Weber & Barroso) and tariffs.

Active power at CPU utilization ``x`` is

    P(x) = P(0%) + (P(100%) - P(0%)) * (2x - x^1.4)

with the paper's defaults P(0%) = 87 W (idle) and P(100%) = 145 W (peak).
Sleep power is zero; power during sleep<->active transitions exceeds
P(0%) and defaults to P(100%) here (the paper only bounds it below).

:class:`TariffModel` extends the energy account with *when* the joules
were drawn: electricity price ($/kWh) and grid carbon intensity
(gCO₂/kWh) as periodic piecewise-constant signals — flat, time-of-use
windows, or a CSV-driven intensity curve — integrated exactly over any
simulated interval. The simulation itself is tariff-blind; tariffs only
shape the cost/CO₂ series the metrics layer reports.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class PowerModel:
    """Power characteristics of one server.

    Parameters
    ----------
    idle_power:
        P(0%), watts consumed while active with zero utilization.
    peak_power:
        P(100%), watts at full CPU load.
    exponent:
        The sub-linear exponent of the utilization curve (paper: 1.4).
    t_on, t_off:
        Sleep-to-active and active-to-sleep transition times, seconds
        (paper: 30 s each).
    transition_power:
        Watts during a power-mode transition; defaults to ``peak_power``.
    sleep_power:
        Watts while asleep (paper: 0).
    """

    idle_power: float = 87.0
    peak_power: float = 145.0
    exponent: float = 1.4
    t_on: float = 30.0
    t_off: float = 30.0
    transition_power: float | None = None
    sleep_power: float = 0.0

    def __post_init__(self) -> None:
        if self.idle_power < 0 or self.peak_power < self.idle_power:
            raise ValueError(
                f"need 0 <= idle_power <= peak_power, got "
                f"{self.idle_power}, {self.peak_power}"
            )
        if self.exponent <= 1.0:
            raise ValueError(f"exponent must exceed 1, got {self.exponent}")
        if self.t_on < 0 or self.t_off < 0:
            raise ValueError("transition times must be non-negative")
        if self.sleep_power < 0:
            raise ValueError("sleep_power must be non-negative")
        if self.transition_power is None:
            object.__setattr__(self, "transition_power", self.peak_power)
        elif self.transition_power < self.idle_power:
            raise ValueError(
                "transition_power must be at least idle_power "
                f"({self.transition_power} < {self.idle_power})"
            )

    def active_power(self, utilization: float) -> float:
        """P(x) for CPU utilization ``x`` in [0, 1] (Eqn. 3).

        Utilization is clamped into [0, 1]; callers may momentarily
        over-subscribe by floating-point epsilon.
        """
        x = min(max(utilization, 0.0), 1.0)
        dynamic = 2.0 * x - x**self.exponent
        return self.idle_power + (self.peak_power - self.idle_power) * dynamic

    def energy(self, utilization: float, dt: float) -> float:
        """Joules consumed over ``dt`` seconds at constant utilization."""
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        return self.active_power(utilization) * dt


_JOULES_PER_KWH = 3.6e6

#: A window is ``(start_s, end_s, value)`` within one tariff period.
Window = tuple[float, float, float]


def _validate_windows(name: str, windows: tuple[Window, ...], period: float) -> None:
    prev_end = 0.0
    for start, end, value in windows:
        if not 0.0 <= start < end <= period:
            raise ValueError(
                f"{name} window ({start}, {end}) must satisfy "
                f"0 <= start < end <= period ({period})"
            )
        if start < prev_end:
            raise ValueError(
                f"{name} windows must be sorted and non-overlapping; "
                f"window starting at {start} overlaps the previous one"
            )
        if value < 0.0 or math.isnan(value):
            raise ValueError(f"{name} window value must be non-negative, got {value}")
        prev_end = end


def _step_at(windows: tuple[Window, ...], base: float, local_t: float) -> float:
    for start, end, value in windows:
        if start <= local_t < end:
            return value
    return base


def _step_integral(
    windows: tuple[Window, ...], base: float, period: float, t: float
) -> float:
    """Integral of the periodic step signal from time 0 to ``t`` (t >= 0)."""
    per_period = base * period + sum((e - s) * (v - base) for s, e, v in windows)
    full, rest = divmod(t, period)
    partial = base * rest
    for start, end, value in windows:
        overlap = min(rest, end) - min(rest, start)
        partial += overlap * (value - base)
    return full * per_period + partial


@dataclass(frozen=True)
class TariffModel:
    """Time-varying electricity price and grid carbon intensity.

    Both signals are periodic piecewise-constant step functions: a
    baseline value overridden inside zero or more windows per period.
    That covers the three shapes the scenario suite needs — flat
    (defaults), time-of-use price plans (:meth:`time_of_use`), and
    measured carbon-intensity curves loaded from CSV (:meth:`from_csv`)
    — while keeping interval integrals exact (no sampling error in the
    cost/CO₂ accounts).

    Parameters
    ----------
    price:
        Baseline electricity price in $/kWh.
    carbon:
        Baseline grid carbon intensity in gCO₂/kWh (the default, 400,
        is a typical mixed-fossil grid average).
    price_windows, carbon_windows:
        ``(start_s, end_s, value)`` overrides within one period; sorted
        and non-overlapping.
    period:
        Signal period in seconds (default: one day).
    t_offset:
        Shift applied to simulation time before the periodic lookup —
        ``signal(t)`` reads the curve at ``t + t_offset``. Lets a site
        read one curve in its own time zone (see :meth:`shifted`), or a
        run start at an arbitrary hour of day.
    """

    price: float = 0.10
    carbon: float = 400.0
    price_windows: tuple[Window, ...] = ()
    carbon_windows: tuple[Window, ...] = ()
    period: float = 86_400.0
    t_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.price < 0.0 or math.isnan(self.price):
            raise ValueError(f"price must be non-negative, got {self.price}")
        if self.carbon < 0.0 or math.isnan(self.carbon):
            raise ValueError(f"carbon must be non-negative, got {self.carbon}")
        # Normalize to plain sorted tuples so equality, hashing, and
        # content keys are representation-independent.
        for name in ("price_windows", "carbon_windows"):
            windows = tuple(
                (float(s), float(e), float(v)) for s, e, v in getattr(self, name)
            )
            object.__setattr__(self, name, windows)
            _validate_windows(name, windows, self.period)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def time_of_use(
        cls,
        peak_start_hour: float,
        peak_end_hour: float,
        peak_price: float,
        offpeak_price: float,
        carbon: float = 400.0,
    ) -> "TariffModel":
        """Daily time-of-use plan: ``peak_price`` inside the peak window."""
        if not 0.0 <= peak_start_hour < peak_end_hour <= 24.0:
            raise ValueError(
                f"need 0 <= peak_start_hour < peak_end_hour <= 24, got "
                f"({peak_start_hour}, {peak_end_hour})"
            )
        return cls(
            price=offpeak_price,
            carbon=carbon,
            price_windows=(
                (peak_start_hour * 3600.0, peak_end_hour * 3600.0, peak_price),
            ),
        )

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        price: float = 0.10,
        period: float = 86_400.0,
    ) -> "TariffModel":
        """Carbon-intensity (and optionally price) step curve from a CSV.

        The file needs a ``time_s,carbon_g_per_kwh`` header (an optional
        third ``price_usd_per_kwh`` column also drives the price signal);
        each row holds from its ``time_s`` until the next row's, the last
        row until the end of the period. The first row must start at 0 so
        the whole period is covered.

        Raises
        ------
        ValueError
            On a malformed header, unparseable row, or times that are
            not strictly increasing within ``[0, period)``.
        """
        path = Path(path)
        rows: list[tuple[float, float, float | None]] = []
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != [
                "time_s",
                "carbon_g_per_kwh",
            ]:
                raise ValueError(
                    f"{path}: expected header 'time_s,carbon_g_per_kwh"
                    f"[,price_usd_per_kwh]', got {header!r}"
                )
            with_price = len(header) > 2
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    t = float(row[0])
                    c = float(row[1])
                    p = float(row[2]) if with_price else None
                except (ValueError, IndexError):
                    raise ValueError(f"{path}:{lineno}: unparseable tariff row {row!r}")
                rows.append((t, c, p))
        if not rows:
            raise ValueError(f"{path}: tariff curve has no rows")
        if rows[0][0] != 0.0:
            raise ValueError(f"{path}: the first row must start at time_s = 0")
        times = [t for t, _, _ in rows]
        if any(b <= a for a, b in zip(times, times[1:])) or times[-1] >= period:
            raise ValueError(
                f"{path}: times must be strictly increasing within [0, {period})"
            )
        edges = times[1:] + [period]
        carbon_windows = tuple((t, end, c) for (t, c, _), end in zip(rows, edges))
        price_windows: tuple[Window, ...] = ()
        if rows[0][2] is not None:
            price_windows = tuple((t, end, p) for (t, _, p), end in zip(rows, edges))
        return cls(
            price=price,
            carbon=rows[0][1],
            price_windows=price_windows,
            carbon_windows=carbon_windows,
            period=period,
        )

    def shifted(self, dt: float) -> "TariffModel":
        """This tariff evaluated ``dt`` seconds later (another time zone)."""
        return replace(self, t_offset=self.t_offset + dt)

    # ------------------------------------------------------------------
    # Signal lookups and exact interval integrals
    # ------------------------------------------------------------------

    def price_at(self, t: float) -> float:
        """Electricity price ($/kWh) at simulated time ``t``."""
        return _step_at(
            self.price_windows, self.price, (t + self.t_offset) % self.period
        )

    def carbon_at(self, t: float) -> float:
        """Grid carbon intensity (gCO₂/kWh) at simulated time ``t``."""
        return _step_at(
            self.carbon_windows, self.carbon, (t + self.t_offset) % self.period
        )

    def _mean(
        self, windows: tuple[Window, ...], base: float, t0: float, t1: float
    ) -> float:
        if t1 <= t0:
            return _step_at(windows, base, (t0 + self.t_offset) % self.period)
        a, b = t0 + self.t_offset, t1 + self.t_offset
        shift = 0.0
        if a < 0.0:  # lift into non-negative time; the signal is periodic
            shift = math.ceil(-a / self.period) * self.period
        upper = _step_integral(windows, base, self.period, b + shift)
        lower = _step_integral(windows, base, self.period, a + shift)
        return (upper - lower) / (t1 - t0)

    def mean_price(self, t0: float, t1: float) -> float:
        """Exact mean price ($/kWh) over ``[t0, t1]``."""
        return self._mean(self.price_windows, self.price, t0, t1)

    def mean_carbon(self, t0: float, t1: float) -> float:
        """Exact mean carbon intensity (gCO₂/kWh) over ``[t0, t1]``."""
        return self._mean(self.carbon_windows, self.carbon, t0, t1)

    def energy_cost(self, joules: float, t0: float, t1: float) -> float:
        """Cost ($) of ``joules`` drawn at constant power over ``[t0, t1]``."""
        return joules / _JOULES_PER_KWH * self.mean_price(t0, t1)

    def energy_co2(self, joules: float, t0: float, t1: float) -> float:
        """Emissions (gCO₂) of ``joules`` drawn evenly over ``[t0, t1]``."""
        return joules / _JOULES_PER_KWH * self.mean_carbon(t0, t1)

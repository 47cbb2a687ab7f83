"""The paper's headline claims, recomputed from our measurements.

Sec. VII claims, for the 30-machine / 95 000-job case:

* the hierarchical framework saves **53.97 %** power and energy versus
  round-robin;
* it saves **16.12 %** power/energy and **16.67 %** latency versus
  DRL-only (M = 40: 59.99 %, 17.89 %, 13.32 %);
* on the trade-off frontier it saves up to **16.16 %** latency at equal
  energy and **16.20 %** energy at equal latency versus fixed timeouts.

We do not expect to match these numbers on a different substrate — the
*shape* assertions (who wins, roughly by what factor) are what
:func:`evaluate_claims` checks and ``python -m repro table1`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.table1 import Table1Row


@dataclass(frozen=True)
class ClaimReport:
    """Relative savings of the hierarchical framework for one cluster size."""

    num_servers: int
    energy_saving_vs_round_robin: float
    power_saving_vs_round_robin: float
    energy_saving_vs_drl: float
    latency_saving_vs_drl: float
    latency_cost_vs_round_robin: float

    def summary(self) -> str:
        return (
            f"M={self.num_servers}: "
            f"energy vs round-robin {self.energy_saving_vs_round_robin:+.1%}, "
            f"power vs round-robin {self.power_saving_vs_round_robin:+.1%}, "
            f"energy vs DRL-only {self.energy_saving_vs_drl:+.1%}, "
            f"latency vs DRL-only {self.latency_saving_vs_drl:+.1%}, "
            f"latency vs round-robin {self.latency_cost_vs_round_robin:+.1%}"
        )


def _row(rows: list[Table1Row], system: str, num_servers: int) -> Table1Row:
    for row in rows:
        if row.system == system and row.num_servers == num_servers:
            return row
    raise ValueError(f"no Table-I row for {system!r} with M={num_servers}")


def _saving(baseline: float, ours: float) -> float:
    """Relative reduction; positive means we are better (smaller)."""
    if baseline <= 0:
        return 0.0
    return (baseline - ours) / baseline


def evaluate_claims(rows: list[Table1Row], num_servers: int = 30) -> ClaimReport:
    """Compute the paper's Table-I-derived percentage claims from our rows.

    Raises
    ------
    ValueError
        If any of the three systems is missing for ``num_servers``.
    """
    round_robin = _row(rows, "round-robin", num_servers)
    drl = _row(rows, "drl-only", num_servers)
    hier = _row(rows, "hierarchical", num_servers)
    return ClaimReport(
        num_servers=num_servers,
        energy_saving_vs_round_robin=_saving(round_robin.energy_kwh, hier.energy_kwh),
        power_saving_vs_round_robin=_saving(round_robin.power_w, hier.power_w),
        energy_saving_vs_drl=_saving(drl.energy_kwh, hier.energy_kwh),
        latency_saving_vs_drl=_saving(drl.latency_1e6_s, hier.latency_1e6_s),
        latency_cost_vs_round_robin=_saving(
            round_robin.latency_1e6_s, hier.latency_1e6_s
        ),
    )

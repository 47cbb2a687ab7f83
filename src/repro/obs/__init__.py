"""``repro.obs`` — run-telemetry and logging for the simulator stack.

The observability layer the scaling work measures itself with:

* :mod:`repro.obs.telemetry` — near-zero-overhead-when-disabled spans /
  counters / gauges, aggregated per run and mergeable across sweep
  cells. Every span is timed by one :class:`Phase`: hot loops read
  :func:`active` once per run and keep a phase per loop step; everything
  else may call :func:`get` unconditionally for ``get().span(name)``
  (disabled returns the :data:`NULL` no-op singleton).
* :mod:`repro.obs.report` — the sorted self-time breakdown behind
  ``repro obs report`` (counters with their per-second rates) plus the
  ``telemetry.json`` (de)serialization.
* :mod:`repro.obs.logsetup` — the package's stdlib-logging handler and
  the ``--log-level`` / ``-v`` resolution the CLI uses.
* :mod:`repro.obs.kernel` — the BLAS kernel numpy's products run on,
  which ``--version`` prints.

Profiling a run end to end::

    from repro import obs

    with obs.capture() as tel:
        result = engine.run(streams)
    print(obs.render_report(tel.snapshot()))
"""

from repro.obs.logsetup import configure_logging, resolve_level
from repro.obs.report import (
    load_snapshot,
    phase_coverage,
    render_report,
    span_rows,
    write_snapshot,
)
from repro.obs.telemetry import (
    NULL,
    TELEMETRY_SCHEMA,
    GaugeStat,
    NullTelemetry,
    Phase,
    SpanStat,
    Telemetry,
    active,
    capture,
    get,
    merge_snapshots,
)

__all__ = [
    "NULL",
    "TELEMETRY_SCHEMA",
    "GaugeStat",
    "NullTelemetry",
    "Phase",
    "SpanStat",
    "Telemetry",
    "active",
    "capture",
    "configure_logging",
    "get",
    "load_snapshot",
    "merge_snapshots",
    "phase_coverage",
    "render_report",
    "resolve_level",
    "span_rows",
    "write_snapshot",
]

"""``repro.obs`` — run-telemetry and logging for the simulator stack.

The observability layer the scaling work measures itself with:

* :mod:`repro.obs.telemetry` — near-zero-overhead-when-disabled spans /
  counters / gauges / rolling rates, aggregated per run and mergeable
  across sweep cells. Hot loops read :func:`active` once per run and
  time their phases with :class:`Phase` / :class:`MarkSink`; everything
  else may call :func:`get` unconditionally (disabled returns the
  :data:`NULL` no-op singleton).
* :mod:`repro.obs.report` — the sorted self-time breakdown behind
  ``repro obs report`` plus the ``telemetry.json`` (de)serialization.
* :mod:`repro.obs.logsetup` — the package's stdlib-logging handler and
  the ``--log-level`` / ``-v`` resolution the CLI uses.

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
    DEFAULT_RATE_WINDOW_S,
    TELEMETRY_SCHEMA,
    GaugeStat,
    MarkSink,
    NullTelemetry,
    Phase,
    SpanStat,
    Telemetry,
    active,
    capture,
    disable,
    enable,
    enabled,
    get,
    merge_snapshots,
)

__all__ = [
    "DEFAULT_RATE_WINDOW_S",
    "NULL",
    "TELEMETRY_SCHEMA",
    "GaugeStat",
    "MarkSink",
    "NullTelemetry",
    "Phase",
    "SpanStat",
    "Telemetry",
    "active",
    "capture",
    "configure_logging",
    "disable",
    "enable",
    "enabled",
    "get",
    "load_snapshot",
    "merge_snapshots",
    "phase_coverage",
    "render_report",
    "resolve_level",
    "span_rows",
    "write_snapshot",
]

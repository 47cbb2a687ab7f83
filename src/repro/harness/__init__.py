"""Experiment harness: regenerates every table and figure of Sec. VII.

* :mod:`repro.harness.runner` — named-system construction
  (:func:`make_system`, the one constructor of every named system), the
  paper's offline-then-online training protocol, and single-run
  execution (:func:`run_system`). The protocol is one frozen
  :class:`Protocol`, passed whole to every cell and trainer:
  :data:`PAPER_PROTOCOL` (two online and two local-tier epochs) serves
  Table I and Figs. 8-10, :data:`SWEEP_PROTOCOL` (one of each) serves
  scenario cells and sweeps. Its :class:`SitePolicy` is the one handoff
  from training to evaluation: every DRL system an experiment compares
  is built from one. :class:`RunResult` is the one run summary:
  :meth:`RunResult.from_run` builds it for :func:`run_system` and for a
  scenario cell's fleet and each of its sites.
* :mod:`repro.harness.table1` — the experiment behind Table I (energy /
  accumulated latency / average power at a fixed job count, M = 30 and
  40) and Figs. 8 and 9 (accumulated latency and energy versus the
  number of jobs), which read their series from Table I's runs.
* :mod:`repro.harness.tradeoff` — Fig. 10 (average latency vs. average
  energy per job: hierarchical w-sweep against fixed-timeout baselines).
* :mod:`repro.harness.claims` — the paper's headline percentage claims,
  recomputed from our measurements.
* :mod:`repro.harness.report` — plain-text table/CSV rendering.
"""

from repro.harness.claims import ClaimReport, evaluate_claims
from repro.harness.report import format_table
from repro.harness.runner import (
    PAPER_PROTOCOL,
    Protocol,
    RunResult,
    SitePolicy,
    SWEEP_PROTOCOL,
    make_system,
    needs_global_tier,
    run_system,
    standard_protocol,
    SYSTEM_DESCRIPTIONS,
    SYSTEM_NAMES,
    train_global_prototype,
    train_site_policy,
    untrained_broker,
)
from repro.harness.table1 import (
    Table1Row,
    render_series_csv,
    render_table1,
    run_table1,
    table1_rows,
)
from repro.harness.tradeoff import TradeoffPoint, render_tradeoff_csv, run_tradeoff

__all__ = [
    "ClaimReport",
    "evaluate_claims",
    "format_table",
    "PAPER_PROTOCOL",
    "Protocol",
    "RunResult",
    "SitePolicy",
    "make_system",
    "needs_global_tier",
    "run_system",
    "standard_protocol",
    "SWEEP_PROTOCOL",
    "SYSTEM_DESCRIPTIONS",
    "SYSTEM_NAMES",
    "train_global_prototype",
    "train_site_policy",
    "untrained_broker",
    "Table1Row",
    "render_series_csv",
    "render_table1",
    "run_table1",
    "table1_rows",
    "TradeoffPoint",
    "render_tradeoff_csv",
    "run_tradeoff",
]

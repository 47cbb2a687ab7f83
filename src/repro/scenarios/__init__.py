"""Scenario suite and parallel experiment orchestration.

The paper evaluates one workload on one homogeneous cluster; this
package turns the reproduction into a *scenario machine*:

* :mod:`repro.scenarios.specs` — declarative, JSON-serializable
  descriptions of a full experiment: workload recipe
  (:class:`WorkloadSpec`), fleet composition (:class:`FleetSpec`), and
  scheduled capacity churn (:class:`CapacityWindowSpec`), bundled into a
  :class:`ScenarioSpec`.
* :mod:`repro.scenarios.registry` — named scenario lookup; import-safe
  registration of user scenarios alongside the builtins.
* :mod:`repro.scenarios.builtin` — the fourteen stock scenarios, from
  ``paper-default`` to Google-trace replay (``google-replay``),
  electricity-aware runs (``carbon-aware-diurnal``, ``tou-price-shift``),
  a coincident-peak tenant fleet (``correlated-fleet``), a faulted
  cluster (``failure-storm``), and three multi-site federations
  (``federated-correlated``, ``follow-the-sun``, and the faulted
  ``degraded-federation``).
* :mod:`repro.scenarios.store` — content-keyed JSON result cache under
  ``.repro-cache/`` so repeated sweeps return instantly.
* :mod:`repro.scenarios.orchestrator` — fans a (scenario × system ×
  seed) grid out over ``multiprocessing`` and aggregates the results
  into :mod:`repro.harness.report` tables/CSVs.
* :mod:`repro.scenarios.checkpoints` — content-keyed policy weight
  blobs (train-once / evaluate-many): DRL cells sharing a training key
  warm-start from one stored snapshot — one
  :class:`~repro.harness.runner.SitePolicy` per site (Q-network + LSTM
  weights), plus one for the DRL federation dispatcher when the
  scenario uses it.
* :mod:`repro.scenarios.federation` — every cell's construction: a
  plain scenario is a federation of one implicit site
  (``ScenarioSpec.site_specs``), so one path builds per-site systems,
  the federation-tier dispatcher, and the fleet simulation on one event
  clock.
"""

from repro.scenarios.checkpoints import (
    CheckpointStore,
    PolicyCheckpoint,
    SitePolicy,
    ensure_checkpoint,
    needs_policy,
    train_policy,
    training_request,
)
from repro.scenarios.federation import build_cell
from repro.scenarios.orchestrator import (
    SweepCell,
    SweepReport,
    aggregate_rows,
    aggregate_series_rows,
    detected_cpus,
    render_sweep_csv,
    render_sweep_series_csv,
    render_sweep_table,
    run_cell,
    sweep,
)
from repro.scenarios.registry import get, names, register, scenario_catalog
from repro.scenarios.specs import (
    FEDERATION_POLICIES,
    CapacityWindowSpec,
    FlashCrowdSpec,
    FleetSpec,
    JobClassSpec,
    ScenarioSpec,
    ServerClassSpec,
    SiteSpec,
    TraceReplaySpec,
    WorkloadSpec,
)
from repro.scenarios.store import ResultStore

__all__ = [
    "SweepCell",
    "SweepReport",
    "aggregate_rows",
    "aggregate_series_rows",
    "detected_cpus",
    "render_sweep_csv",
    "render_sweep_series_csv",
    "render_sweep_table",
    "run_cell",
    "sweep",
    "get",
    "names",
    "register",
    "scenario_catalog",
    "CapacityWindowSpec",
    "CheckpointStore",
    "FEDERATION_POLICIES",
    "FleetSpec",
    "FlashCrowdSpec",
    "JobClassSpec",
    "PolicyCheckpoint",
    "SitePolicy",
    "ScenarioSpec",
    "ServerClassSpec",
    "SiteSpec",
    "TraceReplaySpec",
    "WorkloadSpec",
    "ResultStore",
    "ensure_checkpoint",
    "needs_policy",
    "build_cell",
    "train_policy",
    "training_request",
]

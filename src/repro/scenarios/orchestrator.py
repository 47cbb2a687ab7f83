"""Parallel (scenario × system × seed) experiment orchestration.

One sweep cell = one scenario, one named system, one seed: the cell
builds its own traces and simulates its own cluster, so cells are fully
independent. That independence buys three things at once:

* **Parallelism** — one scheduler fans trainings and cells out over
  :func:`_pool`, which at one worker is this process and otherwise a
  process pool at the machine's core count. Every task receives a
  pickled copy of its arguments either way, and every random stream
  inside a cell derives from the cell's own
  :class:`~numpy.random.SeedSequence`, so results are bit-identical at
  any worker count.
* **Caching** — each cell is content-keyed by its full request (the
  scenario's parameters, system, seed, trace length and every
  :class:`~repro.harness.runner.Protocol` field) and stored as
  JSON under ``.repro-cache/``, so re-running a sweep recomputes only
  cells whose parameters actually changed.
* **Resumability** — results are journaled to the store *as cells
  complete* (not at the end), so a crashed or killed sweep re-run picks
  up exactly where it stopped: journaled cells come back as cache hits
  and only the missing ones recompute (``scenario sweep --resume``).

Training is factored out of the cells (train-once / evaluate-many):
DRL cells are grouped by their *training key* — the training-relevant
subset of the request, see :mod:`repro.scenarios.checkpoints` — each
group's policy is trained once in the pool (or loaded from a checkpoint
blob), and every cell in the group warm-starts from those weights. This
is the protocol of :mod:`repro.harness.table1` (one trained
:class:`~repro.harness.runner.SitePolicy` shared across a cluster's DRL
systems), now cacheable across sweeps.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

from repro.faults.plan import scenario_fault_plans
from repro.harness.report import format_csv, format_table
from repro.harness.runner import SWEEP_PROTOCOL, Protocol, RunResult, check_system
from repro.obs import render_report, write_snapshot
from repro.obs import telemetry as obs
from repro.scenarios import checkpoints as ckpt
from repro.scenarios import registry
from repro.scenarios.federation import build_cell, build_federation_engine
from repro.scenarios.specs import ScenarioSpec
from repro.scenarios.store import (
    SCHEMA_VERSION,
    ResultStore,
    append_quarantine,
    content_key,
)

logger = logging.getLogger(__name__)

#: Default systems a sweep compares (Table I's comparison set).
DEFAULT_SWEEP_SYSTEMS = ("round-robin", "drl-only", "hierarchical")

#: Optional sink for live progress lines (one short string per event).
ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class SweepCell:
    """One point of the experiment grid."""

    spec: ScenarioSpec
    system: str
    seed: int


def cell_request(
    cell: SweepCell,
    n_jobs: int,
    protocol: Protocol,
    warm_start: bool = False,
    profile: bool = False,
) -> dict:
    """The content-keyed request payload identifying one cell's result.

    Its ``"protocol"`` part holds the trace length and every
    :class:`~repro.harness.runner.Protocol` field under the field's
    name. Two flags join it only when set: ``"profile"`` (profiled
    results carry a telemetry payload, so they get cache slots of their
    own), and ``"warm_start"`` on warm-started policy-bearing cells
    (DRL cluster systems, and any system on a federated scenario with
    the DRL dispatcher). Those follow the shared-policy training
    protocol, a different experiment than train-per-cell, so the two
    must never share cache slots. Policy-free cells keep identical keys
    under both modes.
    """
    payload = {"schema": SCHEMA_VERSION, "n_jobs": n_jobs, **asdict(protocol)}
    if profile:
        payload["profile"] = True
    if warm_start and ckpt.needs_policy(cell.spec, cell.system):
        payload["warm_start"] = True
    return {
        "scenario": cell.spec.content_dict(),
        "system": cell.system,
        "seed": cell.seed,
        "protocol": payload,
    }


def _run_payload(run: RunResult) -> dict:
    """The keys a cell and each of its site entries store a summary under.

    The one serializer of :class:`~repro.harness.runner.RunResult`;
    :func:`run_cell` adds the fleet's and each site's own keys around
    it. The Fig-8-style series (accumulated latency / energy / cost /
    CO₂ vs completed jobs) are lists, not tuples, so computed and
    JSON-reloaded results compare equal.
    """
    return {
        "n_jobs_completed": run.n_jobs,
        "num_servers": run.num_servers,
        "energy_kwh": run.energy_kwh,
        "acc_latency_s": run.acc_latency,
        "mean_latency_s": run.mean_latency,
        "average_power_w": run.average_power,
        "cost_usd": run.cost_usd,
        "co2_kg": run.co2_kg,
        "failed_jobs": run.failed_jobs,
        "retries": run.retries,
        "goodput": run.goodput,
        "availability": run.availability,
        **{
            name: [[int(n), float(v)] for n, v in getattr(run, name)]
            for name in ("latency_series", "energy_series", "cost_series", "co2_series")
        },
    }


def run_cell(
    scenario: str | ScenarioSpec,
    system: str,
    n_jobs: int = 600,
    seed: int = 0,
    protocol: Protocol = SWEEP_PROTOCOL,
    checkpoint: "ckpt.PolicyCheckpoint | None" = None,
    profile: bool = False,
) -> dict:
    """Run one (scenario, system, seed) cell and return JSON-able metrics.

    Deterministic given its arguments: the cell's
    :class:`~numpy.random.SeedSequence` spawns independent children for
    trace generation and system construction, so no stream is shared
    with any other cell (or any other system at the same seed).

    Every cell is a federation — a plain scenario is one implicit site —
    built by :func:`repro.scenarios.federation.build_cell` and simulated
    on one event clock. A cold cell's DRL controllers train under
    ``protocol``; with a ``checkpoint`` they are warm-started from the
    stored weights instead (train-once / evaluate-many). Federated
    scenarios (a non-empty ``sites`` tuple) additionally report
    ``"federation"`` (the dispatch policy) and ``"sites"`` (per-site
    totals and series).

    With ``profile=True`` the whole cell (training, trace parsing, and
    the evaluation run) executes under a captured
    :class:`~repro.obs.telemetry.Telemetry`, and the result carries its
    snapshot under ``"telemetry"``. Telemetry never touches simulation
    state, so all other result fields are bit-identical either way.
    """
    if profile:
        with obs.capture() as tel:
            result = run_cell(
                scenario,
                system,
                n_jobs=n_jobs,
                seed=seed,
                protocol=protocol,
                checkpoint=checkpoint,
            )
        result["telemetry"] = tel.snapshot()
        return result
    spec = registry.get(scenario) if isinstance(scenario, str) else scenario
    systems, broker, eval_streams = build_cell(
        system, spec, n_jobs, protocol, seed=seed, checkpoint=checkpoint
    )
    events = spec.capacity_events(spec.horizon_for(n_jobs))
    engine = build_federation_engine(
        spec,
        systems,
        broker,
        protocol.record_every,
        faults=scenario_fault_plans(spec, n_jobs, seed),
        capacity_events=events,
    )
    result = engine.run([[job.copy() for job in stream] for stream in eval_streams])
    fleet = RunResult.from_run(system, result, engine.faults)
    cell = {
        "scenario": spec.name,
        "system": fleet.name,
        "seed": seed,
        "n_jobs_offered": sum(len(stream) for stream in eval_streams),
        **_run_payload(fleet),
        "energy_per_job_wh": fleet.energy_per_job_wh,
        "final_time_s": fleet.final_time,
        "capacity_events": len(events),
        "broker_fallbacks": fleet.broker_fallbacks,
    }
    if spec.is_federated:
        cell["federation"] = spec.federation
        cell["sites"] = [
            {
                "site": site.name,
                "n_jobs_home": len(stream),
                **_run_payload(RunResult.from_run(system, result, engine.faults, i)),
            }
            for i, (site, stream) in enumerate(zip(result.sites, eval_streams))
        ]
    return cell


def journal_cell_result(
    store: ResultStore,
    cell: SweepCell,
    result: dict,
    n_jobs: int,
    protocol: Protocol,
    warm_start: bool = False,
    profile: bool = False,
):
    """Journal one computed cell under the key a sweep would use.

    The single entry point for out-of-sweep journaling (``scenario
    run``): it builds the request with the :func:`cell_request` the
    sweep keys with, so a cell run and journaled under the sweep's
    ``protocol`` is a cache hit for the sweep covering the same point.
    Returns the record's path.
    """
    request = cell_request(cell, n_jobs, protocol, warm_start, profile)
    return store.put(content_key(request), request, result)


class CellTimeout(RuntimeError):
    """A sweep cell overran its ``cell_timeout`` budget."""


#: Env hook for chaos tests and CI: a comma-separated list of
#: ``scenario:system:seed`` triples that poison-fail in the worker.
CHAOS_POISON_ENV = "REPRO_CHAOS_POISON"


def _poisoned(scenario: str, system: str, seed: int) -> bool:
    poison = os.environ.get(CHAOS_POISON_ENV)
    if not poison:
        return False
    tokens = {token.strip() for token in poison.split(",") if token.strip()}
    return f"{scenario}:{system}:{seed}" in tokens


def _execute_cell(args: tuple) -> dict:
    """Pool entry point for one cell (must be module-level picklable).

    ``args`` is ``(cell, n_jobs, protocol, profile, checkpoint,
    timeout)``. The timeout is the cell's wall-clock budget in seconds
    (or ``None``), enforced in the worker via ``SIGALRM`` (skipped
    silently on platforms without it) so a wedged cell fails like any
    other cell error — retried, then quarantined — instead of hanging
    the sweep.
    """
    cell, n_jobs, protocol, profile, checkpoint, timeout = args
    name, system, seed = cell.spec.name, cell.system, cell.seed
    if _poisoned(name, system, seed):
        raise RuntimeError(
            f"poison cell {name}:{system}:{seed} ({CHAOS_POISON_ENV})"
        )

    def execute() -> dict:
        return run_cell(
            cell.spec,
            system,
            n_jobs=n_jobs,
            seed=seed,
            protocol=protocol,
            checkpoint=checkpoint,
            profile=profile,
        )

    if not timeout or not hasattr(signal, "SIGALRM"):
        return execute()

    def on_alarm(signum, frame):
        raise CellTimeout(
            f"cell {name} × {system} seed {seed} exceeded {timeout}s"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    try:
        return execute()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _train_policy_task(args: tuple):
    """Pool entry point for one training group's policy.

    ``args`` is :func:`~repro.scenarios.checkpoints.train_policy`'s
    ``(spec, n_jobs, seed, protocol, with_predictor)``.
    """
    return ckpt.train_policy(*args)


@dataclass
class SweepReport:
    """Everything a sweep produced: per-cell results plus provenance.

    ``results`` holds ``None`` at quarantined cells' grid positions
    (``cached``/``keys`` stay index-aligned); ``quarantined`` carries
    their structured failure records — the same dicts journaled to
    ``quarantine.jsonl`` in the store. ``workers_used`` is the size of
    the pool that ran the trainings and cells (0 when every cell was
    cached).
    """

    results: list[dict]
    cached: list[bool]
    keys: list[str]
    quarantined: list[dict] = field(default_factory=list)
    workers_used: int = 0

    @property
    def n_cached(self) -> int:
        return sum(self.cached)

    @property
    def n_computed(self) -> int:
        return len(self.cached) - self.n_cached

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    def rows(self) -> list[dict]:
        return aggregate_rows([r for r in self.results if r is not None])

    def render_table(self) -> str:
        return render_sweep_table(self.rows())

    def render_csv(self) -> str:
        return render_sweep_csv(self.rows())

    def series_rows(self) -> list[dict]:
        return aggregate_series_rows(
            [r for r in self.results if r is not None]
        )

    def render_series_csv(self) -> str:
        return render_sweep_series_csv(self.series_rows())

    def telemetry(self) -> dict | None:
        """Sweep-level roll-up of the cells' telemetry snapshots.

        ``None`` unless at least one cell result carries a
        ``"telemetry"`` payload (i.e. the sweep ran with profiling).
        """
        merged = obs.merge_snapshots(
            r.get("telemetry") for r in self.results if r is not None
        )
        return merged if merged["n_runs"] else None

    def render_telemetry(self, top: int | None = None) -> str | None:
        merged = self.telemetry()
        return render_report(merged, top=top) if merged is not None else None


#: Documented floor on the pool size: never less than one worker, even
#: when CPU detection fails or reports zero (containers, exotic kernels).
MIN_WORKERS = 1


def detected_cpus() -> int:
    """CPUs usable by *this process*, floored at :data:`MIN_WORKERS`.

    Prefers :func:`os.process_cpu_count` (Python 3.13+, affinity-aware),
    then the scheduler affinity mask, then :func:`os.cpu_count`. This is
    the default worker count for sweeps; benches print it so "parallel
    speedup on N cores" lines are honest about N.
    """
    getter = getattr(os, "process_cpu_count", None)
    count = getter() if getter is not None else None
    if count is None and hasattr(os, "sched_getaffinity"):
        try:
            count = len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - platform quirk
            count = None
    if count is None:
        count = os.cpu_count()
    return max(MIN_WORKERS, count or MIN_WORKERS)


def check_execution(
    workers: int | None, cell_retries: int, cell_timeout: float | None
) -> None:
    """Raise ValueError on an out-of-range execution knob.

    The one rule :func:`sweep` and the CLI apply before any work
    starts: at least :data:`MIN_WORKERS` workers (``None`` =
    :func:`detected_cpus`), no negative retry budget, and a timeout
    that is ``None`` or positive.
    """
    if workers is not None and workers < MIN_WORKERS:
        raise ValueError(f"workers must be at least {MIN_WORKERS}, got {workers}")
    if cell_retries < 0:
        raise ValueError(f"cell_retries must be 0 or more, got {cell_retries}")
    if cell_timeout is not None and not cell_timeout > 0:
        raise ValueError(f"cell_timeout must be positive seconds, got {cell_timeout}")


def check_cells(
    scenarios: Sequence[object] | None,
    systems: Sequence[str],
    seeds: Sequence[int],
    n_jobs: int,
) -> None:
    """Raise ValueError unless the grid has a cell and every cell can run.

    The cell-side twin of :func:`check_execution`, applied at the same
    point by :func:`sweep` and the CLI: every system name must pass
    :func:`~repro.harness.runner.check_system`, ``n_jobs`` must be at
    least 1, there must be at least one scenario (``None`` stands for
    every registered one), one system and one seed, and every seed must
    be a non-negative ``int``.
    """
    for system in systems:
        check_system(system)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    if (scenarios is not None and len(scenarios) == 0) or len(systems) == 0:
        raise ValueError("sweep needs at least one scenario and one system")
    if len(seeds) == 0:
        raise ValueError("sweep needs at least one seed")
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seeds must be non-negative integers, got {seed!r}")


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: exit once the parent process is gone.

    A SIGKILLed sweep never shuts its pool down; without this watch its
    workers would be re-parented and wait for work forever.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


class _InProcessExecutor(Executor):
    """A pool of one worker: this process.

    ``submit`` runs the task at once on a pickled copy of its arguments
    — what a pool worker would receive — and returns the finished
    future, so a task never shares state with the caller or another
    task. A failing task's exception lands in the future, as from a
    pool; ``KeyboardInterrupt`` and ``SystemExit`` propagate at once.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            args, kwargs = pickle.loads(pickle.dumps((args, kwargs)))
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _pool(n_workers: int) -> Executor:
    """The executor every sweep schedules on.

    One worker is this process (:class:`_InProcessExecutor`). More are
    a process pool whose workers fork where available and exit when
    this process dies.
    """
    if n_workers == 1:
        return _InProcessExecutor()
    methods = multiprocessing.get_all_start_methods()
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=multiprocessing.get_context("fork" if "fork" in methods else None),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


def sweep(
    scenarios: Sequence[str | ScenarioSpec] | None = None,
    systems: Sequence[str] = DEFAULT_SWEEP_SYSTEMS,
    seeds: Iterable[int] = (0,),
    n_jobs: int = 600,
    workers: int | None = None,
    store: ResultStore | None = None,
    use_cache: bool = True,
    force: bool = False,
    protocol: Protocol = SWEEP_PROTOCOL,
    warm_start: bool = True,
    checkpoints: "ckpt.CheckpointStore | None" = None,
    progress: ProgressFn | None = None,
    profile: bool = False,
    cell_retries: int = 1,
    cell_timeout: float | None = None,
    on_error: str = "quarantine",
) -> SweepReport:
    """Run the (scenario × system × seed) grid, in parallel, with caching.

    Parameters
    ----------
    scenarios:
        Names or specs; defaults to every registered scenario.
    systems:
        Named systems per :data:`repro.harness.runner.SYSTEM_NAMES`, or
        ``drl+fixed-T``. An unknown name, like ``n_jobs < 1``, an
        empty grid, a seed that is not a non-negative integer or an
        out-of-range execution knob, raises ValueError before any work
        (:func:`check_cells`, :func:`check_execution`).
    seeds:
        One full grid per seed (results aggregate over seeds).
    workers:
        Pool size (at least 1); default = CPU count. One worker runs
        each task in this process, one at a time; results are the same
        at every worker count.
    store:
        The result cache; defaults to ``.repro-cache/`` in the working
        directory. Completed cells are journaled to it immediately, so
        a killed sweep resumes from the last finished cell.
    use_cache:
        Disable to neither read nor write the store (training still
        happens once per group — the weights just travel in memory).
    force:
        Recompute every cell (and retrain every policy), overwriting
        cached records and checkpoint blobs.
    protocol:
        How every cell trains and samples its series; every field is
        part of each cell's content key.
    warm_start:
        Train-once / evaluate-many (the default): group DRL cells by
        training key, train each group's policy once, warm-start every
        cell from it. ``False`` restores per-cell training.
    checkpoints:
        The policy-blob store; defaults to ``<store.root>/checkpoints``
        when caching is enabled. Pass explicitly to persist blobs while
        recomputing results (benchmarks do this).
    progress:
        Callable receiving one live status line per event (cells done /
        cached / total); e.g. ``lambda line: print(line, file=sys.stderr)``.
        ``None`` routes the lines through this module's logger at INFO.
    profile:
        Run every computed cell under telemetry capture: results carry
        per-run snapshots, the report rolls them up
        (:meth:`SweepReport.telemetry`), and — when caching is on — the
        roll-up is written to ``<store.root>/telemetry.json``. Profiled
        cells occupy separate cache slots from unprofiled ones.
    cell_retries:
        Extra attempts per failing cell (and per failing training)
        before giving up on it, with exponential backoff between
        attempts. 0 disables retries; negative budgets are rejected.
    cell_timeout:
        Per-cell wall-clock budget in seconds (positive), enforced in
        the worker via ``SIGALRM`` (no-op on platforms without it). A
        cell that overruns fails with :class:`CellTimeout` and is
        retried / quarantined like any other cell error. Trainings are exempt —
        they are legitimately long and shared by many cells. ``None``
        (the default) disables the budget. Execution knob only: it is
        *not* part of the cell's content key.
    on_error:
        ``"quarantine"`` (the default) records a failing cell in the
        store's ``quarantine.jsonl`` journal and the report's
        ``quarantined`` list, then keeps sweeping — its grid slot stays
        ``None``. ``"raise"`` restores fail-fast: the first exhausted
        cell re-raises (retries still apply first).

    Results come back in grid order (scenario-major, then system, then
    seed) regardless of which worker finished first. Quarantined cells
    leave ``None`` at their grid position; aggregation skips them.

    Scheduling: trainings go first and each group's cells are queued the
    moment its policy lands. At most ``workers`` tasks are in flight, so
    one worker runs a task, journals or quarantines it, and only then
    starts the next. A failing task retries ``cell_retries`` times before
    it is quarantined (a training takes its waiting cells with it) or
    re-raised. A broken process pool is respawned (at most
    ``_MAX_POOL_RESPAWNS`` times) and the tasks it interrupted rerun
    without being charged an attempt.
    """
    seeds = tuple(seeds)
    check_execution(workers, cell_retries, cell_timeout)
    check_cells(scenarios, systems, seeds, n_jobs)
    if on_error not in ("quarantine", "raise"):
        raise ValueError(
            f"on_error must be 'quarantine' or 'raise', got {on_error!r}"
        )
    if scenarios is None:
        specs = list(registry.all_scenarios())
    else:
        specs = [
            registry.get(s) if isinstance(s, str) else s for s in scenarios
        ]
    store = store if store is not None else ResultStore()
    ckpt_store = checkpoints
    if ckpt_store is None and use_cache and warm_start:
        ckpt_store = ckpt.CheckpointStore(store.root / "checkpoints")

    def emit(line: str) -> None:
        if progress is not None:
            progress(line)
        else:
            logger.info("%s", line.lstrip("# "))

    cells = [
        SweepCell(spec, system, seed)
        for spec in specs
        for system in systems
        for seed in seeds
    ]
    requests = [
        cell_request(cell, n_jobs, protocol, warm_start, profile) for cell in cells
    ]
    keys = [content_key(request) for request in requests]

    results: list[dict | None] = [None] * len(cells)
    cached = [False] * len(cells)
    quarantined: list[dict] = []
    pending: list[int] = []
    for i, key in enumerate(keys):
        record = store.get(key) if use_cache and not force else None
        if record is not None:
            # The key excludes the scenario's cosmetic name, so refresh
            # the labeling fields in case the scenario was renamed.
            results[i] = {**record["result"], "scenario": cells[i].spec.name}
            cached[i] = True
        else:
            pending.append(i)

    total = len(cells)
    emit(
        f"# sweep: {total} cells, {total - len(pending)} journaled, "
        f"{len(pending)} to compute"
    )

    n_workers = 0
    if pending:
        # --- group DRL cells by training key (train-once / evaluate-many)
        group_keys: dict[int, str] = {}
        groups: dict[str, list[int]] = {}
        if warm_start:
            for i in pending:
                if not ckpt.needs_policy(cells[i].spec, cells[i].system):
                    continue
                tkey = content_key(
                    ckpt.training_request(
                        cells[i].spec, n_jobs, cells[i].seed, protocol
                    )
                )
                group_keys[i] = tkey
                groups.setdefault(tkey, []).append(i)

        policies: dict = {}
        to_train: list[tuple[str, int, bool]] = []
        for tkey, members in groups.items():
            need_predictor = any(
                cells[i].system == "hierarchical" for i in members
            )
            blob = (
                ckpt.load_checkpoint(
                    ckpt_store,
                    tkey,
                    cells[members[0]].spec,
                    need_predictor=need_predictor,
                )
                if ckpt_store is not None and not force
                else None
            )
            if blob is not None:
                policies[tkey] = blob
            else:
                to_train.append((tkey, members[0], need_predictor))
        if groups:
            emit(
                f"# policies: {len(groups)} training groups for "
                f"{len(group_keys)} DRL cells ({len(policies)} checkpointed, "
                f"{len(to_train)} to train)"
            )

        # --- schedule: tasks are ("train", index into to_train) or
        # ("evaluate", grid index). Trainings go first, then every cell
        # whose policy is at hand; a training group's cells wait for it.
        ready = deque(("train", j) for j in range(len(to_train)))
        waiting: dict[str, list[int]] = {}
        for i in pending:
            tkey = group_keys.get(i)
            if tkey is not None and tkey not in policies:
                waiting.setdefault(tkey, []).append(i)
            else:
                ready.append(("evaluate", i))
        n_done, n_trained = total - len(pending), 0

        def task(kind: str, n: int) -> tuple:
            if kind == "train":
                _, i, with_predictor = to_train[n]
                cell = cells[i]
                args = (cell.spec, n_jobs, cell.seed, protocol, with_predictor)
                return _train_policy_task, args
            policy = policies.get(group_keys.get(n))
            args = (cells[n], n_jobs, protocol, profile, policy, cell_timeout)
            return _execute_cell, args

        def deliver(kind: str, n: int, value) -> None:
            nonlocal n_done, n_trained
            if kind == "train":
                tkey, i, _ = to_train[n]
                policies[tkey] = value
                if ckpt_store is not None:
                    ckpt.store_checkpoint(ckpt_store, tkey, value)
                n_trained += 1
                emit(
                    f"# trained [{n_trained}/{len(to_train)}] "
                    f"{cells[i].spec.name} seed {cells[i].seed}"
                )
                ready.extend(("evaluate", k) for k in waiting.pop(tkey, ()))
                return
            results[n] = value
            if use_cache:
                store.put(keys[n], requests[n], value)
            n_done += 1
            emit(
                f"# [{n_done}/{total}] {cells[n].spec.name} × "
                f"{cells[n].system} seed {cells[n].seed}: computed"
            )

        def quarantine(kind: str, n: int, exc: BaseException, tries: int) -> None:
            nonlocal n_done
            i = to_train[n][1] if kind == "train" else n
            cell = cells[i]
            error = f"{type(exc).__name__}: {exc}"
            record = {
                "key": keys[i],
                "scenario": cell.spec.name,
                "system": cell.system,
                "seed": cell.seed,
                "stage": kind,
                "error": error,
                "attempts": tries,
            }
            quarantined.append(record)
            if use_cache:
                append_quarantine(store.root, record)
            if kind == "train":
                emit(
                    f"# training {cell.spec.name} seed {cell.seed}: "
                    f"QUARANTINED ({error})"
                )
                lost = RuntimeError("training for this cell's group failed")
                for k in waiting.pop(to_train[n][0], ()):
                    quarantine("evaluate", k, lost, 0)
                return
            n_done += 1
            emit(
                f"# [{n_done}/{total}] {cell.spec.name} × {cell.system} "
                f"seed {cell.seed}: QUARANTINED ({error})"
            )

        limit = workers if workers is not None else detected_cpus()
        n_workers = max(MIN_WORKERS, min(limit, len(pending) + len(to_train)))
        attempts: dict[tuple[str, int], int] = {}
        failure: BaseException | None = None
        respawns = 0
        while ready and failure is None:
            broke = False
            with _pool(n_workers) as pool:
                running: dict[Future, tuple[str, int]] = {}
                while True:
                    while (
                        ready
                        and len(running) < n_workers
                        and failure is None
                        and not broke
                    ):
                        item = ready.popleft()
                        fn, args = task(*item)
                        try:
                            running[pool.submit(fn, args)] = item
                        except BrokenProcessPool:
                            broke = True
                            ready.appendleft(item)
                    if not running:
                        break
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in finished:
                        item = running.pop(future)
                        try:
                            value = future.result()
                        except BrokenProcessPool:
                            # The break killed this task, it didn't fail
                            # it: resubmit to the respawned pool, attempt
                            # uncharged.
                            broke = True
                            ready.append(item)
                        except Exception as exc:
                            if failure is not None:
                                continue
                            tries = attempts[item] = attempts.get(item, 0) + 1
                            if tries <= cell_retries:
                                time.sleep(_RETRY_BACKOFF_S * 2 ** (tries - 1))
                                ready.appendleft(item)
                            elif on_error == "raise":
                                failure = exc  # deliver the rest, then re-raise
                            else:
                                quarantine(*item, exc, tries)
                        except BaseException as exc:  # KeyboardInterrupt, ...
                            failure = failure or exc
                        else:
                            deliver(*item, value)
            if broke and failure is None:
                respawns += 1
                if respawns > _MAX_POOL_RESPAWNS:
                    raise RuntimeError(
                        f"process pool broke {respawns} times "
                        f"({len(ready)} tasks outstanding); giving up"
                    )
                logger.warning(
                    "process pool broke; respawning (%d/%d) and resubmitting "
                    "%d interrupted task(s)",
                    respawns,
                    _MAX_POOL_RESPAWNS,
                    len(ready),
                )
        if failure is not None:
            raise failure
        if quarantined:
            emit(f"# quarantined: {len(quarantined)} cells")

    report = SweepReport(
        results=list(results),  # type: ignore[arg-type]
        cached=cached,
        keys=keys,
        quarantined=quarantined,
        workers_used=n_workers,
    )
    if profile and use_cache:
        merged = report.telemetry()
        if merged is not None:
            path = write_snapshot(merged, store.root / "telemetry.json")
            emit(f"# telemetry: roll-up of {merged['n_runs']} runs -> {path}")
    return report


#: Fresh pools spawned after :class:`BrokenProcessPool` before giving up.
_MAX_POOL_RESPAWNS = 3

#: Base backoff between retry attempts of a failing cell or training.
_RETRY_BACKOFF_S = 0.5


# ----------------------------------------------------------------------
# Aggregation into harness.report renderings
# ----------------------------------------------------------------------


def aggregate_rows(results: Sequence[dict]) -> list[dict]:
    """Mean metrics per (scenario, system) across seeds, in first-seen order.

    Federated cells (results carrying a ``"sites"`` breakdown) yield one
    fleet-level row plus one row per site, labeled
    ``scenario[site-name]``, so sweep tables and CSVs show per-site
    cost/CO₂ without a schema change.
    """
    groups: dict[tuple[str, str], list[dict]] = {}
    for result in results:
        groups.setdefault((result["scenario"], result["system"]), []).append(result)
    rows = []

    def mean_row(label: str, system: str, bucket: list[dict]) -> dict:
        n = len(bucket)
        return {
            "scenario": label,
            "system": system,
            "num_servers": bucket[0]["num_servers"],
            "n_seeds": n,
            "energy_kwh": sum(r["energy_kwh"] for r in bucket) / n,
            "acc_latency_1e6_s": sum(r["acc_latency_s"] for r in bucket) / n / 1e6,
            "mean_latency_s": sum(r["mean_latency_s"] for r in bucket) / n,
            # .get(): rows synthesized by tests, or older records fed in
            # directly, may lack the power and electricity account.
            "average_power_w": sum(r.get("average_power_w", 0.0) for r in bucket) / n,
            "cost_usd": sum(r.get("cost_usd", 0.0) for r in bucket) / n,
            "co2_kg": sum(r.get("co2_kg", 0.0) for r in bucket) / n,
            # Fault account (.get(): pre-v6 records have no faults).
            "failed_jobs": sum(r.get("failed_jobs", 0) for r in bucket) / n,
            "goodput": sum(r.get("goodput", 1.0) for r in bucket) / n,
            "availability": sum(r.get("availability", 1.0) for r in bucket) / n,
        }

    for (scenario, system), bucket in groups.items():
        rows.append(mean_row(scenario, system, bucket))
        n_sites = min(len(r.get("sites") or []) for r in bucket)
        for s in range(n_sites):
            site_bucket = [r["sites"][s] for r in bucket]
            rows.append(
                mean_row(
                    f"{scenario}[{site_bucket[0].get('site', s)}]",
                    system,
                    site_bucket,
                )
            )
    return rows


def aggregate_series_rows(results: Sequence[dict]) -> list[dict]:
    """Fig-8-style series, averaged over seeds per (scenario, system).

    Each cell result carries accumulated-latency and energy series
    sampled every ``record_every`` completions; this aligns the seeds'
    series point-by-point (truncating to the shortest — churned cells
    can complete slightly fewer jobs) and averages the values, yielding
    one long-form row per (scenario, system, series, sample point).
    Federated cells additionally yield per-site series rows labeled
    ``scenario[site-name]``.
    """
    groups: dict[tuple[str, str], list[dict]] = {}
    for result in results:
        groups.setdefault((result["scenario"], result["system"]), []).append(result)
    rows: list[dict] = []

    def emit(label: str, system: str, bucket: list[dict]) -> None:
        for series in ("latency", "energy", "cost", "co2"):
            per_seed = [r.get(f"{series}_series") or [] for r in bucket]
            n_points = min((len(s) for s in per_seed), default=0)
            for p in range(n_points):
                rows.append(
                    {
                        "scenario": label,
                        "system": system,
                        "series": series,
                        "n_jobs": int(per_seed[0][p][0]),
                        "value": sum(s[p][1] for s in per_seed) / len(per_seed),
                        "n_seeds": len(per_seed),
                    }
                )

    for (scenario, system), bucket in groups.items():
        emit(scenario, system, bucket)
        n_sites = min(len(r.get("sites") or []) for r in bucket)
        for s in range(n_sites):
            site_bucket = [r["sites"][s] for r in bucket]
            emit(
                f"{scenario}[{site_bucket[0].get('site', s)}]", system, site_bucket
            )
    return rows


_SWEEP_HEADERS = [
    "Scenario",
    "System",
    "M",
    "Seeds",
    "Energy (kWh)",
    "Latency (1e6 s)",
    "Mean lat (s)",
    "Power (W)",
    "Cost ($)",
    "CO2 (kg)",
    "Failed",
    "Goodput",
]


def _sweep_cells(row: dict) -> list:
    return [
        row["scenario"],
        row["system"],
        row["num_servers"],
        row["n_seeds"],
        f"{row['energy_kwh']:.2f}",
        f"{row['acc_latency_1e6_s']:.3f}",
        f"{row['mean_latency_s']:.1f}",
        f"{row['average_power_w']:.2f}",
        f"{row['cost_usd']:.2f}",
        f"{row['co2_kg']:.2f}",
        f"{row.get('failed_jobs', 0.0):.1f}",
        f"{row.get('goodput', 1.0):.3f}",
    ]


def render_sweep_table(rows: Sequence[dict]) -> str:
    """Paper-style text table of aggregated sweep rows."""
    return format_table(_SWEEP_HEADERS, [_sweep_cells(row) for row in rows])


def render_sweep_csv(rows: Sequence[dict]) -> str:
    """CSV rendering of aggregated sweep rows."""
    headers = [
        "scenario",
        "system",
        "num_servers",
        "n_seeds",
        "energy_kwh",
        "acc_latency_1e6_s",
        "mean_latency_s",
        "average_power_w",
        "cost_usd",
        "co2_kg",
        "failed_jobs",
        "goodput",
        "availability",
    ]
    return format_csv(
        headers, [[row.get(h, "") for h in headers] for row in rows]
    )


def render_sweep_series_csv(rows: Sequence[dict]) -> str:
    """Long-form CSV of Fig-8-style series rows (one sample per line)."""
    headers = ["scenario", "system", "series", "n_jobs", "value", "n_seeds"]
    return format_csv(
        headers, [[row[h] for h in headers] for row in rows]
    )

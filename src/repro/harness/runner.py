"""Named-system construction and the paper's training/evaluation protocol.

Sec. VII-A's protocol, scaled to laptop budgets: the global tier is
pre-trained offline (experience collection under round-robin, autoencoder
reconstruction pre-training, Sub-Q regression on SMDP targets), refined
with online ε-greedy deep Q-learning over training segments, and then —
because the framework is an *online adaptive* controller — keeps learning
through the evaluation trace itself.

To compare local tiers apples-to-apples (Table I and Fig. 10 pair the
*same* DRL allocation tier with different power managers), the harness
trains one **global prototype** per experiment and clones its Q-network
into every DRL-based system, so differences between ``drl-only``,
``drl+fixed-T`` and ``hierarchical`` come from the local tier, not from
global-training variance.

Systems are addressed by name so benchmarks, tests, examples and scenario
cells (per site, through :func:`repro.scenarios.federation.build_cell`)
share one construction path:

=================  =====================================================
``round-robin``    RoundRobinBroker + always-on servers (paper baseline)
``random``         RandomBroker + always-on
``least-loaded``   LeastLoadedBroker + always-on
``packing``        PackingBroker + immediate sleep (greedy comparator)
``drl-only``       DRL global tier + ad-hoc immediate sleep (Fig. 4a)
``drl+fixed-T``    DRL global tier + fixed timeout T seconds (Fig. 10)
``hierarchical``   full framework: DRL global tier + RL/LSTM local tier
=================  =====================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from repro.core.baselines import (
    AlwaysOnPolicy,
    FixedTimeoutPolicy,
    ImmediateSleepPolicy,
    LeastLoadedBroker,
    PackingBroker,
    RandomBroker,
)
from repro.core.config import ExperimentConfig
from repro.core.global_tier import DRLGlobalBroker, offline_pretrain
from repro.core.hierarchical import (
    HierarchicalSystem,
    build_drl_only,
    build_hierarchical,
    build_round_robin,
    pretrain_predictor,
)
from repro.core.predictor import WorkloadPredictor
from repro.obs import telemetry as obs
from repro.sim.churn import CapacityEvent
from repro.sim.job import Job
from repro.sim.power import TariffModel

SYSTEM_NAMES = (
    "round-robin",
    "random",
    "least-loaded",
    "packing",
    "drl-only",
    "hierarchical",
)

#: One-line description per named system (``python -m repro systems``).
SYSTEM_DESCRIPTIONS = {
    "round-robin": "Round-robin dispatch, servers always on (paper baseline)",
    "random": "Uniform-random dispatch, servers always on",
    "least-loaded": "Dispatch to the least CPU-loaded server, always on",
    "packing": "Greedy first-fit packing with immediate sleep",
    "drl-only": "DRL global tier with ad-hoc immediate sleep (Fig. 4a)",
    "drl+fixed-T": "DRL global tier with a fixed local timeout of T seconds",
    "hierarchical": "Full framework: DRL global tier + RL/LSTM local tier",
}

_FIXED_RE = re.compile(r"^drl\+fixed-(\d+(?:\.\d+)?)$")

#: System names whose broker is the DRL global tier.
_DRL_PREFIXES = ("drl-only", "drl+fixed-", "hierarchical")


@dataclass(frozen=True)
class RunResult:
    """Flattened outcome of one evaluation run."""

    name: str
    num_servers: int
    n_jobs: int
    energy_kwh: float
    acc_latency: float
    mean_latency: float
    average_power: float
    final_time: float
    latency_series: tuple[tuple[int, float], ...]
    energy_series: tuple[tuple[int, float], ...]
    # Electricity-aware extensions (zero / empty without a tariff).
    cost_usd: float = 0.0
    co2_kg: float = 0.0
    cost_series: tuple[tuple[int, float], ...] = ()
    co2_series: tuple[tuple[int, float], ...] = ()
    #: Telemetry snapshot of the run (profiled runs only, else None).
    telemetry: dict | None = None
    # Fault-injection extensions (defaults hold for fault-free runs).
    failed_jobs: int = 0
    retries: int = 0
    goodput: float = 1.0
    availability: float = 1.0
    broker_fallbacks: int = 0

    @property
    def acc_latency_1e6(self) -> float:
        """Accumulated latency in the paper's Table-I unit (1e6 seconds)."""
        return self.acc_latency / 1e6

    @property
    def energy_per_job_wh(self) -> float:
        """Average energy per completed job in watt-hours (Fig. 10 x-axis)."""
        if self.n_jobs == 0:
            return 0.0
        return self.energy_kwh * 1000.0 / self.n_jobs


def run_system(
    system: HierarchicalSystem,
    jobs: list[Job],
    record_every: int = 200,
    capacity_events: tuple[CapacityEvent, ...] = (),
    tariff: "TariffModel | None" = None,
    faults=None,
) -> RunResult:
    """Evaluate a (possibly trained) system on a fresh copy of a trace.

    ``capacity_events`` schedules churn (failures / maintenance drains)
    into the evaluation run; training runs are never churned. ``tariff``
    attaches a price/carbon signal so the result carries cost and CO₂
    alongside energy (training is always tariff-blind — electricity
    accounting is an evaluation-side lens, not a reward term).
    ``faults`` is an optional resolved
    :class:`~repro.faults.plan.SiteFaultPlan`; like churn and tariffs it
    applies to evaluation only, and the result then carries the
    failed/retry/goodput/availability tallies.
    """
    result = system.run(
        [job.copy() for job in jobs],
        record_every=record_every,
        capacity_events=capacity_events,
        tariff=tariff,
        faults=faults,
    )
    metrics = result.metrics
    runtime = result.faults
    tel = obs.active()
    return RunResult(
        telemetry=tel.snapshot() if tel is not None else None,
        name=system.name,
        num_servers=system.config.num_servers,
        n_jobs=metrics.n_completed,
        energy_kwh=result.total_energy_kwh,
        acc_latency=metrics.acc_latency,
        mean_latency=metrics.mean_latency,
        average_power=result.average_power_watts,
        final_time=result.final_time,
        latency_series=tuple(metrics.latency_series()),
        energy_series=tuple(metrics.energy_series()),
        cost_usd=metrics.total_cost_usd(),
        co2_kg=metrics.total_co2_kg(),
        cost_series=tuple(metrics.cost_series()),
        co2_series=tuple(metrics.co2_series()),
        failed_jobs=metrics.n_failed,
        retries=metrics.n_retries,
        goodput=metrics.goodput,
        availability=(
            runtime.fleet_availability(result.final_time)
            if runtime is not None
            else 1.0
        ),
        broker_fallbacks=(runtime.broker_fallbacks if runtime is not None else 0),
    )


def needs_global_tier(name: str) -> bool:
    """Whether a named system uses the DRL global broker."""
    return any(name.startswith(prefix) for prefix in _DRL_PREFIXES)


def derive_cell_seeds(seed: int) -> tuple[np.random.SeedSequence, int]:
    """The (trace seed-sequence, system seed) a scenario cell derives.

    The single definition shared by cell construction
    (:func:`repro.scenarios.federation.build_cell`) and checkpoint
    training (:func:`repro.scenarios.checkpoints.train_policy`): both
    must see identical traces and identical controller initialization or
    warm cells would silently run a different experiment.
    """
    trace_ss, system_ss = np.random.SeedSequence(seed).spawn(2)
    return trace_ss, int(system_ss.generate_state(1)[0])


def build_pretrained_predictor(
    config: ExperimentConfig,
    train_traces: list[list[Job]],
    seed: int,
) -> WorkloadPredictor:
    """The LSTM predictor a hierarchical system starts evaluation with.

    Shared by :func:`make_system`'s cold path and checkpoint training
    (:func:`repro.scenarios.checkpoints.train_policy`), so the warm
    path's stored weights are bit-for-bit the ones a cold cell would
    have trained. A trace too short for a full look-back window leaves
    the predictor legitimately unfitted.
    """
    predictor = WorkloadPredictor(
        config.local_tier.predictor, rng=np.random.default_rng(seed)
    )
    if train_traces:
        try:
            pretrain_predictor(predictor, train_traces[0], config.num_servers)
        except ValueError:
            pass  # trace too short for a full look-back window
    return predictor


def train_global_prototype(
    config: ExperimentConfig,
    train_traces: list[list[Job]],
    pretrain: bool = True,
    online_epochs: int = 2,
    seed: int | None = None,
) -> DRLGlobalBroker:
    """Train the shared global tier (Algorithm 1 offline + online phases).

    Offline: collect transitions under round-robin, pre-train the
    autoencoder and the Sub-Q network. Online: ε-greedy deep Q-learning
    passes over the training traces with the ad-hoc local policy.
    """
    system = build_drl_only(config, seed=seed)
    broker = system.broker
    assert isinstance(broker, DRLGlobalBroker)
    if pretrain and train_traces:
        offline_pretrain(
            broker,
            train_traces,
            policy_factory=lambda: ImmediateSleepPolicy(),
            power_model=config.fleet_power_models,
            autoencoder_epochs=5,
            q_epochs=2,
            batches_per_epoch=100,
        )
    for _ in range(online_epochs):
        for trace in train_traces:
            system.run([job.copy() for job in trace])
    return broker


def clone_global_broker(
    prototype: DRLGlobalBroker,
    config: ExperimentConfig,
    seed: int | None = None,
) -> DRLGlobalBroker:
    """Fresh broker carrying the prototype's trained Q-network weights.

    The clone owns an independent network, optimizer, and replay memory,
    and starts at the prototype's (annealed) exploration rate, so systems
    sharing a prototype remain statistically independent afterwards.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    clone = DRLGlobalBroker(
        prototype.encoder,
        config.global_tier,
        qnetwork=prototype.qnet.clone(rng=rng),
        rng=rng,
    )
    clone.epsilon = prototype.epsilon
    return clone


def make_system(
    name: str,
    config: ExperimentConfig | None = None,
    train_traces: list[list[Job]] | None = None,
    global_prototype: DRLGlobalBroker | None = None,
    predictor: WorkloadPredictor | None = None,
    pretrain: bool = True,
    online_epochs: int = 2,
    local_epochs: int = 2,
    local_w: float | None = None,
    shared_dpm_learner: bool = True,
    seed: int | None = None,
) -> HierarchicalSystem:
    """Build (and, for learning systems, train) a named system.

    Parameters
    ----------
    name:
        One of :data:`SYSTEM_NAMES` or ``drl+fixed-T`` (T in seconds).
    train_traces:
        Traces for offline pretraining and online warm-up of learning
        systems; ignored by static baselines.
    global_prototype:
        A broker from :func:`train_global_prototype`. When given, DRL
        systems clone its Q-network instead of training their own —
        isolating local-tier differences.
    predictor:
        A (typically pre-trained) LSTM workload predictor for the
        hierarchical system's local tier. When given, the usual
        offline predictor pre-training is skipped — this is how policy
        checkpoints warm-start the local tier.
    online_epochs:
        Online global-training passes when *no* prototype is supplied.
    local_epochs:
        Warm-up passes for the hierarchical system's local tier.
    local_w:
        Override the local tier's power-vs-latency weight (Fig. 10 knob).
    shared_dpm_learner:
        Pool the DPM Q-table across servers (sample-efficient default;
        set False for the paper's strictly per-server learners).

    Raises
    ------
    ValueError
        On an unknown system name.
    """
    config = config if config is not None else ExperimentConfig()
    if local_w is not None:
        config = replace(config, local_tier=replace(config.local_tier, w=local_w))
    train_traces = train_traces or []
    rng = np.random.default_rng(config.seed if seed is None else seed)

    if name == "round-robin":
        return build_round_robin(config)
    if name == "random":
        return HierarchicalSystem(
            name="random",
            broker=RandomBroker(rng),
            policies=AlwaysOnPolicy(),
            config=config,
            initially_on=True,
        )
    if name == "least-loaded":
        return HierarchicalSystem(
            name="least-loaded",
            broker=LeastLoadedBroker(),
            policies=AlwaysOnPolicy(),
            config=config,
            initially_on=True,
        )
    if name == "packing":
        return HierarchicalSystem(
            name="packing",
            broker=PackingBroker(),
            policies=ImmediateSleepPolicy(),
            config=config,
            initially_on=False,
        )
    if not needs_global_tier(name):
        raise ValueError(
            f"unknown system {name!r}; known: {SYSTEM_NAMES} or 'drl+fixed-T'"
        )

    # --- DRL-based systems ------------------------------------------------
    if global_prototype is not None:
        broker = clone_global_broker(global_prototype, config, seed=seed)
    else:
        broker = train_global_prototype(
            config, train_traces, pretrain=pretrain, online_epochs=online_epochs,
            seed=seed,
        )

    if name == "drl-only":
        return HierarchicalSystem(
            name="drl-only",
            broker=broker,
            policies=ImmediateSleepPolicy(),
            config=config,
            initially_on=False,
        )
    match = _FIXED_RE.match(name)
    if match:
        return HierarchicalSystem(
            name=name,
            broker=broker,
            policies=FixedTimeoutPolicy(float(match.group(1))),
            config=config,
            initially_on=False,
        )
    # name == "hierarchical"
    if predictor is None:
        predictor = build_pretrained_predictor(
            config, train_traces, config.seed if seed is None else seed
        )
    system = build_hierarchical(
        config,
        broker=broker,
        predictor=predictor,
        shared_dpm_learner=shared_dpm_learner,
        seed=seed,
    )
    # Warm up the local tier; the global tier keeps learning through
    # these passes too when it is fresh — both tiers are online learners.
    for _ in range(local_epochs):
        for trace in train_traces:
            system.run([job.copy() for job in trace])
    return system


def standard_protocol(
    names: tuple[str, ...],
    eval_jobs: list[Job],
    config: ExperimentConfig | None = None,
    train_traces: list[list[Job]] | None = None,
    record_every: int = 200,
    **make_kwargs,
) -> dict[str, RunResult]:
    """Train each named system, evaluate all on the same trace.

    A single global prototype is trained and shared by every DRL-based
    system in ``names`` (unless the caller passes ``global_prototype``).
    """
    config = config if config is not None else ExperimentConfig()
    train_traces = train_traces or []
    if "global_prototype" not in make_kwargs and any(
        needs_global_tier(n) for n in names
    ):
        proto_kwargs = {
            k: make_kwargs[k]
            for k in ("pretrain", "online_epochs", "seed")
            if k in make_kwargs
        }
        make_kwargs["global_prototype"] = train_global_prototype(
            config, train_traces, **proto_kwargs
        )
    results: dict[str, RunResult] = {}
    for name in names:
        system = make_system(name, config, train_traces, **make_kwargs)
        results[name] = run_system(system, eval_jobs, record_every=record_every)
    return results

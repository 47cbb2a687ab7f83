"""Named-system construction and the paper's training/evaluation protocol.

Sec. VII-A's protocol, scaled to laptop budgets: the global tier is
pre-trained offline (experience collection under round-robin, autoencoder
reconstruction pre-training, Sub-Q regression on SMDP targets), refined
with online ε-greedy deep Q-learning over training segments, and then —
because the framework is an *online adaptive* controller — keeps learning
through the evaluation trace itself.

The protocol is one value, :class:`Protocol`, passed whole from the CLI
to every cell and trainer: :data:`PAPER_PROTOCOL` for Table I and
Figs. 8-10, :data:`SWEEP_PROTOCOL` for scenario cells.

To compare local tiers apples-to-apples (Table I and Fig. 10 pair the
*same* DRL allocation tier with different power managers), the harness
trains one :class:`SitePolicy` per experiment (:func:`train_site_policy`)
and builds every DRL-based system from it, so differences between
``drl-only``, ``drl+fixed-T`` and ``hierarchical`` come from the local
tier, not from global-training variance. A ``SitePolicy`` is the one
handoff from training to evaluation: the harness keeps it in memory,
and scenario sweeps keep one per site on disk
(:mod:`repro.scenarios.checkpoints`).

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
from typing import TYPE_CHECKING

import numpy as np

from repro.core.baselines import (
    AlwaysOnPolicy,
    FixedTimeoutPolicy,
    ImmediateSleepPolicy,
    LeastLoadedBroker,
    PackingBroker,
    RandomBroker,
    RoundRobinBroker,
)
from repro.core.config import ExperimentConfig
from repro.core.global_tier import DRLGlobalBroker, offline_pretrain
from repro.core.hierarchical import HierarchicalSystem, pretrain_predictor
from repro.core.local_tier import RLPowerPolicy, dpm_learner
from repro.core.predictor import WorkloadPredictor
from repro.core.state import StateEncoder
from repro.sim.federation import FederationResult, build_federation
from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.inject import FaultRuntime

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

_FIXED_RE = re.compile(r"drl\+fixed-(\d+(?:\.\d+)?)")


@dataclass(frozen=True)
class RunResult:
    """One run's reported summary: the whole fleet's, or one site's.

    Every summary in the package is built by :meth:`from_run`, for
    :func:`run_system` and for a scenario cell's fleet and each of its
    sites (:func:`repro.scenarios.orchestrator.run_cell`).
    """

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
    # Fault-injection extensions (defaults hold for fault-free runs).
    failed_jobs: int = 0
    retries: int = 0
    goodput: float = 1.0
    availability: float = 1.0
    broker_fallbacks: int = 0

    @classmethod
    def from_run(
        cls,
        name: str,
        result: FederationResult,
        runtime: FaultRuntime | None = None,
        site: int | None = None,
    ) -> "RunResult":
        """Summarize a finished run: the whole fleet, or site ``site``.

        Totals sum the sites' collectors in site order. Average power
        and the series read one series: the fleet's merged
        ``fleet_series``, or the site's own. ``runtime`` is the run's
        fault runtime (``engine.faults``), if any; a site reports its
        own availability and no broker fallbacks, which the fleet owns.
        """
        if site is None:
            sites, series = result.sites, result.fleet_series
        else:
            sites = [result.sites[site]]
            series = sites[0].metrics.series
        metrics = [s.metrics for s in sites]
        n_jobs = sum(m.n_completed for m in metrics)
        failed = sum(m.n_failed for m in metrics)
        acc_latency = sum(m.acc_latency for m in metrics)
        if runtime is None:
            availability, fallbacks = 1.0, 0
        elif site is None:
            availability = runtime.fleet_availability(result.final_time)
            fallbacks = runtime.broker_fallbacks
        else:
            availability = runtime.site_availability(site, result.final_time)
            fallbacks = 0
        return cls(
            name=name,
            num_servers=sum(s.num_servers for s in sites),
            n_jobs=n_jobs,
            energy_kwh=sum(m.total_energy_kwh() for m in metrics),
            acc_latency=acc_latency,
            mean_latency=acc_latency / n_jobs if n_jobs else 0.0,
            average_power=series[-1].average_power_watts if series else 0.0,
            final_time=result.final_time,
            latency_series=tuple((p.n_completed, p.acc_latency) for p in series),
            energy_series=tuple((p.n_completed, p.energy_kwh) for p in series),
            cost_usd=sum(m.total_cost_usd() for m in metrics),
            co2_kg=sum(m.total_co2_kg() for m in metrics),
            cost_series=tuple((p.n_completed, p.cost_usd) for p in series),
            co2_series=tuple((p.n_completed, p.co2_kg) for p in series),
            failed_jobs=failed,
            retries=sum(m.n_retries for m in metrics),
            goodput=n_jobs / (n_jobs + failed) if n_jobs + failed else 1.0,
            availability=availability,
            broker_fallbacks=fallbacks,
        )

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


@dataclass(frozen=True)
class Protocol:
    """Sec. VII-A's training protocol and the evaluation's sampling, as one value.

    Passed whole to every layer that trains or evaluates. A cell's
    content key holds every field, a checkpoint's training key only
    ``pretrain`` and ``online_epochs``.

    ``pretrain`` pre-trains the global tier offline before
    ``online_epochs`` ε-greedy passes over the training traces, and
    ``local_epochs`` passes warm up the hierarchical system's local
    tier. ``record_every`` samples an evaluation run's series every
    this many completions and decides more than their resolution: the
    power-down tail after the last completion counts toward reported
    energy and power only when the completed count is not a multiple of
    it, which is why it stays in a cell's key.

    Raises ValueError unless ``pretrain`` is a bool, the epoch counts
    are ints >= 0 and ``record_every`` is an int >= 1 (a bool or a
    float such as ``2.0`` would key apart from the int).
    """

    pretrain: bool = True
    online_epochs: int = 2
    local_epochs: int = 2
    record_every: int = 200

    def __post_init__(self) -> None:
        if type(self.pretrain) is not bool:
            raise ValueError(f"pretrain must be a bool, got {self.pretrain!r}")
        for name, least in (
            ("online_epochs", 0),
            ("local_epochs", 0),
            ("record_every", 1),
        ):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


#: Table I, Figs. 8-10 and the harness's defaults: two online and two
#: local-tier epochs.
PAPER_PROTOCOL = Protocol()
#: Scenario cells, sweeps, checkpoints and ``scenario run``: one epoch
#: of each, so a cell stays cheap.
SWEEP_PROTOCOL = Protocol(online_epochs=1, local_epochs=1)


def run_system(
    system: HierarchicalSystem,
    jobs: list[Job],
    protocol: Protocol = PAPER_PROTOCOL,
) -> RunResult:
    """Evaluate a (possibly trained) system on a fresh copy of a trace.

    The run is a one-site :func:`~repro.sim.federation.build_federation`
    engine around ``system`` (site ``cluster``), summarized by
    :meth:`RunResult.from_run`. It samples its series every
    ``protocol.record_every`` completions. Churn, tariffs and faults
    reach an evaluation through a scenario cell
    (:func:`repro.scenarios.federation.build_federation_engine`).
    """
    engine = build_federation(
        [system.site(name="cluster", record_every=protocol.record_every)]
    )
    result = engine.run([[job.copy() for job in jobs]])
    return RunResult.from_run(system.name, result)


def needs_global_tier(name: str) -> bool:
    """Whether a named system uses the DRL global broker.

    Names match whole: ``drl-only``, ``hierarchical`` or ``drl+fixed-T``.
    """
    return name in ("drl-only", "hierarchical") or _FIXED_RE.fullmatch(name) is not None


def check_system(name: str) -> None:
    """Raise ValueError unless ``name`` is a named system or ``drl+fixed-T``."""
    if name not in SYSTEM_NAMES and not needs_global_tier(name):
        raise ValueError(
            f"unknown system {name!r}; known: {SYSTEM_NAMES} or 'drl+fixed-T'"
        )


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

    Shared by :func:`make_system`'s cold path and
    :func:`train_site_policy`, so a policy's stored weights are
    bit-for-bit the ones a cold system would have trained. A trace too
    short for a full look-back window leaves the predictor legitimately
    unfitted.
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


def untrained_broker(
    config: ExperimentConfig, seed: int | None = None
) -> DRLGlobalBroker:
    """A fresh DRL global broker over ``config``'s state encoder.

    Every DRL system :func:`make_system` builds starts from one, trained
    by :func:`train_global_prototype` or given a policy's weights by
    :meth:`SitePolicy.broker`. Its generator is seeded with
    ``config.seed`` unless ``seed`` is given.
    """
    tier = config.global_tier
    encoder = StateEncoder(
        num_servers=config.num_servers,
        num_resources=config.num_resources,
        num_groups=tier.num_groups,
        include_power_state=tier.include_power_state,
        include_queue_state=tier.include_queue_state,
    )
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return DRLGlobalBroker(encoder, tier, rng=rng)


def train_global_prototype(
    config: ExperimentConfig,
    train_traces: list[list[Job]],
    protocol: Protocol,
    seed: int | None = None,
) -> DRLGlobalBroker:
    """Train the shared global tier (Algorithm 1 offline + online phases).

    Both phases run one ``drl-only`` system (the ad-hoc local policy),
    so every training pass simulates the site ``config`` describes.
    Offline (``protocol.pretrain``): collect transitions under
    round-robin, pre-train the autoencoder and the Sub-Q network
    (:func:`~repro.core.global_tier.offline_pretrain`). Online:
    ``protocol.online_epochs`` ε-greedy deep Q-learning passes over the
    training traces.
    """
    broker = untrained_broker(config, seed)
    system = HierarchicalSystem("drl-only", broker, ImmediateSleepPolicy(), config)
    if protocol.pretrain and train_traces:
        offline_pretrain(system, train_traces)
    for _ in range(protocol.online_epochs):
        for trace in train_traces:
            system.run([job.copy() for job in trace])
    return broker


@dataclass(frozen=True)
class SitePolicy:
    """One site's trained controllers: the handoff from training to evaluation.

    Parameters
    ----------
    qnet_state:
        :meth:`~repro.nn.layers.Module.state_dict` of the trained
        Q-network (a site's global tier or the federation dispatcher).
    epsilon:
        The trained broker's annealed exploration rate; brokers built
        from the policy resume exploring from here.
    predictor_state:
        State dict of the LSTM predictor network, or None when the
        policy was trained without one.
    predictor_fitted:
        Whether the predictor was actually fitted (a too-short trace
        legitimately leaves it unfitted — that is recorded, not retried).
    arch:
        The Q-network's architecture fingerprint, when known.
    """

    qnet_state: dict[str, np.ndarray]
    epsilon: float
    predictor_state: dict[str, np.ndarray] | None = None
    predictor_fitted: bool = False
    arch: dict | None = None

    @classmethod
    def capture(
        cls, broker, predictor: WorkloadPredictor | None = None
    ) -> "SitePolicy":
        """Snapshot a trained broker (its ``qnet`` and ``epsilon``)."""
        state = None if predictor is None else predictor.network.state_dict()
        return cls(
            qnet_state=broker.qnet.state_dict(),
            epsilon=broker.epsilon,
            predictor_state=state,
            predictor_fitted=predictor is not None and predictor.fitted,
            arch=broker.qnet.describe(),
        )

    def restore(self, qnet) -> None:
        """Load the stored weights into ``qnet`` after checking its geometry.

        Raises
        ------
        ValueError
            If ``qnet``'s architecture fingerprint differs from the
            stored one (the weights were trained for a different fleet).
        """
        if self.arch is not None and self.arch != qnet.describe():
            raise ValueError(
                "policy geometry does not match the network: weights carry "
                f"{self.arch}, network needs {qnet.describe()}"
            )
        qnet.load_state_dict(self.qnet_state)

    def broker(
        self, config: ExperimentConfig, seed: int | None = None
    ) -> DRLGlobalBroker:
        """A fresh DRL broker carrying the stored weights and ε.

        The broker owns an independent network, optimizer and replay
        memory, so systems built from one policy stay independent.
        """
        broker = untrained_broker(config, seed)
        self.restore(broker.qnet)
        broker.epsilon = self.epsilon
        return broker

    def predictor(self, config: ExperimentConfig, seed: int) -> WorkloadPredictor:
        """The stored LSTM predictor a hierarchical system starts from.

        Raises
        ------
        ValueError
            If the policy was trained without a predictor.
        """
        if self.predictor_state is None:
            raise ValueError(
                "policy was trained without a predictor; retrain with "
                "with_predictor=True to serve hierarchical systems"
            )
        predictor = WorkloadPredictor(
            config.local_tier.predictor, rng=np.random.default_rng(seed)
        )
        predictor.network.load_state_dict(self.predictor_state)
        predictor.fitted = self.predictor_fitted
        return predictor


def train_site_policy(
    config: ExperimentConfig,
    train_traces: list[list[Job]],
    protocol: Protocol = PAPER_PROTOCOL,
    seed: int | None = None,
    with_predictor: bool = False,
) -> SitePolicy:
    """Train one site's controllers (:func:`train_global_prototype`).

    With ``with_predictor``, the policy also carries the LSTM predictor
    of :func:`build_pretrained_predictor`, seeded like the system.
    """
    broker = train_global_prototype(config, train_traces, protocol, seed=seed)
    predictor = None
    if with_predictor:
        predictor = build_pretrained_predictor(
            config, train_traces, config.seed if seed is None else seed
        )
    return SitePolicy.capture(broker, predictor)


def make_system(
    name: str,
    config: ExperimentConfig | None = None,
    train_traces: list[list[Job]] | None = None,
    policy: SitePolicy | None = None,
    protocol: Protocol = PAPER_PROTOCOL,
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
    policy:
        A trained :class:`SitePolicy`. When given, DRL systems start
        from its weights instead of training their own — isolating
        local-tier differences — and ``hierarchical`` takes its LSTM
        predictor. Ignored by static baselines.
    protocol:
        How learning systems train: ``pretrain`` and ``online_epochs``
        shape the global tier when *no* policy is supplied, and
        ``local_epochs`` warms up the hierarchical system's local tier.
    local_w:
        Override the local tier's power-vs-latency weight (Fig. 10 knob).
    shared_dpm_learner:
        Pool the DPM Q-table across servers (sample-efficient default;
        set False for the paper's strictly per-server learners). Either
        way every server's power manager shares one LSTM predictor and
        keeps its own inter-arrival window.

    Raises
    ------
    ValueError
        On an unknown system name, or a ``hierarchical`` system whose
        ``policy`` carries no predictor.
    """
    check_system(name)
    config = config if config is not None else ExperimentConfig()
    if local_w is not None:
        config = replace(config, local_tier=replace(config.local_tier, w=local_w))
    train_traces = train_traces or []
    system_seed = config.seed if seed is None else seed
    rng = np.random.default_rng(system_seed)

    if name == "round-robin":
        return HierarchicalSystem(
            name="round-robin",
            broker=RoundRobinBroker(),
            policies=AlwaysOnPolicy(),
            config=config,
            initially_on=True,
        )
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
    # --- DRL-based systems ------------------------------------------------
    if policy is not None:
        broker = policy.broker(config, seed=seed)
    else:
        broker = train_global_prototype(config, train_traces, protocol, seed=seed)

    if name == "drl-only":
        return HierarchicalSystem(
            name="drl-only",
            broker=broker,
            policies=ImmediateSleepPolicy(),
            config=config,
            initially_on=False,
        )
    match = _FIXED_RE.fullmatch(name)
    if match:
        return HierarchicalSystem(
            name=name,
            broker=broker,
            policies=FixedTimeoutPolicy(float(match.group(1))),
            config=config,
            initially_on=False,
        )
    # name == "hierarchical"
    if policy is not None:
        predictor = policy.predictor(config, system_seed)
    else:
        predictor = build_pretrained_predictor(config, train_traces, system_seed)
    # ``rng`` is still undrawn: the broker and the predictor seed
    # generators of their own.
    local = config.local_tier
    shared_learner = dpm_learner(local, rng) if shared_dpm_learner else None
    policies = [
        RLPowerPolicy(
            local,
            predictor=predictor,
            learner=shared_learner,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        for _ in range(config.num_servers)
    ]
    system = HierarchicalSystem(
        name="hierarchical",
        broker=broker,
        policies=policies,
        config=config,
        initially_on=False,
        predictor=predictor,
    )
    # Warm up the local tier; the global tier keeps learning through
    # these passes too when it is fresh — both tiers are online learners.
    for _ in range(protocol.local_epochs):
        for trace in train_traces:
            system.run([job.copy() for job in trace])
    return system


def shared_policy(
    names: tuple[str, ...],
    config: ExperimentConfig,
    train_traces: list[list[Job]],
    protocol: Protocol,
) -> SitePolicy | None:
    """The one :class:`SitePolicy` the DRL systems in ``names`` share.

    The training step shared by :func:`standard_protocol` and
    :func:`~repro.harness.tradeoff.run_tradeoff`: every DRL system a
    protocol compares starts from the same trained global tier, and
    from the same LSTM predictor when ``names`` includes
    ``hierarchical``. None when no name is a DRL system. Every name is
    checked (:func:`check_system`) before anything trains.
    """
    for name in names:
        check_system(name)
    if not any(needs_global_tier(n) for n in names):
        return None
    return train_site_policy(
        config, train_traces, protocol, with_predictor="hierarchical" in names
    )


def standard_protocol(
    names: tuple[str, ...],
    eval_jobs: list[Job],
    config: ExperimentConfig | None = None,
    train_traces: list[list[Job]] | None = None,
    protocol: Protocol = PAPER_PROTOCOL,
) -> dict[str, RunResult]:
    """Train each named system, evaluate all on the same trace.

    One :class:`SitePolicy` is trained and shared by every DRL-based
    system in ``names`` (:func:`shared_policy`).
    """
    config = config if config is not None else ExperimentConfig()
    train_traces = train_traces or []
    policy = shared_policy(names, config, train_traces, protocol)
    results: dict[str, RunResult] = {}
    for name in names:
        system = make_system(name, config, train_traces, policy, protocol)
        results[name] = run_system(system, eval_jobs, protocol)
    return results

"""Configuration dataclasses for the two tiers and whole experiments.

Defaults follow the paper's stated hyper-parameters wherever it states
them: autoencoder layers of 30 and 15 ELUs, Sub-Q hidden layer of 128
ELUs, K between 2 and 4 groups, Q-learning discount rate beta = 0.5,
gradient clipping at norm 10, LSTM with 35 look-back steps and 30 hidden
units, P(0%) = 87 W / P(100%) = 145 W, and Ton = Toff = 30 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.power import PowerModel


def groups_for(num_servers: int) -> int:
    """K between 2 and 4 dividing M (paper: K in [2, 4])."""
    for k in (4, 3, 2):
        if num_servers % k == 0:
            return k
    return 1


def _check_epsilon_schedule(start: float, floor: float, decay: float) -> None:
    """Raise ValueError unless epsilon decays from ``start`` towards ``floor``.

    Caught here, not mid-run: a decay above 1 grows epsilon each action
    until ε-greedy selection refuses it.
    """
    if not 0.0 <= floor <= start <= 1.0:
        raise ValueError(
            f"need 0 <= epsilon_floor <= epsilon_start <= 1, got "
            f"floor {floor}, start {start}"
        )
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"epsilon_decay must be in (0, 1], got {decay}")


@dataclass(frozen=True)
class GlobalTierConfig:
    """Hyper-parameters of the DRL-based global tier.

    Parameters
    ----------
    num_groups:
        K, the number of server groups (paper: 2–4).
    autoencoder_hidden:
        Encoder widths; last entry is the code dimension (paper: 30, 15).
    subq_hidden:
        Sub-Q hidden widths (paper: a single layer of 128 ELUs).
    beta:
        Continuous-time discount rate of Eqn. (2). The paper states 0.5;
        at our simulated arrival intensity (~6 s sojourns) that kills the
        bootstrap tail (e^{-0.5*6} ≈ 0.05) and with it all multi-epoch
        credit assignment, so the default is 0.05 (≈100 s half-life).
        Set 0.5 to reproduce the paper's literal value.
    w_power, w_vms, w_reliability:
        Reward weights of Eqn. (4) applied to the average power draw
        (watts), jobs in system, and the hot-spot measure over each
        sojourn. Scales chosen so each term is O(1).
    epsilon_start, epsilon_floor, epsilon_decay:
        ε-greedy schedule for online action selection: epsilon starts
        at ``epsilon_start`` and shrinks by ``epsilon_decay`` per action
        to ``epsilon_floor`` (``0 <= floor <= start <= 1``, decay in
        ``(0, 1]``).
    replay_capacity:
        Experience memory capacity N_D.
    batch_size:
        Minibatch size for DNN updates.
    train_interval:
        Decision epochs between online DNN update steps (the paper
        retrains at the end of each execution sequence).
    learning_rate:
        Adam step size.
    max_grad_norm:
        Gradient-norm clip (paper: 10).
    include_power_state, include_queue_state:
        Extend each server's state with an on/off indicator and a
        saturating queue-depth feature. The paper's state lists
        utilizations only, which is Markov-deficient under FCFS
        head-of-line blocking (see StateEncoder); both default on, and
        the ablation bench measures their effect.
    normalize_values:
        Learn ``beta * Q`` instead of ``Q`` — a pure affine rescaling
        that keeps DNN targets O(reward-rate) instead of
        O(reward-rate / beta). Without it, Eqn. (2) targets are so large
        relative to the norm-10 gradient clip that the network barely
        moves and the policy stays random. Argmax (and hence the policy)
        is unchanged.
    reward_clip:
        Clamp reward *rates* to ``[-reward_clip, reward_clip]`` before
        discounting (the DQN reward-clipping trick; None disables).
        Early-training queue explosions otherwise produce unbounded
        targets that destabilize the network.
    huber_delta:
        Use a Huber loss with this positive delta for DNN regression
        instead of MSE (None selects MSE), further bounding outlier
        gradients.
    """

    num_groups: int = 3
    autoencoder_hidden: tuple[int, ...] = (30, 15)
    subq_hidden: tuple[int, ...] = (128,)
    beta: float = 0.05
    w_power: float = 1e-3
    w_vms: float = 0.1
    w_reliability: float = 1.0
    epsilon_start: float = 0.15
    epsilon_floor: float = 0.02
    epsilon_decay: float = 0.9995
    replay_capacity: int = 50_000
    batch_size: int = 32
    train_interval: int = 8
    learning_rate: float = 1e-3
    max_grad_norm: float = 10.0
    include_power_state: bool = True
    include_queue_state: bool = True
    normalize_values: bool = True
    reward_clip: float | None = 10.0
    huber_delta: float | None = 1.0

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise ValueError(f"num_groups must be positive, got {self.num_groups}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.train_interval < 1:
            raise ValueError("train_interval must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        _check_epsilon_schedule(
            self.epsilon_start, self.epsilon_floor, self.epsilon_decay
        )
        if self.huber_delta is not None and self.huber_delta <= 0:
            raise ValueError(f"huber_delta must be positive, got {self.huber_delta}")


@dataclass(frozen=True)
class PredictorConfig:
    """Hyper-parameters of the LSTM workload predictor (Sec. VI-A)."""

    lookback: int = 35
    hidden_units: int = 30
    n_categories: int = 4
    min_interarrival: float = 1.0
    max_interarrival: float = 3600.0
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    init: str = "xavier"
    log_scale: bool = True

    def __post_init__(self) -> None:
        if self.lookback < 1:
            raise ValueError(f"lookback must be positive, got {self.lookback}")
        if self.n_categories < 1:
            raise ValueError(f"n_categories must be positive, got {self.n_categories}")
        if not 0 < self.min_interarrival < self.max_interarrival:
            raise ValueError("need 0 < min_interarrival < max_interarrival")


@dataclass(frozen=True)
class LocalTierConfig:
    """Hyper-parameters of the RL-based power manager (Sec. VI-B).

    Parameters
    ----------
    timeouts:
        The action set A: candidate timeout values in seconds, including
        0 (immediate shutdown).
    w:
        Power-vs-latency weight of Eqn. (5); the trade-off knob swept for
        Fig. 10.
    beta, alpha:
        SMDP discount rate and learning rate of Eqn. (2).
    epsilon_start, epsilon_floor, epsilon_decay:
        ε-greedy schedule, under the same rule as the global tier's.
    power_scale:
        Watts that count as "1.0" in the reward so the power and queue
        terms are commensurate (defaults to the peak power).
    """

    timeouts: tuple[float, ...] = (0.0, 30.0, 60.0, 90.0, 120.0)
    w: float = 0.5
    beta: float = 0.01
    alpha: float = 0.2
    epsilon_start: float = 0.3
    epsilon_floor: float = 0.02
    epsilon_decay: float = 0.995
    power_scale: float = 145.0
    predictor: PredictorConfig = field(default_factory=PredictorConfig)

    def __post_init__(self) -> None:
        if not self.timeouts:
            raise ValueError("timeouts must be non-empty")
        if any(t < 0 for t in self.timeouts):
            raise ValueError("timeouts must be non-negative")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w must be in [0, 1], got {self.w}")
        if self.power_scale <= 0:
            raise ValueError("power_scale must be positive")
        _check_epsilon_schedule(
            self.epsilon_start, self.epsilon_floor, self.epsilon_decay
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: cluster size, physics, and both tiers.

    ``power_model`` is the reference (homogeneous) server model; setting
    ``power_models`` to one model per server instead builds a
    heterogeneous fleet (mixed efficiency generations), in which case
    ``power_model`` is only used for cluster-level reward scales.
    """

    num_servers: int = 30
    num_resources: int = 3
    power_model: PowerModel = field(default_factory=PowerModel)
    power_models: tuple[PowerModel, ...] | None = None
    overload_threshold: float = 0.9
    global_tier: GlobalTierConfig = field(default_factory=GlobalTierConfig)
    local_tier: LocalTierConfig = field(default_factory=LocalTierConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError(f"num_servers must be positive, got {self.num_servers}")
        if self.num_servers % self.global_tier.num_groups != 0:
            raise ValueError(
                f"num_servers ({self.num_servers}) must be divisible by "
                f"num_groups ({self.global_tier.num_groups})"
            )
        if self.power_models is not None and len(self.power_models) != self.num_servers:
            raise ValueError(
                f"power_models has {len(self.power_models)} entries for "
                f"{self.num_servers} servers"
            )

    @property
    def fleet_power_models(self) -> "PowerModel | tuple[PowerModel, ...]":
        """What the simulator should build: per-server models or the shared one."""
        return self.power_models if self.power_models is not None else self.power_model

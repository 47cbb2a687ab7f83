"""The paper's contribution: the hierarchical control framework.

* :mod:`repro.core.state` — global-tier state encoding (server-group
  utilizations + job descriptor).
* :mod:`repro.core.qnetwork` — the autoencoder + weight-shared Sub-Q
  deep Q-network (Fig. 6).
* :mod:`repro.core.global_tier` — the DRL job broker (offline DNN
  construction + online deep Q-learning over a continuous-time SMDP).
* :mod:`repro.core.predictor` — the LSTM inter-arrival workload predictor.
* :mod:`repro.core.local_tier` — the model-free RL timeout power manager
  (Algorithm 2).
* :mod:`repro.core.baselines` — round-robin and friends, fixed-timeout /
  always-on / immediate-sleep DPM.
* :mod:`repro.core.hierarchical` — the wired controller stack a system
  runs as (:func:`repro.harness.runner.make_system` builds the named
  ones) and the LSTM predictor's offline pre-training.
* :mod:`repro.core.federation` — the tier above the paper's hierarchy:
  cross-site dispatchers for multi-cluster federations, including a DRL
  dispatcher reusing the Sub-Q machinery over per-site aggregates.
"""

from repro.core.baselines import (
    AlwaysOnPolicy,
    FixedTimeoutPolicy,
    ImmediateSleepPolicy,
    LeastLoadedBroker,
    PackingBroker,
    RandomBroker,
    RoundRobinBroker,
)
from repro.core.config import (
    ExperimentConfig,
    GlobalTierConfig,
    LocalTierConfig,
    PredictorConfig,
)
from repro.core.federation import (
    DRLFederationBroker,
    FederationStateView,
    LeastLoadedSiteBroker,
    StaticHomeBroker,
    TariffGreedySiteBroker,
    make_federation_broker,
)
from repro.core.global_tier import DRLGlobalBroker, offline_pretrain
from repro.core.hierarchical import (
    HierarchicalSystem,
    per_server_interarrivals,
    pretrain_predictor,
)
from repro.core.local_tier import RLPowerPolicy
from repro.core.predictor import InterArrivalTracker, WorkloadPredictor
from repro.core.qnetwork import FlatQNetwork, HierarchicalQNetwork
from repro.core.rewards import (
    GlobalRewardWeights,
    global_reward_rate,
    local_reward_rate,
)
from repro.core.state import StateEncoder

__all__ = [
    "AlwaysOnPolicy",
    "FixedTimeoutPolicy",
    "ImmediateSleepPolicy",
    "LeastLoadedBroker",
    "PackingBroker",
    "RandomBroker",
    "RoundRobinBroker",
    "ExperimentConfig",
    "GlobalTierConfig",
    "LocalTierConfig",
    "PredictorConfig",
    "DRLFederationBroker",
    "DRLGlobalBroker",
    "FederationStateView",
    "LeastLoadedSiteBroker",
    "StaticHomeBroker",
    "TariffGreedySiteBroker",
    "make_federation_broker",
    "offline_pretrain",
    "HierarchicalSystem",
    "per_server_interarrivals",
    "pretrain_predictor",
    "RLPowerPolicy",
    "InterArrivalTracker",
    "WorkloadPredictor",
    "FlatQNetwork",
    "HierarchicalQNetwork",
    "GlobalRewardWeights",
    "global_reward_rate",
    "local_reward_rate",
    "StateEncoder",
]

"""Reinforcement-learning substrate.

Model-free, continuous-time Q-learning for semi-Markov decision processes
(Bradtke & Duff), the value-update rule the paper uses in *both* tiers
(Eqn. 2), plus ε-greedy action selection and the experience replay
memory the global tier's offline/online DRL phases store transitions in.
"""

from repro.rl.policies import explore_draw, greedy_pick
from repro.rl.replay import ReplayMemory, Transition
from repro.rl.smdp import SMDPQLearner, smdp_discounted_reward, smdp_target

__all__ = [
    "explore_draw",
    "greedy_pick",
    "ReplayMemory",
    "Transition",
    "SMDPQLearner",
    "smdp_discounted_reward",
    "smdp_target",
]

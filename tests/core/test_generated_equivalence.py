"""Generated equivalence of the decision epoch's fast paths.

The grouped ``HierarchicalQNetwork.train_step`` (one stable sort by
action group, one product per group span) and the batched ``predict``
must match the per-group loop references in ``tests/helpers.py`` bit
for bit on any geometry, and the broker's exploration-first ε-greedy
choice must make the generator draws of the one-call
``epsilon_greedy_choice`` oracle. Hypothesis draws the cases with a
fixed seed (``derandomize``), so the suite is repeatable; assertions
use ``array_equal`` and ``==``, never a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.global_tier as global_tier
from repro.core.baselines import AlwaysOnPolicy
from repro.core.config import GlobalTierConfig
from repro.core.global_tier import DRLGlobalBroker
from repro.core.qnetwork import HierarchicalQNetwork
from repro.core.state import StateEncoder
from repro.rl.policies import explore_draw, greedy_pick
from repro.sim.engine import build_simulation
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace
from tests.helpers import epsilon_greedy_choice, predict_loop, train_step_loop

STEPS = 50


@st.composite
def training_cases(draw):
    num_groups = draw(st.integers(1, 4))
    group_size = draw(st.integers(1, 5))
    # The groups actions may fall in: a non-empty subset, so that the
    # other groups' spans stay empty.
    live = draw(
        st.lists(
            st.integers(0, num_groups - 1), min_size=1, max_size=num_groups, unique=True
        )
    )
    return dict(
        num_groups=num_groups,
        group_size=group_size,
        batch=draw(st.integers(1, 64)),
        live=sorted(live),
        huber_delta=draw(st.sampled_from([None, 1.0])),
        # 0.05 clips nearly every step, 10.0 rarely, None never.
        max_grad_norm=draw(st.sampled_from([None, 10.0, 0.05])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=training_cases())
def test_train_step_and_predict_match_the_loop_reference(case):
    num_groups, group_size = case["num_groups"], case["group_size"]
    encoder = StateEncoder(num_groups * group_size, num_groups=num_groups)
    fast = HierarchicalQNetwork(
        encoder,
        autoencoder_hidden=(6, 3),
        subq_hidden=(8,),
        rng=np.random.default_rng(case["seed"]),
    )
    loop = fast.clone()
    fast_opt, loop_opt = fast.make_optimizer(lr=3e-3), loop.make_optimizer(lr=3e-3)
    rng = np.random.default_rng(case["seed"])
    live = np.array(case["live"])
    for _ in range(STEPS):
        n = case["batch"]
        states = rng.uniform(0.0, 1.0, size=(n, encoder.state_dim))
        groups = live[rng.integers(live.size, size=n)]
        actions = groups * group_size + rng.integers(group_size, size=n)
        targets = rng.normal(scale=3.0, size=n)
        kwargs = dict(
            max_grad_norm=case["max_grad_norm"], huber_delta=case["huber_delta"]
        )
        fast_loss = fast.train_step(states, actions, targets, fast_opt, **kwargs)
        loop_loss = train_step_loop(loop, states, actions, targets, loop_opt, **kwargs)
        assert fast_loss == loop_loss
    assert fast_opt._t == loop_opt._t == STEPS
    for mine, theirs in zip(fast.parameters(), loop.parameters()):
        assert np.array_equal(mine.value, theirs.value), mine.name
    assert np.array_equal(fast_opt._m, loop_opt._m)
    assert np.array_equal(fast_opt._v, loop_opt._v)
    for n in (1, 32):
        states = rng.uniform(0.0, 1.0, size=(n, encoder.state_dim))
        assert np.array_equal(fast.predict(states), predict_loop(fast, states))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_actions=st.integers(1, 12),
    levels=st.integers(1, 4),
)
def test_exploration_first_draws_like_the_one_call_choice(seed, num_actions, levels):
    # Few distinct Q levels, so ties at the maximum are common; epsilon
    # spans [0, 1], both ends included.
    values = np.random.default_rng(seed + 1)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2000):
        q = values.integers(levels, size=num_actions).astype(np.float64)
        epsilon = float(values.choice([0.0, 1.0, values.uniform()]))
        action = explore_draw(epsilon, num_actions, rng)
        if action is None:
            action = greedy_pick(q, rng)
        assert action == epsilon_greedy_choice(q, epsilon, oracle)
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_exploring_arrivals_never_evaluate_q(monkeypatch):
    # A learning broker at ε = 0.5 through 300 arrivals: every Q
    # evaluation must follow a tails exploration coin, and every tails
    # coin must be followed by exactly one.
    events = []

    def recording_explore(epsilon, n_actions, rng):
        action = explore_draw(epsilon, n_actions, rng)
        events.append("explore" if action is not None else "greedy")
        return action

    monkeypatch.setattr(global_tier, "explore_draw", recording_explore)
    broker = DRLGlobalBroker(
        StateEncoder(6, num_groups=3),
        GlobalTierConfig(
            num_groups=3, epsilon_start=0.5, epsilon_decay=1.0, batch_size=16
        ),
        rng=np.random.default_rng(0),
    )
    q_values = broker.qnet.q_values

    def counting_q_values(state):
        events.append("q")
        return q_values(state)

    broker.qnet.q_values = counting_q_values
    jobs = generate_trace(SyntheticTraceConfig(n_jobs=300, horizon=6000.0), seed=0)
    build_simulation(6, broker, AlwaysOnPolicy(), initially_on=True).run(jobs)

    assert events.count("explore") > 50 and events.count("greedy") > 50
    assert events.count("q") == events.count("greedy")
    for coin, after in zip(events, events[1:] + ["end"]):
        if coin == "explore":
            assert after != "q"
        elif coin == "greedy":
            assert after == "q"

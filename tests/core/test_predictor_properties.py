"""Property-based tests (hypothesis) for predictor transforms and
SMDP reward math."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GlobalTierConfig, PredictorConfig
from repro.core.predictor import WorkloadPredictor
from repro.core.rewards import (
    GlobalRewardWeights,
    global_reward_rate,
    local_reward_rate,
)
from repro.rl.smdp import smdp_discounted_reward, smdp_target

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(seconds=st.floats(min_value=1.0, max_value=3600.0))
def test_transform_roundtrip_within_bounds(seconds):
    predictor = WorkloadPredictor(PredictorConfig(), rng=np.random.default_rng(0))
    value = predictor.transform(np.array([seconds]))
    back = predictor.inverse_transform(value)
    assert np.isclose(back[0], seconds, rtol=1e-9)
    assert 0.0 <= value[0] <= 1.0


@settings(max_examples=100, deadline=None)
@given(seconds=st.floats(min_value=1e-6, max_value=1e9))
def test_categorize_total_and_monotone(seconds):
    predictor = WorkloadPredictor(
        PredictorConfig(n_categories=5), rng=np.random.default_rng(0)
    )
    cat = predictor.categorize(seconds)
    assert 0 <= cat < 5
    # Monotonicity: a strictly larger input never gets a smaller category.
    assert predictor.categorize(seconds * 2.0) >= cat


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(min_value=-100.0, max_value=0.0),
    tau=st.floats(min_value=0.0, max_value=1e5),
    beta=st.floats(min_value=0.0, max_value=2.0),
)
def test_discounted_reward_sign_and_bound(rate, tau, beta):
    disc = smdp_discounted_reward(rate, tau, beta)
    assert disc <= 1e-12  # non-positive rates stay non-positive
    if beta > 0:
        # |(1-e^{-beta tau})/beta * r| <= |r|/beta
        assert abs(disc) <= abs(rate) / beta + 1e-9
    else:
        assert disc == rate * tau


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(min_value=-10.0, max_value=10.0),
    tau=st.floats(min_value=0.0, max_value=100.0),
    beta=st.floats(min_value=0.001, max_value=1.0),
    q1=st.floats(min_value=-50.0, max_value=50.0),
    q2=st.floats(min_value=-50.0, max_value=50.0),
)
def test_target_monotone_in_next_q(rate, tau, beta, q1, q2):
    lo, hi = min(q1, q2), max(q1, q2)
    assert smdp_target(rate, tau, beta, lo) <= smdp_target(rate, tau, beta, hi) + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    energy=st.floats(min_value=0.0, max_value=1e7),
    vms=st.floats(min_value=0.0, max_value=1e6),
    overload=st.floats(min_value=0.0, max_value=1e4),
    tau=st.floats(min_value=1e-3, max_value=1e5),
)
def test_global_reward_rate_non_positive(energy, vms, overload, tau):
    tier = GlobalTierConfig()
    weights = GlobalRewardWeights(tier.w_power, tier.w_vms, tier.w_reliability)
    rate = global_reward_rate(weights, energy, vms, overload, tau)
    assert rate <= 0.0


@settings(max_examples=100, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    energy=st.floats(min_value=0.0, max_value=1e6),
    queue=st.floats(min_value=0.0, max_value=1e6),
    tau=st.floats(min_value=1e-3, max_value=1e5),
)
def test_local_reward_rate_non_positive_and_monotone_in_energy(w, energy, queue, tau):
    rate = local_reward_rate(w, energy, queue, tau, power_scale=145.0)
    assert rate <= 0.0
    more = local_reward_rate(w, energy * 2 + 1.0, queue, tau, power_scale=145.0)
    if w > 0:
        assert more <= rate + 1e-12

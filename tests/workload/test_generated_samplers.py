"""Generated equivalence of the trace samplers' fast paths.

``generate_trace``, ``correlated_traces`` and ``flash_crowd_jobs`` draw
the thinning coin with ``random()``, divide out the mean gap once and
build their jobs from ``tolist()`` columns. The oracles in
``tests/helpers.py`` keep the ``uniform()`` coin, the per-candidate
``1.0 / lam_max`` and one ``float()`` per array element. On any config
both must make the same draws: arrivals ``array_equal``, every job equal
field for field (``repr`` of the dataclass tuple, which is exact for
doubles and tells a ``float`` from a numpy scalar), and the generator
left in the same state. Hypothesis draws the cases with a fixed seed
(``derandomize``), so the suite is repeatable.
"""

import math
from dataclasses import astuple, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.mixtures import (
    _sample_coupled_arrivals,
    correlated_traces,
    flash_crowd_jobs,
    sample_burst_windows,
)
from repro.workload.synthetic import (
    SyntheticTraceConfig,
    _sample_arrivals,
    generate_trace,
)
from tests.helpers import (
    sample_arrivals_loop,
    sample_coupled_arrivals_loop,
    sampler_oracles,
)

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def trace_configs(draw, n_jobs=st.integers(1, 500)):
    n = draw(n_jobs)
    return SyntheticTraceConfig(
        n_jobs=n,
        # Mean gaps from 5 s to 10 min: the shortest traces stay inside
        # one burst window, the longest span several days.
        horizon=n * draw(st.floats(5.0, 600.0)),
        diurnal_amplitude=draw(st.floats(0.0, 0.9)),
        burst_rate_multiplier=draw(st.floats(1.0, 5.0)),
        burst_on_mean=draw(st.floats(10.0, 3_600.0)),
        burst_off_mean=draw(st.floats(10.0, 14_400.0)),
    )


def same_jobs(got, want) -> bool:
    return [repr(astuple(job)) for job in got] == [repr(astuple(job)) for job in want]


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    config=trace_configs(),
    seed=SEEDS,
    start_id=st.integers(0, 10_000),
    crowd=st.tuples(st.floats(0.0, 0.99), st.floats(0.01, 1.0), st.floats(1.01, 5.0)),
)
def test_single_stream_and_flash_crowd_match_the_oracles(config, seed, start_id, crowd):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(
        _sample_arrivals(config, fast), sample_arrivals_loop(config, slow)
    )
    assert same_state(fast, slow)

    jobs = generate_trace(config, fast, start_id)
    with sampler_oracles():
        expected = generate_trace(config, slow, start_id)
    assert len(jobs) == config.n_jobs
    assert same_jobs(jobs, expected)
    assert same_state(fast, slow)

    start_frac, dur_frac, mult = crowd
    window = dict(
        start=start_frac * config.horizon,
        duration=dur_frac * config.horizon,
        rate_multiplier=mult,
    )
    extra = flash_crowd_jobs(config, rng=fast, **window)
    with sampler_oracles():
        expected = flash_crowd_jobs(config, rng=slow, **window)
    assert same_jobs(extra, expected)
    assert same_state(fast, slow)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    clusters=st.lists(
        st.tuples(trace_configs(n_jobs=st.just(1)), st.integers(1, 500)),
        min_size=1,
        max_size=3,
    ),
    coupling=st.sampled_from([0.0, 0.5, 1.0]),
    horizon=st.floats(3_600.0, 300_000.0),
    seed=SEEDS,
)
def test_correlated_traces_match_the_oracles(clusters, coupling, horizon, seed):
    traces = correlated_traces(clusters, horizon, seed=seed, coupling=coupling)
    with sampler_oracles():
        expected = correlated_traces(clusters, horizon, seed=seed, coupling=coupling)
    assert [len(trace) for trace in traces] == [n for _, n in clusters]
    for got, want in zip(traces, expected, strict=True):
        assert same_jobs(got, want)

    # The sampler alone, on generated burst chains and duty.
    config = replace(clusters[0][0], n_jobs=clusters[0][1], horizon=horizon)
    chains = np.random.default_rng(seed)
    args = (
        chains.uniform(0.0, 2.0 * math.pi),
        sample_burst_windows(config, horizon, chains),
        chains.random(),
        sample_burst_windows(config, horizon, chains),
        coupling,
    )
    fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert np.array_equal(
        _sample_coupled_arrivals(config, fast, *args),
        sample_coupled_arrivals_loop(config, slow, *args),
    )
    assert same_state(fast, slow)

"""The allocation-free settle step against the one it replaced.

Every arrival and completion integrates the site's ledger up to the
event (``ClusterLedger.sync``), and every completion may record the
site's energy total (``MetricsCollector.on_completion``). The shipped
step writes into preallocated scratch arrays and reads the energy only
when a series point or a tariff interval uses it. The oracle in
``tests/helpers.py`` (``settle_oracles``) builds a fresh array per
step, has the finish handler sum the energy at every completion, and
re-reads the power state through ``current_power()``. Both must give
the same bits.
"""

import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    FixedTimeoutPolicy,
    ImmediateSleepPolicy,
    PackingBroker,
    RoundRobinBroker,
)
from repro.core.federation import FederationStateView
from repro.faults.plan import build_site_plan
from repro.faults.spec import FaultSpec
from repro.sim.federation import build_federation
from repro.sim.job import Job
from repro.sim.ledger import _EPS, ClusterLedger
from repro.sim.power import TariffModel
from tests.helpers import ledger_sync_temporaries, settle_oracles

SERVERS = 3
TARIFF = TariffModel(
    price=0.10,
    carbon=300.0,
    price_windows=((100.0, 400.0, 0.35),),
    carbon_windows=((250.0, 500.0, 650.0),),
    period=600.0,
)
FAULTS = FaultSpec(
    crashes_per_server=1.0,
    crash_recovery_fraction=0.05,
    job_failure_prob=0.2,
    straggler_prob=0.2,
    straggler_factor=2.0,
    max_retries=2,
    retry_backoff_s=5.0,
)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def fleets(draw, max_jobs=40):
    """One or two sites' home streams, job ids unique across the fleet."""
    streams = []
    for site in range(draw(st.integers(min_value=1, max_value=2))):
        n = draw(st.integers(min_value=1, max_value=max_jobs))
        arrivals = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1200.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        jobs = [
            Job(
                site * max_jobs + i,
                arrival,
                draw(st.floats(min_value=0.5, max_value=250.0)),
                (draw(st.floats(min_value=0.05, max_value=0.95)), 0.1, 0.1),
            )
            for i, arrival in enumerate(arrivals)
        ]
        streams.append(jobs)
    return streams


def run(streams, record_every, tariff, faults, seed):
    """A fleet of one or two sites: round-robin under immediate sleep,
    then packing under a 20 s timeout."""
    n_sites = len(streams)
    plans = [build_site_plan(FAULTS, SERVERS, 1200.0, seed + i) for i in range(n_sites)]
    engine = build_federation(
        [
            dict(
                name=f"s{i}",
                num_servers=SERVERS,
                broker=PackingBroker() if i else RoundRobinBroker(),
                policies=FixedTimeoutPolicy(20.0) if i else ImmediateSleepPolicy(),
                record_every=record_every,
                tariff=tariff,
            )
            for i in range(n_sites)
        ],
        faults=plans if faults else None,
    )
    result = engine.run([[job.copy() for job in stream] for stream in streams])
    sites = [
        (
            series_bits(site.metrics.series),
            bits([site.metrics.acc_cost_usd, site.metrics.acc_co2_g]),
            bits(site.cluster.ledger.integrals),
            bits(site.cluster.ledger.last_account),
            site.metrics.n_completed,
            site.metrics.n_failed,
        )
        for site in result.sites
    ]
    return sites, series_bits(result.fleet_series)


def series_bits(series) -> bytes:
    return bits([astuple(point) for point in series])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    streams=fleets(),
    every=st.sampled_from([1, 7, 100, "more"]),
    tariff=st.booleans(),
    faults=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_runs_match_the_settle_oracle_bit_for_bit(streams, every, tariff, faults, seed):
    # "more": one sample more than any site completes, so only the
    # first completion and the close record a point.
    record_every = sum(map(len, streams)) + 1 if every == "more" else every
    args = (streams, record_every, TARIFF if tariff else None, faults, seed)
    shipped = run(*args)
    with settle_oracles():
        oracle = run(*args)
    assert shipped == oracle


STEPS = ("advance", "same", "wobble", "back", "rates", "stamp")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=7),
    steps=st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.floats(min_value=0.0, max_value=500.0),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sync_matches_the_temporaries_oracle(m, steps, seed):
    """Twin ledgers see the same rates, stamps and clock steps, including
    steps back inside ``_EPS`` (clamped: nothing accrues) and beyond it
    (the same error, and neither ledger touched)."""
    rng = np.random.default_rng(seed)
    mine, oracle = ClusterLedger(m, 3), ClusterLedger(m, 3)
    now = 0.0
    for step, size, row in steps:
        if step == "rates":
            fresh = rng.uniform(0.0, 250.0, size=mine.rates.shape)
            fresh[:, rng.random(m) < 0.2] = 0.0
            mine.rates[:] = oracle.rates[:] = fresh
            continue
        if step == "stamp":
            # One server accounted on its own, a little ahead of the
            # others, within the tolerance or beyond it.
            ahead = (0.5 if size < 250.0 else 4.0) * _EPS
            mine.last_account[row % m] = oracle.last_account[row % m] = now + ahead
            continue
        if step == "advance":
            now += size
        t = {"wobble": now - 0.5 * _EPS, "back": now - 4.0 * _EPS}.get(step, now)
        before = bits(mine.integrals), bits(mine.last_account)
        try:
            ledger_sync_temporaries(oracle, t)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                mine.sync(t)
            assert (bits(mine.integrals), bits(mine.last_account)) == before
        else:
            mine.sync(t)
        assert bits(mine.integrals) == bits(oracle.integrals)
        assert bits(mine.last_account) == bits(oracle.last_account)


# Sizes around numpy's pairwise-summation thresholds (8 and 128).
SIZES = (1, 2, 7, 8, 9, 16, 127, 128, 129, 300)


def random_fill(rng, array):
    # Magnitudes over nine decades, so that summation order shows.
    scale = 10.0 ** rng.uniform(-3.0, 6.0, array.shape)
    array[...] = rng.uniform(0.0, 1.0, array.shape) * scale


def test_reductions_are_the_sums_and_means_they_replace():
    """``np.add.reduce`` (and a division by the count) against
    ``ndarray.sum``/``.mean``, on 2,000 random ledgers."""
    engine = build_federation(
        [
            dict(
                num_servers=m,
                broker=RoundRobinBroker(),
                policies=ImmediateSleepPolicy(),
            )
            for m in SIZES
        ]
    )
    sites = engine.sites
    view = FederationStateView(sites)
    rng = np.random.default_rng(0)
    for _ in range(2000 // len(SIZES)):
        for site in sites:
            cluster, ledger = site.cluster, site.cluster.ledger
            for array in (ledger.integrals, ledger.rates, ledger.util, ledger.on):
                random_fill(rng, array)
            ledger.in_system[:] = rng.integers(0, 50, len(cluster))
            shipped = (
                cluster.total_energy(),
                cluster.system_integral(),
                cluster.overload_integral(),
            )
            summed = (
                ledger.energy.sum(),
                ledger.system_int.sum(),
                ledger.overload_int.sum(),
            )
            assert bits(shipped) == bits(summed)
            assert cluster.jobs_in_system() == int(ledger.in_system.sum())
        util, on, queue = view.state_views()
        for i, site in enumerate(sites):
            ledger = site.cluster.ledger
            assert bits(util[i]) == bits(ledger.util[:, :3].mean(axis=0))
            assert bits(on[i]) == bits(ledger.on.mean())
            assert bits(queue[i]) == bits(ledger.queue.sum())

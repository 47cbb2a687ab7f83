"""Exactness pins for the ledger's vectorized integration.

:meth:`~repro.sim.ledger.ClusterLedger.sync` advances all four time
integrals of every server with one broadcast multiply-add over the
``(4, M)`` rate and integral matrices; ``Server.account`` advances one
row with scalar arithmetic. Both must perform the same IEEE-754
operations per element, so over any schedule that accounts each row at
the same instants the integrals are equal bit for bit, not merely close.
"""

import numpy as np
import pytest

from repro.core.baselines import AlwaysOnPolicy
from repro.sim.events import EventQueue
from repro.sim.ledger import _EPS, INTEGRALS, RATES, ClusterLedger
from repro.sim.power import PowerModel
from repro.sim.server import Server

M = 6
R = len(RATES)


def ledger_with_servers(m=M):
    ledger = ClusterLedger(m, 3)
    events, policy = EventQueue(), AlwaysOnPolicy()
    servers = [
        Server(i, PowerModel(), events, policy, ledger=ledger, ledger_index=i)
        for i in range(m)
    ]
    return ledger, servers


def test_each_rate_row_integrates_into_its_named_integral():
    ledger, _ = ledger_with_servers()
    assert RATES == ("power", "queue", "in_system", "overload_excess")
    assert INTEGRALS == ("energy", "queue_int", "system_int", "overload_int")
    ledger.rates[:] = np.arange(1.0, R * M + 1.0).reshape(R, M)
    ledger.sync(10.0)
    for rate, integral in zip(RATES, INTEGRALS):
        assert np.array_equal(getattr(ledger, integral), 10.0 * getattr(ledger, rate))
        assert np.shares_memory(getattr(ledger, rate), ledger.rates)
        assert np.shares_memory(getattr(ledger, integral), ledger.integrals)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sync_matches_per_row_account_bit_for_bit(seed):
    # Two ledgers replay one schedule of rate changes and accounting
    # instants. The reference accounts every row with the scalar
    # per-server path; the other uses ``sync`` wherever the schedule
    # says "all rows", so each row is integrated over the same intervals
    # on both sides.
    rng = np.random.default_rng(seed)
    ref, ref_servers = ledger_with_servers()
    vec, vec_servers = ledger_with_servers()
    rates = rng.uniform(0.0, 250.0, size=(R, M))
    ref.rates[:] = rates
    vec.rates[:] = rates
    now = 0.0
    for _ in range(400):
        step = rng.random()
        if step > 0.2:
            now += float(rng.exponential(37.0))
        # Otherwise the same instant again (dt == 0), sometimes with a
        # backward wobble smaller than the tolerance.
        t = now - 0.5 * _EPS if step < 0.05 else now
        if rng.random() < 0.5:
            for server in ref_servers:
                server.account(t)
            vec.sync(t)
        else:
            size = int(rng.integers(1, M + 1))
            rows = rng.choice(M, size=size, replace=False)
            for i in rows:
                ref_servers[i].account(t)
                vec_servers[i].account(t)
            # A change point: the accounted rows get new rates.
            fresh = rng.uniform(0.0, 250.0, size=(R, size))
            fresh[:, rng.random(size) < 0.2] = 0.0
            ref.rates[:, rows] = fresh
            vec.rates[:, rows] = fresh
    for server in ref_servers:
        server.account(now + 1.0)
    vec.sync(now + 1.0)
    assert np.array_equal(ref.integrals, vec.integrals)
    assert np.array_equal(ref.last_account, vec.last_account)


class TestBackwardClock:
    def test_sync_names_first_offending_server_and_touches_nothing(self):
        ledger, servers = ledger_with_servers()
        ledger.rates[:] = np.arange(1.0, R * M + 1.0).reshape(R, M)
        ledger.sync(100.0)
        servers[4].account(170.0)
        servers[2].account(150.0)
        servers[1].account(120.0 + 0.5 * _EPS)  # within tolerance: no error
        integrals = ledger.integrals.copy()
        stamps = ledger.last_account.copy()
        with pytest.raises(
            RuntimeError,
            match=r"^server 2: accounting time went backwards \(120\.0 < 150\.0\)",
        ):
            ledger.sync(120.0)
        assert np.array_equal(ledger.integrals, integrals)
        assert np.array_equal(ledger.last_account, stamps)

    def test_account_names_its_server_and_touches_nothing(self):
        ledger, servers = ledger_with_servers()
        ledger.rates[:] = 3.0
        servers[3].account(80.0)
        integrals = ledger.integrals.copy()
        stamps = ledger.last_account.copy()
        with pytest.raises(
            RuntimeError,
            match=r"^server 3: accounting time went backwards \(79\.0 < 80\.0\)",
        ):
            servers[3].account(79.0)
        assert np.array_equal(ledger.integrals, integrals)
        assert np.array_equal(ledger.last_account, stamps)

    @pytest.mark.parametrize("ahead, raises", [(0.5 * _EPS, False), (4 * _EPS, True)])
    def test_both_paths_share_the_tolerance(self, ahead, raises):
        ledger, servers = ledger_with_servers(1)
        for call in (ledger.sync, servers[0].account):
            servers[0].account(10.0 + ahead)
            if raises:
                with pytest.raises(RuntimeError, match="backwards"):
                    call(10.0)
            else:
                call(10.0)

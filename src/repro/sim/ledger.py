"""Contiguous per-server simulation state (struct-of-arrays).

The ledger holds every per-server observable and exact time integral the
simulator maintains — utilization, power state, queue depth, power draw,
and the energy / jobs-in-system / overload integrals — as ``(M, ...)``
arrays shared by the cluster and its servers. Servers update their own
row scalar-wise at their change points (assign / start / finish / sleep /
wake), while cluster-wide operations become single vector expressions:

* the four integrated rates are the rows of one ``(4, M)`` matrix,
  ``rates`` (row order :data:`RATES`), and their time integrals the
  matching rows of ``integrals`` (:data:`INTEGRALS`), so
  :meth:`ClusterLedger.sync` integrates *all* servers to ``now`` with
  one broadcast multiply-add, ``integrals += rates * dt``, instead of an
  O(M) Python loop of per-server ``account`` calls, written through two
  preallocated scratch arrays so a sync allocates nothing;
* aggregate reads (total energy, VM-seconds, overload) are
  ``np.add.reduce`` reductions, the ones ``ndarray.sum`` makes;
* the DRL state encoder consumes the utilization / power-state / queue
  arrays by slicing, with no per-server object traversal.

Element-wise, the vectorized integration performs exactly the arithmetic
of the scalar per-server path (``integral[i] += rate[i] * dt[i]``), so
incrementally-maintained values match a recompute from the per-server
change-point accounting.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-9

#: Rows of ``ClusterLedger.rates`` and, in the same order, of the time
#: integrals ``ClusterLedger.integrals``; each name is a view of its row.
RATES = ("power", "queue", "in_system", "overload_excess")
INTEGRALS = ("energy", "queue_int", "system_int", "overload_int")


class ClusterLedger:
    """Array-backed state for ``num_servers`` servers.

    Observables (maintained by each server's ``_refresh`` at every change
    point; rates in effect since ``last_account``):

    - ``util`` — ``(M, D)`` resources in use (servers' ``used`` rows are
      views into this matrix);
    - ``on`` — 1.0 where the server can execute (ACTIVE or IDLE);
    - ``queue`` / ``in_system`` — waiting and waiting+running job counts;
    - ``power`` — instantaneous draw in watts;
    - ``overload_excess`` — ``max(0, cpu - threshold)``, where ``cpu``
      is the CPU utilization while ACTIVE and 0 otherwise.

    Exact time integrals (advanced by ``account``/:meth:`sync`):
    ``energy``, ``queue_int``, ``system_int``, ``overload_int``, with
    per-server ``last_account`` stamps. The rates are the rows of the
    ``(4, M)`` matrix ``rates`` and the integrals those of
    ``integrals`` (orders :data:`RATES` and :data:`INTEGRALS`); each
    named array above is a view of its row.
    """

    __slots__ = (
        "util",
        "on",
        "last_account",
        "rates",
        "integrals",
        "_dt",
        "_step",
        *RATES,
        *INTEGRALS,
    )

    def __init__(self, num_servers: int, num_resources: int) -> None:
        m = int(num_servers)
        self.util = np.zeros((m, int(num_resources)))
        self.on = np.zeros(m)
        self.last_account = np.zeros(m)
        self.rates = np.zeros((len(RATES), m))
        self.integrals = np.zeros((len(INTEGRALS), m))
        # Scratch for sync: each server's elapsed time, and the integrals'
        # increments over it.
        self._dt = np.empty(m)
        self._step = np.empty_like(self.rates)
        for name, row in zip(RATES + INTEGRALS, (*self.rates, *self.integrals)):
            setattr(self, name, row)

    def sync(self, now: float) -> None:
        """Integrate every server's time metrics up to ``now`` at once.

        Raises
        ------
        RuntimeError
            If any server's accounting clock is ahead of ``now``; no
            integral is touched then.
        """
        dt = np.subtract(now, self.last_account, out=self._dt)
        if np.minimum.reduce(dt) < -_EPS:
            bad = int(np.flatnonzero(dt < -_EPS)[0])
            raise RuntimeError(
                f"server {bad}: accounting time went backwards "
                f"({now} < {self.last_account[bad]})"
            )
        np.maximum(dt, 0.0, out=dt)
        self.integrals += np.multiply(self.rates, dt, out=self._step)
        self.last_account.fill(now)

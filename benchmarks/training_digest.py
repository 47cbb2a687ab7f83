"""Training- and trace-identity digests: one SHA-256 per training, per
builtin scenario's job streams and for Table I's traces.

perfbench's output digest hashes the simulated energy and latency series,
so a change to how a network learns can leave it unchanged (doubling
Adam's ``eps`` moves no digest of paper-table1 or drl-online). This
script runs three trainings and hashes everything each one leaves
behind: for every DRL broker built during it, the Q-network's weights,
ε, the loss history and the final state of its generator; for every
Adam built during it, the parameter values and the update one more step
would make, which depends on both moments and the step count; and for
the site policy, its stored Q-network and LSTM weights.

perfbench's digests see only the seed-0 evaluation streams its
workloads simulate, and no training segment of a multi-site scenario.
So the script also hashes every job (id, arrival, duration, demands) of
each builtin scenario's evaluation and training streams at seeds 0-2
and 400 jobs (``build_site_traces``), one line per scenario, and of
Table I's ``make_traces`` at M=30 and M=40 over the same seeds, one
line (``trace:table1``).

The trainings:

* ``drl-online`` — perfbench's drl-online broker shape (M=30, K=3,
  ``ImmediateSleepPolicy``) learning online through 600 jobs;
* ``site-policy`` — :func:`~repro.harness.runner.train_site_policy` with
  the LSTM predictor at M=30 on ``make_traces(150, 30, 0)``;
* ``federation`` — a :class:`~repro.core.federation.DRLFederationBroker`
  dispatching over two 10-server sites, built by ``build_federation``.

Two checkouts that train and sample bit for bit alike print the same
lines. Run it with one BLAS thread, as perfbench runs its children, once
per ``src/``::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/training_digest.py

The script runs against an older ``src/`` too, so it reads public names
only. A change that renames one of them keeps this script working on
the ``src/`` before the rename (for one change, look the old name up as
a fallback) rather than lifting the guard.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import replace
from typing import Callable, Iterator

import numpy as np

from repro.core.baselines import ImmediateSleepPolicy, RoundRobinBroker
from repro.core.config import GlobalTierConfig
from repro.core.federation import DRLFederationBroker
from repro.core.global_tier import DRLGlobalBroker
from repro.core.state import StateEncoder
from repro.harness.runner import train_site_policy
from repro.harness.table1 import default_config, make_traces
from repro.nn.optim import Adam
from repro.scenarios import registry
from repro.sim.engine import build_simulation
from repro.sim.federation import build_federation
from repro.workload.synthetic import (
    SyntheticTraceConfig,
    generate_trace,
    reference_rate,
)


@contextlib.contextmanager
def recorded(*classes: type) -> Iterator[dict[type, list]]:
    """Every instance of each class constructed inside the block, in order."""
    made: dict[type, list] = {cls: [] for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def recording(cls: type) -> Callable:
        original = originals[cls]

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            made[cls].append(self)

        return __init__

    for cls in classes:
        cls.__init__ = recording(cls)
    try:
        yield made
    finally:
        for cls, original in originals.items():
            cls.__init__ = original


class Digest:
    """SHA-256 over a sequence of arrays and plain JSON values."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            self._hash.update(f"{value.dtype}{value.shape}".encode())
            self._hash.update(np.ascontiguousarray(value).tobytes())
        else:
            self._hash.update(json.dumps(value, sort_keys=True).encode())

    def add_state(self, state: dict[str, np.ndarray] | None) -> None:
        for key, value in (state or {}).items():
            self.add(key)
            self.add(value)

    def add_training(self, made: dict[type, list]) -> None:
        for broker in made[DRLGlobalBroker]:
            self.add_state(broker.qnet.state_dict())
            self.add(float(broker.epsilon))
            self.add([float(loss) for loss in broker.loss_history])
            self.add(broker.rng.bit_generator.state)
        for optimizer in made[Adam]:
            self.add(optimizer.values)
            # One more step with a zero gradient from zero values leaves
            # exactly minus the update the moments and step count make.
            optimizer.grads.fill(0.0)
            optimizer.values.fill(0.0)
            optimizer.step()
            self.add(optimizer.values)

    def add_jobs(self, jobs) -> None:
        self.add(np.array([job.job_id for job in jobs], dtype=np.int64))
        self.add(
            np.array(
                [(job.arrival_time, job.duration, *job.resources) for job in jobs],
                dtype=np.float64,
            )
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def drl_online(n_jobs: int = 600, seed: int = 0) -> str:
    """perfbench's drl-online broker, learning through ``n_jobs`` arrivals."""
    trace_ss, agent_ss = np.random.SeedSequence(seed).spawn(2)
    config = replace(
        SyntheticTraceConfig(), n_jobs=n_jobs, horizon=n_jobs / reference_rate(30)
    )
    jobs = generate_trace(config, seed=np.random.default_rng(trace_ss))
    digest = Digest()
    with recorded(DRLGlobalBroker, Adam) as made:
        broker = DRLGlobalBroker(
            StateEncoder(30, num_groups=3),
            GlobalTierConfig(num_groups=3),
            rng=np.random.default_rng(agent_ss),
        )
        build_simulation(30, broker, ImmediateSleepPolicy()).run(jobs)
    digest.add_training(made)
    return digest.hexdigest()


def site_policy(n_jobs: int = 150, seed: int = 0) -> str:
    """One site's trained controllers, LSTM predictor included."""
    _, train_traces = make_traces(n_jobs, 30, seed)
    digest = Digest()
    with recorded(DRLGlobalBroker, Adam) as made:
        policy = train_site_policy(
            default_config(30, seed), train_traces, with_predictor=True
        )
    digest.add_state(policy.qnet_state)
    digest.add(float(policy.epsilon))
    digest.add_state(policy.predictor_state)
    digest.add(policy.predictor_fitted)
    digest.add_training(made)
    return digest.hexdigest()


def federation(n_jobs: int = 300, seed: int = 0) -> str:
    """A DRL dispatcher over two round-robin sites, learning online."""
    *site_ss, agent_ss = np.random.SeedSequence(seed).spawn(3)
    config = replace(
        SyntheticTraceConfig(), n_jobs=n_jobs, horizon=n_jobs / reference_rate(10)
    )
    streams, offset = [], 0
    for child in site_ss:
        stream = generate_trace(config, seed=np.random.default_rng(child))
        for job in stream:  # fleet-wide unique ids
            job.job_id += offset
        offset += len(stream)
        streams.append(stream)
    digest = Digest()
    with recorded(DRLGlobalBroker, Adam) as made:
        engine = build_federation(
            [
                dict(
                    num_servers=10,
                    broker=RoundRobinBroker(),
                    policies=ImmediateSleepPolicy(),
                )
                for _ in streams
            ],
            broker=DRLFederationBroker(
                len(streams), rng=np.random.default_rng(agent_ss)
            ),
        )
        engine.run(streams)
    digest.add_training(made)
    return digest.hexdigest()


TRAININGS = {
    "drl-online": drl_online,
    "site-policy": site_policy,
    "federation": federation,
}

#: Seeds and evaluation length of every hashed trace.
TRACE_SEEDS, TRACE_JOBS = (0, 1, 2), 400


def scenario_traces(spec) -> str:
    """A scenario's evaluation and training streams, every site's."""
    digest = Digest()
    for seed in TRACE_SEEDS:
        eval_streams, train_segments = spec.build_site_traces(TRACE_JOBS, seed)
        for stream in eval_streams:
            digest.add_jobs(stream)
        for segment in train_segments:
            for stream in segment:
                digest.add_jobs(stream)
    return digest.hexdigest()


def table1_traces() -> str:
    """Table I's evaluation traces and training segments at M=30 and 40."""
    digest = Digest()
    for num_servers in (30, 40):
        for seed in TRACE_SEEDS:
            eval_jobs, train_traces = make_traces(TRACE_JOBS, num_servers, seed)
            for stream in (eval_jobs, *train_traces):
                digest.add_jobs(stream)
    return digest.hexdigest()


def main() -> None:
    for name, training in TRAININGS.items():
        print(f"{name} {training()}", flush=True)
    for spec in registry.all_scenarios():
        print(f"trace:{spec.name} {scenario_traces(spec)}", flush=True)
    print(f"trace:table1 {table1_traces()}", flush=True)


if __name__ == "__main__":
    main()

"""Trace sharding: parallelize a *single* scenario cell.

The sweep orchestrator parallelizes across cells, but one large cell —
say a 100 k-job trace on one scenario × system — was still a serial
simulation. Sharding splits the cell's evaluation trace into contiguous
arrival segments, hands each segment to a worker carrying a copy of the
*same trained ("warm") system*, and recombines the per-shard metrics:

1. the system is built and trained once, in the parent (the expensive
   controllers — DRL global tier, local DPM learners — are warm);
2. the evaluation trace is cut at job-arrival boundaries into
   ``shards`` segments, each re-based to t = 0 (the warm handoff: every
   worker starts from the trained controller snapshot, not from an
   untrained one);
3. scheduled capacity-churn events are routed to the shard whose time
   window contains them, shifted into shard-local time;
4. shard metrics recombine additively (energy, accumulated latency,
   completions, span), exactly like the paper's independent weekly
   segments.

**Documented tolerance:** sharding is an approximation, not a bit-exact
decomposition. Each shard restarts servers in their initial power state,
resets in-flight queues, freezes online learning at the handoff snapshot
(shards do not see each other's updates), and — the dominant effect —
drains its own tail: jobs arriving near a shard's end still run to
completion, so every shard but conceptually the last adds up to one
drain window (bounded by the workload's duration cap, 2 h for the
paper's jobs) of extra simulated span and idle energy. Concretely:

* job counts and per-job latency aggregates are *exact* (every job
  completes exactly once, with its own queueing);
* intensive metrics (``average_power_w``, ``mean_latency_s``) recombine
  within :data:`SHARD_TOLERANCE` even for small shards;
* extensive span metrics (``energy_kwh``, ``energy_per_job_wh``,
  ``final_time_s``) carry an
  upward bias of at most ``(shards - 1) * T_drain`` seconds of idle
  burn. Size shards so each arrival window is several times the
  duration cap — ≥ ~2000 jobs/shard at the reference intensity — and
  they too land within :data:`SHARD_TOLERANCE` of the unsharded run.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.sim.churn import CapacityEvent
from repro.sim.job import Job
from repro.workload.segments import rebase

#: Relative tolerance of combined shard metrics vs the unsharded run.
SHARD_TOLERANCE = 0.15


def shard_trace(
    jobs: list[Job], shards: int
) -> tuple[list[list[Job]], list[float]]:
    """Cut a trace into ``shards`` contiguous arrival segments.

    Returns ``(segments, starts)``: each segment re-based to t = 0 with
    jobs renumbered from 0, plus the original start time of each segment
    (for routing absolute-time churn events). Segment sizes differ by at
    most one job; ``shards`` is clamped to the trace length.

    Raises
    ------
    ValueError
        If ``shards`` is not positive or ``jobs`` is empty.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if not jobs:
        raise ValueError("cannot shard an empty trace")
    ordered = sorted(jobs, key=lambda j: j.arrival_time)
    shards = min(shards, len(ordered))
    base, extra = divmod(len(ordered), shards)
    segments: list[list[Job]] = []
    starts: list[float] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        chunk = ordered[lo:hi]
        starts.append(chunk[0].arrival_time)
        segments.append(rebase(chunk))
        lo = hi
    return segments, starts


def shard_capacity_events(
    events: tuple[CapacityEvent, ...], starts: list[float]
) -> list[tuple[CapacityEvent, ...]]:
    """Route absolute-time churn events to their owning shard.

    An event belongs to the shard whose window ``[start_i, start_{i+1})``
    contains its start time, and is shifted into shard-local time. An
    event whose drain window crosses a shard boundary stays with the
    shard it starts in (its restore fires during that shard's drain-out).
    """
    routed: list[list[CapacityEvent]] = [[] for _ in starts]
    for event in events:
        i = max(bisect_right(starts, event.time) - 1, 0)
        shifted = CapacityEvent(
            time=max(event.time - starts[i], 0.0),
            server_id=event.server_id,
            duration=event.duration,
            fraction=event.fraction,
        )
        routed[i].append(shifted)
    return [tuple(evts) for evts in routed]


def _run_shard(args: tuple) -> dict:
    """Process-pool entry point: evaluate one warm system copy on a shard."""
    from repro.harness.runner import run_system

    system, shard_jobs, shard_events, record_every, tariff = args
    result = run_system(
        system,
        shard_jobs,
        record_every=record_every,
        capacity_events=shard_events,
        tariff=tariff,
    )
    return {
        "n_jobs_offered": len(shard_jobs),
        "n_jobs_completed": result.n_jobs,
        "energy_kwh": result.energy_kwh,
        "acc_latency_s": result.acc_latency,
        "final_time_s": result.final_time,
        "capacity_events": len(shard_events),
        "cost_usd": result.cost_usd,
        "co2_kg": result.co2_kg,
    }


def combine_shard_metrics(shard_results: list[dict]) -> dict:
    """Recombine additive per-shard metrics into one cell-level record.

    Energy, accumulated latency, completions, offered jobs, and the
    simulated span add; mean latency and average power are recomputed
    from the combined totals (3.6e6 J per kWh).
    """
    if not shard_results:
        raise ValueError("no shard results to combine")
    energy_kwh = sum(r["energy_kwh"] for r in shard_results)
    acc_latency = sum(r["acc_latency_s"] for r in shard_results)
    completed = sum(r["n_jobs_completed"] for r in shard_results)
    span = sum(r["final_time_s"] for r in shard_results)
    return {
        "n_jobs_offered": sum(r["n_jobs_offered"] for r in shard_results),
        "n_jobs_completed": completed,
        "energy_kwh": energy_kwh,
        "acc_latency_s": acc_latency,
        "mean_latency_s": acc_latency / completed if completed else 0.0,
        "average_power_w": energy_kwh * 3.6e6 / span if span > 0 else 0.0,
        "energy_per_job_wh": energy_kwh * 1000.0 / completed if completed else 0.0,
        "final_time_s": span,
        "capacity_events": sum(r["capacity_events"] for r in shard_results),
        "cost_usd": sum(r.get("cost_usd", 0.0) for r in shard_results),
        "co2_kg": sum(r.get("co2_kg", 0.0) for r in shard_results),
        "shards": len(shard_results),
    }


def check_shardable(spec) -> None:
    """Raise ValueError if ``spec``'s cells cannot be trace-sharded.

    Shards replay one cluster's trace without the scenario's fault plan
    or a federation tier, so federated and fault-injecting scenarios
    would silently run a different experiment.
    """
    if spec.is_federated:
        raise ValueError(
            f"scenario {spec.name!r} is federated; trace sharding does not "
            "compose with multi-site runs yet"
        )
    if spec.faults is not None and not spec.faults.is_null():
        raise ValueError(
            f"scenario {spec.name!r} injects faults; trace sharding does "
            "not compose with fault injection yet"
        )


def run_cell_sharded(
    scenario,
    system: str,
    n_jobs: int = 600,
    seed: int = 0,
    shards: int = 2,
    workers: int | None = None,
    record_every: int = 200,
    pretrain: bool = True,
    online_epochs: int = 1,
    local_epochs: int = 1,
    checkpoint=None,
) -> dict:
    """Run one (scenario, system, seed) cell with its trace sharded.

    Builds and trains the system once (through
    :func:`~repro.scenarios.federation.build_cell`, exactly like
    :func:`~repro.scenarios.orchestrator.run_cell`), then fans the
    evaluation shards over a process pool — each worker evaluating an
    identical warm copy of the trained system — and recombines metrics
    per :func:`combine_shard_metrics`, to within :data:`SHARD_TOLERANCE`
    of the unsharded cell.

    ``workers`` (at least 1) defaults to the detected CPU count (see
    :func:`~repro.scenarios.orchestrator.detected_cpus`). Shards run on
    the sweep's pool (:func:`~repro.scenarios.orchestrator._pool`): one
    worker evaluates them in this process, one after another, on the
    same pickled warm copies a process pool receives.

    ``checkpoint`` (a :class:`~repro.scenarios.checkpoints.PolicyCheckpoint`)
    composes warm starting with sharding: the in-parent training step is
    replaced by restoring the stored policy weights, so a big DRL cell
    pays neither training nor serial evaluation.

    Raises
    ------
    ValueError
        On a non-positive ``shards`` or ``workers``, or a scenario
        :func:`check_shardable` rejects.
    """
    from repro.scenarios import registry
    from repro.scenarios.federation import build_cell
    from repro.scenarios.orchestrator import _pool, _pool_workers, check_execution

    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    check_execution(workers)
    spec = registry.get(scenario) if isinstance(scenario, str) else scenario
    check_shardable(spec)
    (built,), _, (eval_jobs,) = build_cell(
        system,
        spec,
        n_jobs,
        seed=seed,
        pretrain=pretrain,
        online_epochs=online_epochs,
        local_epochs=local_epochs,
        checkpoint=checkpoint,
    )
    events = spec.capacity_events(spec.horizon_for(n_jobs))
    built.freeze()  # the warm handoff ships one fixed controller snapshot
    segments, starts = shard_trace(eval_jobs, shards)
    shard_events = shard_capacity_events(events, starts)
    # Shards run in shard-local time; shift the tariff so each still
    # reads prices/carbon at its absolute experiment time.
    tasks = [
        (
            built,
            seg,
            evts,
            record_every,
            spec.tariff.shifted(start) if spec.tariff is not None else None,
        )
        for seg, evts, start in zip(segments, shard_events, starts)
    ]

    # Every worker, this process included, receives a pickled copy of
    # the warm system, so every shard starts from the same snapshot.
    n_workers = _pool_workers(workers, len(tasks))
    with _pool(n_workers) as pool:
        shard_results = list(pool.map(_run_shard, tasks))

    combined = combine_shard_metrics(shard_results)
    combined.update(
        {
            "scenario": spec.name,
            "system": system,
            "seed": seed,
            "num_servers": spec.fleet.num_servers,
            "workers_used": n_workers,
        }
    )
    return combined

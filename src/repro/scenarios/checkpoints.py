"""Policy checkpoints: train a sweep cell's controllers once, reuse everywhere.

Table-1 style grids vary mostly *evaluation* knobs across their DRL
cells, yet the orchestrator used to retrain the global prototype (and the
LSTM predictor) inside every cell. This module factors the training out:

* :func:`training_request` — the *training-relevant* subset of a cell
  request: scenario content, seed, trace length, and the
  :class:`~repro.harness.runner.Protocol` fields that shape training
  (``pretrain``, ``online_epochs``). Evaluation-only parameters
  (``record_every``, ``local_epochs``, the system name) are
  deliberately excluded, so cells that differ only in how they are
  *evaluated* share one training key.
* :func:`train_policy` — reproduces exactly the training a cell would
  have done on its own (same :class:`~numpy.random.SeedSequence`
  derivation as :func:`~repro.scenarios.federation.build_cell`) and
  captures the result as a :class:`PolicyCheckpoint`: one
  :class:`~repro.harness.runner.SitePolicy` per site (one for a plain
  scenario), plus one for the DRL federation dispatcher when the
  scenario uses it. A ``SitePolicy`` is the object the paper harness
  keeps in memory; :func:`~repro.scenarios.federation.build_cell`
  builds warm systems from it the same way.
* :class:`CheckpointStore` — content-keyed ``.npz`` blobs under
  ``.repro-cache/checkpoints/``, atomic like the result store, with a
  schema gate so stale blobs are ignored rather than half-loaded.

The orchestrator composes these into train-once / evaluate-many: one
training per group of cells sharing a key, fanned over the worker pool,
then every evaluation cell warm-starts from the group's blob.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.harness.runner import (
    SWEEP_PROTOCOL,
    Protocol,
    SitePolicy,
    derive_cell_seeds,
    needs_global_tier,
    train_site_policy,
)
from repro.nn.serialize import load_states, save_states
from repro.obs import telemetry as obs
from repro.scenarios.federation import build_controllers, derive_site_seeds
from repro.scenarios.specs import ScenarioSpec
from repro.scenarios.store import ContentAddressedStore, content_key

logger = logging.getLogger(__name__)

#: Bump when the blob layout or warm-start semantics change; a blob
#: carrying any other version is ignored (treated as a miss) on read.
#: Version 2 stores every scenario in the per-site layout.
CHECKPOINT_SCHEMA_VERSION = 2

DEFAULT_CHECKPOINT_ROOT = Path(".repro-cache") / "checkpoints"


def training_request(
    spec: ScenarioSpec, n_jobs: int, seed: int, protocol: Protocol
) -> dict:
    """The content-keyed payload identifying one policy training.

    Contains everything that shapes the trained weights — and nothing
    else, so evaluation-only knobs never invalidate a checkpoint. Of the
    ``protocol`` that is ``pretrain`` and ``online_epochs``: a cell runs
    ``local_epochs`` itself, after loading the weights, and
    ``record_every`` only samples series. Note
    ``n_jobs`` *is* training-relevant: training segments are sized from
    the evaluation trace length. Tariffs are stripped — the scenario's
    and, for federated scenarios, each site's: electricity accounting is
    an evaluation-side lens over the same joules (training rewards never
    see prices, and tariff-greedy federation dispatchers carry no
    trained weights), so scenarios differing only in tariffs share one
    policy — while a trace-replay workload *does* change the key
    (different training segments) and can never collide with a synthetic
    scenario's checkpoints.
    """
    scenario = spec.content_dict()
    scenario.pop("tariff", None)
    for site in scenario.get("sites", ()):
        site.pop("tariff", None)
    return {
        "scenario": scenario,
        "seed": seed,
        "n_jobs": n_jobs,
        "pretrain": protocol.pretrain,
        "online_epochs": protocol.online_epochs,
    }


def needs_policy(spec: ScenarioSpec, system: str) -> bool:
    """Whether a (scenario, system) cell trains/loads any policy weights.

    True for DRL cluster-tier systems, and additionally for any system
    on a federated scenario whose federation tier is the learned DRL
    dispatcher (only federated specs may name a non-home policy).
    """
    return needs_global_tier(system) or spec.federation == "drl"


@dataclass
class PolicyCheckpoint:
    """Serialized controller weights for one training key.

    One :class:`~repro.harness.runner.SitePolicy` per site of
    :attr:`~repro.scenarios.specs.ScenarioSpec.site_specs` (one for a
    plain scenario) plus ``fed``, the DRL federation dispatcher's policy
    when the scenario uses it. ``meta`` carries the training request.
    """

    sites: tuple[SitePolicy, ...]
    fed: SitePolicy | None = None
    meta: dict = field(default_factory=dict)


def train_policy(
    spec: ScenarioSpec,
    n_jobs: int,
    seed: int,
    protocol: Protocol,
    with_predictor: bool = True,
) -> PolicyCheckpoint:
    """Train the shared controllers for one training key.

    Bit-for-bit the training a cell performs when it trains alone: the
    same seed derivation (:func:`~repro.harness.runner.derive_cell_seeds`,
    then :func:`~repro.scenarios.federation.derive_site_seeds`), the same
    per-site training segments, and one
    :func:`~repro.harness.runner.train_site_policy` call per site. When
    the federation policy is ``"drl"``, the dispatcher is then trained
    over a canonical fleet — per-site ``drl-only`` systems warm-started
    from the just-trained policies (the federated analogue of Algorithm
    1's seed-policy experience collection) — and captured too. Both
    steps read the one set of training segments built here
    (:func:`~repro.scenarios.federation.build_controllers`).
    """
    trace_ss, system_seed = derive_cell_seeds(seed)
    _, train_streams = spec.build_site_traces(n_jobs, trace_ss)
    site_seeds, _ = derive_site_seeds(system_seed, len(spec.site_specs))
    checkpoint = PolicyCheckpoint(
        sites=tuple(
            train_site_policy(
                spec.site_experiment_config(i, seed=seed),
                [segment[i] for segment in train_streams],
                protocol,
                seed=site_seed,
                with_predictor=with_predictor,
            )
            for i, site_seed in enumerate(site_seeds)
        ),
        meta={"request": training_request(spec, n_jobs, seed, protocol)},
    )
    if spec.federation == "drl":
        _, fed_broker = build_controllers(
            "drl-only", spec, train_streams, protocol, seed, checkpoint
        )
        checkpoint.fed = SitePolicy.capture(fed_broker)
    return checkpoint


class CheckpointStore(ContentAddressedStore):
    """File-backed cache mapping training keys to weight blobs.

    Layout and crash-safety mirror the result store (same
    :class:`~repro.scenarios.store.ContentAddressedStore` base): blobs
    live at ``<root>/<key[:2]>/<key>.npz``, writes are atomic, corrupt
    blobs are deleted on read. Blobs whose schema version differs from
    :data:`CHECKPOINT_SCHEMA_VERSION` are *ignored* (left in place,
    reported as a miss) so a version bump simply retrains and overwrites.

    One blob layout serves every scenario: per-site state dicts
    ``site{i}_qnet`` / ``site{i}_predictor``, the optional ``fed_qnet``
    (with ``fed_epsilon`` and ``fed_arch`` metadata), and a ``sites``
    metadata list with one entry per site.
    """

    suffix = ".npz"

    def __init__(self, root: str | Path = DEFAULT_CHECKPOINT_ROOT) -> None:
        super().__init__(root)

    def get(
        self,
        key: str,
        need_predictor: bool = False,
        need_fed_policy: bool = False,
    ) -> PolicyCheckpoint | None:
        """Load a checkpoint, or None on miss.

        ``need_predictor`` demands that every site carries LSTM
        predictor weights (fitted or not), and ``need_fed_policy`` that
        the blob carries the federation dispatcher's weights; blobs
        falling short miss (and get retrained). So do blobs missing any
        site's Q-network.
        """
        path = self.path_for(key)
        try:
            states, meta = load_states(path)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated zip, bad JSON, malformed entries: a killed writer
            # (pre-rename) or tampering. Delete so the slot heals.
            self._discard(path)
            return None
        if meta.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            return None
        site_meta = meta.get("sites")
        if not isinstance(site_meta, list) or not site_meta:
            return None
        sites: list[SitePolicy] = []
        for i, entry in enumerate(site_meta):
            qnet = states.get(f"site{i}_qnet")
            predictor = states.get(f"site{i}_predictor")
            if qnet is None or (need_predictor and predictor is None):
                return None
            sites.append(
                SitePolicy(
                    qnet_state=qnet,
                    epsilon=float(entry.get("epsilon", 0.0)),
                    predictor_state=predictor,
                    predictor_fitted=bool(entry.get("predictor_fitted", False)),
                    arch=entry.get("arch"),
                )
            )
        fed_state = states.get("fed_qnet")
        if need_fed_policy and fed_state is None:
            return None
        fed = None
        if fed_state is not None:
            fed = SitePolicy(
                qnet_state=fed_state,
                epsilon=float(meta.get("fed_epsilon", 0.0)),
                arch=meta.get("fed_arch"),
            )
        return PolicyCheckpoint(
            sites=tuple(sites),
            fed=fed,
            meta={k: meta[k] for k in ("request",) if k in meta},
        )

    def put(self, key: str, checkpoint: PolicyCheckpoint) -> Path:
        """Atomically persist a checkpoint; returns its blob path."""
        states: dict[str, dict[str, np.ndarray]] = {}
        site_meta = []
        for i, site in enumerate(checkpoint.sites):
            states[f"site{i}_qnet"] = site.qnet_state
            if site.predictor_state is not None:
                states[f"site{i}_predictor"] = site.predictor_state
            entry = {"epsilon": site.epsilon, "predictor_fitted": site.predictor_fitted}
            if site.arch is not None:
                entry["arch"] = site.arch
            site_meta.append(entry)
        meta = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "sites": site_meta,
            **checkpoint.meta,
        }
        if checkpoint.fed is not None:
            states["fed_qnet"] = checkpoint.fed.qnet_state
            meta["fed_epsilon"] = checkpoint.fed.epsilon
            meta["fed_arch"] = checkpoint.fed.arch
        return save_states(self.path_for(key), states, meta)


def load_checkpoint(
    store: CheckpointStore,
    key: str,
    spec: ScenarioSpec,
    need_predictor: bool = False,
) -> PolicyCheckpoint | None:
    """Fetch the checkpoint ``spec`` needs, or None on miss.

    Besides the store's own gates, a blob whose site count differs from
    the spec's misses, and a DRL federation needs the dispatcher's
    weights.
    """
    checkpoint = store.get(
        key,
        need_predictor=need_predictor,
        need_fed_policy=spec.federation == "drl",
    )
    if checkpoint is not None and len(checkpoint.sites) != len(spec.site_specs):
        checkpoint = None
    if checkpoint is None:
        obs.get().counter("checkpoint.miss")
        logger.debug("checkpoint miss for key %s", key)
    else:
        obs.get().counter("checkpoint.hit")
        logger.debug("checkpoint hit for key %s", key)
    return checkpoint


def store_checkpoint(
    store: CheckpointStore, key: str, checkpoint: PolicyCheckpoint
) -> Path:
    """Persist a checkpoint under ``key``."""
    obs.get().counter("checkpoint.store")
    logger.debug("storing checkpoint under key %s", key)
    return store.put(key, checkpoint)


def ensure_checkpoint(
    store: CheckpointStore | None,
    spec: ScenarioSpec,
    n_jobs: int = 600,
    seed: int = 0,
    protocol: Protocol = SWEEP_PROTOCOL,
    with_predictor: bool = True,
    force: bool = False,
) -> PolicyCheckpoint:
    """Load the checkpoint for a training key, training (and storing) on miss."""
    key = content_key(training_request(spec, n_jobs, seed, protocol))
    if store is not None and not force:
        cached = load_checkpoint(store, key, spec, need_predictor=with_predictor)
        if cached is not None:
            return cached
    checkpoint = train_policy(spec, n_jobs, seed, protocol, with_predictor)
    if store is not None:
        store_checkpoint(store, key, checkpoint)
    return checkpoint


__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointStore",
    "PolicyCheckpoint",
    "SitePolicy",
    "ensure_checkpoint",
    "load_checkpoint",
    "needs_policy",
    "store_checkpoint",
    "train_policy",
    "training_request",
]

"""Policy checkpoint store: round-trips, schema gating, warm systems."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.config import PredictorConfig
from repro.core.predictor import WorkloadPredictor
from repro.harness.runner import SWEEP_PROTOCOL, Protocol
from repro.nn.serialize import save_states
from repro.scenarios.checkpoints import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    PolicyCheckpoint,
    SitePolicy,
    ensure_checkpoint,
    load_checkpoint,
    train_policy,
    training_request,
)
from repro.scenarios.federation import build_cell
from repro.scenarios.orchestrator import SweepCell, cell_request
from repro.scenarios.specs import (
    FleetSpec,
    ScenarioSpec,
    ServerClassSpec,
    SiteSpec,
    WorkloadSpec,
)
from repro.scenarios.store import content_key
from tests.helpers import NO_TRAINING

TINY = ScenarioSpec(
    name="tiny-ckpt",
    description="4-server checkpoint scenario",
    fleet=FleetSpec(classes=(ServerClassSpec("standard", 4),)),
    workload=WorkloadSpec(n_train_segments=1),
)

#: Fast training knobs: no offline pretrain, no online epochs — the
#: checkpoint machinery is identical, only the weights stay at init.
FAST = dict(n_jobs=60, seed=0, protocol=NO_TRAINING)

#: Every :class:`Protocol` field, by name.
PROTOCOL_FIELDS = [f.name for f in fields(Protocol)]


def moved(protocol: Protocol, name: str) -> Protocol:
    """``protocol`` with field ``name`` set to another valid value."""
    value = getattr(protocol, name)
    other = not value if isinstance(value, bool) else value + 1
    return replace(protocol, **{name: other})


@pytest.fixture(scope="module")
def policy() -> PolicyCheckpoint:
    return train_policy(TINY, with_predictor=False, **FAST)


class TestTrainingKey:
    def test_evaluation_knobs_do_not_change_the_key(self):
        base = content_key(training_request(TINY, 60, 0, SWEEP_PROTOCOL))
        assert base == content_key(training_request(TINY, 60, 0, SWEEP_PROTOCOL))
        # record_every / local_epochs / system are absent by design.
        request = training_request(TINY, 60, 0, SWEEP_PROTOCOL)
        assert "record_every" not in request
        assert "local_epochs" not in request
        assert "system" not in request

    def test_training_knobs_change_the_key(self):
        base = content_key(training_request(TINY, 60, 0, SWEEP_PROTOCOL))
        assert content_key(training_request(TINY, 70, 0, SWEEP_PROTOCOL)) != base
        assert content_key(training_request(TINY, 60, 1, SWEEP_PROTOCOL)) != base
        cold = replace(SWEEP_PROTOCOL, pretrain=False)
        assert content_key(training_request(TINY, 60, 0, cold)) != base
        longer = replace(SWEEP_PROTOCOL, online_epochs=2)
        assert content_key(training_request(TINY, 60, 0, longer)) != base

    @pytest.mark.parametrize("name", PROTOCOL_FIELDS)
    def test_only_training_fields_change_the_training_key(self, name):
        base = content_key(training_request(TINY, 60, 0, SWEEP_PROTOCOL))
        request = training_request(TINY, 60, 0, moved(SWEEP_PROTOCOL, name))
        changed = content_key(request) != base
        assert changed == (name in ("pretrain", "online_epochs"))

    @pytest.mark.parametrize("name", PROTOCOL_FIELDS)
    def test_every_field_changes_the_cell_key(self, name):
        cell = SweepCell(TINY, "drl-only", 0)
        base = content_key(cell_request(cell, 60, SWEEP_PROTOCOL))
        request = cell_request(cell, 60, moved(SWEEP_PROTOCOL, name))
        assert content_key(request) != base
        assert request["protocol"][name] == getattr(moved(SWEEP_PROTOCOL, name), name)


class TestStoreRoundTrip:
    def test_qnet_weights_bit_identical(self, tmp_path, policy):
        store = CheckpointStore(tmp_path / "ckpt")
        store.put("k" * 64, policy)
        loaded = store.get("k" * 64)
        assert loaded is not None
        (site,) = policy.sites
        (loaded_site,) = loaded.sites
        assert loaded_site.epsilon == site.epsilon
        assert set(loaded_site.qnet_state) == set(site.qnet_state)
        for key, value in site.qnet_state.items():
            assert np.array_equal(loaded_site.qnet_state[key], value)
        assert len(store) == 1

    def test_lstm_weights_bit_identical(self, tmp_path):
        # A hand-fitted predictor stands in for scenario-driven training
        # (whose default config would make the test slow); the blob path
        # is exactly the one train_policy uses.
        predictor = WorkloadPredictor(
            PredictorConfig(lookback=5, epochs=2), rng=np.random.default_rng(0)
        )
        predictor.fit(np.random.default_rng(1).uniform(5.0, 500.0, size=30))
        site = SitePolicy(
            qnet_state={"0:w": np.arange(3.0)},
            epsilon=0.05,
            predictor_state=predictor.network.state_dict(),
            predictor_fitted=True,
        )
        store = CheckpointStore(tmp_path / "ckpt")
        store.put("a" * 64, PolicyCheckpoint(sites=(site,)))
        loaded = store.get("a" * 64, need_predictor=True)
        assert loaded is not None
        (loaded_site,) = loaded.sites
        assert loaded_site.predictor_fitted
        for key, value in site.predictor_state.items():
            assert np.array_equal(loaded_site.predictor_state[key], value)

    def test_stale_schema_blob_is_ignored(self, tmp_path, policy):
        store = CheckpointStore(tmp_path / "ckpt")
        key = "b" * 64
        store.put(key, policy)
        # Rewrite the blob claiming a different schema version.
        save_states(
            store.path_for(key),
            {"site0_qnet": policy.sites[0].qnet_state},
            {"schema": CHECKPOINT_SCHEMA_VERSION + 1, "sites": [{"epsilon": 0.1}]},
        )
        assert store.get(key) is None
        assert store.path_for(key).exists()  # ignored, not deleted

    def test_corrupt_blob_is_deleted_miss(self, tmp_path, policy):
        store = CheckpointStore(tmp_path / "ckpt")
        key = "c" * 64
        path = store.put(key, policy)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        assert store.get(key) is None
        assert not path.exists()

    def test_predictor_free_blob_misses_when_predictor_needed(
        self, tmp_path, policy
    ):
        store = CheckpointStore(tmp_path / "ckpt")
        store.put("d" * 64, policy)  # trained with_predictor=False
        assert store.get("d" * 64) is not None
        assert store.get("d" * 64, need_predictor=True) is None

    def test_blob_in_the_previous_layout_still_loads(self, tmp_path):
        # The layout written before SitePolicy moved to the harness: every
        # site entry carries ``predictor_attempted``, and the meta carries
        # ``fed_epsilon``/``fed_arch`` next to the ``fed_qnet`` array.
        spec = ScenarioSpec(
            name="tiny-fed-drl",
            description="",
            sites=(
                SiteSpec("east", TINY.fleet),
                SiteSpec("west", TINY.fleet),
            ),
            federation="drl",
        )
        rng = np.random.default_rng(0)
        qnets = [{"0:w": rng.normal(size=(3, 2))} for _ in range(2)]
        predictors = [{"0:lstm": rng.normal(size=4)} for _ in range(2)]
        fed_qnet = {"0:w": rng.normal(size=(2, 2))}
        fed_arch = {"kind": "hierarchical", "num_actions": 2}
        states = {"fed_qnet": fed_qnet}
        for i in range(2):
            states[f"site{i}_qnet"] = qnets[i]
            states[f"site{i}_predictor"] = predictors[i]
        meta = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "sites": [
                {
                    "epsilon": 0.25,
                    "predictor_fitted": True,
                    "predictor_attempted": True,
                }
                for _ in range(2)
            ],
            "fed_epsilon": 0.125,
            "fed_arch": fed_arch,
            "request": {"seed": 0},
        }
        store = CheckpointStore(tmp_path / "ckpt")
        save_states(store.path_for("g" * 64), states, meta)
        loaded = load_checkpoint(store, "g" * 64, spec, need_predictor=True)
        assert loaded is not None
        for i, site in enumerate(loaded.sites):
            assert site.epsilon == 0.25 and site.predictor_fitted
            assert np.array_equal(site.qnet_state["0:w"], qnets[i]["0:w"])
            assert np.array_equal(
                site.predictor_state["0:lstm"], predictors[i]["0:lstm"]
            )
        assert loaded.fed.epsilon == 0.125
        assert loaded.fed.arch == fed_arch
        assert np.array_equal(loaded.fed.qnet_state["0:w"], fed_qnet["0:w"])

    def test_clear(self, tmp_path, policy):
        store = CheckpointStore(tmp_path / "ckpt")
        store.put("e" * 64, policy)
        store.put("f" * 64, policy)
        assert store.clear() == 2
        assert len(store) == 0


class TestWarmSystems:
    def test_policy_broker_carries_trained_weights(self, policy):
        config = TINY.site_experiment_config(0, seed=0)
        (site,) = policy.sites
        broker = site.broker(config, seed=123)
        for key, value in broker.qnet.state_dict().items():
            assert np.array_equal(site.qnet_state[key], value)
        assert broker.epsilon == site.epsilon

    def test_geometry_mismatch_raises(self, policy):
        other = ScenarioSpec(
            name="bigger",
            description="different fleet",
            fleet=FleetSpec(classes=(ServerClassSpec("standard", 8),)),
        )
        with pytest.raises(ValueError, match="geometry"):
            policy.sites[0].broker(other.site_experiment_config(0, seed=0), seed=0)

    def test_predictor_required_but_absent_raises(self, policy):
        config = TINY.site_experiment_config(0, seed=0)
        with pytest.raises(ValueError, match="predictor"):
            policy.sites[0].predictor(config, seed=0)

    def test_warm_system_is_deterministic(self, policy):
        (a,), _, (jobs_a,) = build_cell(
            "drl-only", TINY, 60, NO_TRAINING, seed=0, checkpoint=policy
        )
        (b,), _, (jobs_b,) = build_cell(
            "drl-only", TINY, 60, NO_TRAINING, seed=0, checkpoint=policy
        )
        assert [j.arrival_time for j in jobs_a] == [
            j.arrival_time for j in jobs_b
        ]
        sa = a.broker.qnet.state_dict()
        sb = b.broker.qnet.state_dict()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)

    def test_non_drl_system_rejected(self, policy):
        with pytest.raises(ValueError):
            build_cell(
                "round-robin", TINY, 60, SWEEP_PROTOCOL, seed=0, checkpoint=policy
            )


class TestEnsureCheckpoint:
    def test_trains_once_then_loads(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path / "ckpt")
        calls = []
        import repro.scenarios.checkpoints as checkpoints

        real = checkpoints.train_policy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkpoints, "train_policy", counting)
        first = ensure_checkpoint(store, TINY, with_predictor=False, **FAST)
        second = ensure_checkpoint(store, TINY, with_predictor=False, **FAST)
        assert len(calls) == 1
        assert len(store) == 1
        for key, value in first.sites[0].qnet_state.items():
            assert np.array_equal(second.sites[0].qnet_state[key], value)


class TestWorkloadKindKeys:
    """Trace-replay and synthetic cells must never share training keys."""

    def test_replay_and_synthetic_training_keys_differ(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec
        from repro.sim.job import Job
        from repro.workload.trace import write_trace_csv

        path = tmp_path / "trace.csv"
        write_trace_csv(
            [Job(i, i * 10.0, 120.0, (0.3, 0.2, 0.1)) for i in range(30)], path
        )
        replay_spec = ScenarioSpec(
            name="tiny-ckpt",  # same cosmetic name: labels never key
            description="same label, replayed workload",
            fleet=TINY.fleet,
            workload=WorkloadSpec(
                replay=TraceReplaySpec(paths=(str(path),), format="canonical"),
                n_train_segments=1,
            ),
        )
        synth_key = content_key(training_request(TINY, 60, 0, SWEEP_PROTOCOL))
        replay_key = content_key(training_request(replay_spec, 60, 0, SWEEP_PROTOCOL))
        assert synth_key != replay_key
        # ... and two replays of different files differ too.
        other = ScenarioSpec(
            name="tiny-ckpt",
            description="",
            fleet=TINY.fleet,
            workload=WorkloadSpec(
                replay=TraceReplaySpec(paths=(str(path) + ".other",),
                                       format="canonical"),
                n_train_segments=1,
            ),
        )
        assert content_key(training_request(other, 60, 0, SWEEP_PROTOCOL)) != replay_key

    def test_tariff_never_invalidates_training(self):
        from dataclasses import replace

        from repro.sim.power import TariffModel

        priced = replace(TINY, tariff=TariffModel.time_of_use(16, 21, 0.3, 0.1))
        plain = training_request(TINY, 60, 0, SWEEP_PROTOCOL)
        assert content_key(plain) == content_key(
            training_request(priced, 60, 0, SWEEP_PROTOCOL)
        )
        # ... while the *result* identity does change with the tariff.
        assert TINY.content_key() != priced.content_key()

    def test_replay_and_synthetic_blobs_never_collide_in_store(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec
        from repro.sim.job import Job
        from repro.workload.trace import write_trace_csv

        path = tmp_path / "trace.csv"
        write_trace_csv(
            [Job(i, i * 30.0, 300.0, (0.3, 0.2, 0.1)) for i in range(40)], path
        )
        replay_spec = ScenarioSpec(
            name="tiny-ckpt",
            description="",
            fleet=TINY.fleet,
            workload=WorkloadSpec(
                replay=TraceReplaySpec(paths=(str(path),), format="canonical"),
                n_train_segments=1,
            ),
        )
        store = CheckpointStore(tmp_path / "ckpt")
        synth = ensure_checkpoint(store, TINY, with_predictor=False, **FAST)
        warm = ensure_checkpoint(store, replay_spec, with_predictor=False, **FAST)
        assert len(store) == 2  # two blobs: no cross-workload warm-start
        assert synth.meta["request"] != warm.meta["request"]

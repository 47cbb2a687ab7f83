"""ScenarioSpec / WorkloadSpec / FleetSpec construction and identity."""

import pytest

from repro.harness.runner import SWEEP_PROTOCOL
from repro.scenarios import registry, specs
from repro.scenarios.federation import build_cell
from repro.scenarios.specs import (
    CapacityWindowSpec,
    FleetSpec,
    FlashCrowdSpec,
    JobClassSpec,
    ScenarioSpec,
    ServerClassSpec,
    WorkloadSpec,
    groups_for,
    rolling_maintenance,
)
from repro.sim.power import PowerModel
from repro.workload import mixtures
from tests.helpers import NO_TRAINING


class TestValidation:
    def test_scenario_needs_name(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="", description="x")

    def test_capacity_window_servers_must_exist(self):
        window = CapacityWindowSpec(0.1, 0.1, servers=(99,))
        with pytest.raises(ValueError, match="outside"):
            ScenarioSpec(name="s", description="", capacity_windows=(window,))

    def test_flash_crowd_bounds(self):
        with pytest.raises(ValueError):
            FlashCrowdSpec(1.0, 0.1, 2.0)
        with pytest.raises(ValueError):
            FlashCrowdSpec(0.1, 0.0, 2.0)
        with pytest.raises(ValueError):
            FlashCrowdSpec(0.1, 0.1, 1.0)

    def test_fleet_group_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            FleetSpec(classes=(ServerClassSpec("a", 10),), num_groups=3)

    def test_rolling_maintenance_overrun_rejected(self):
        with pytest.raises(ValueError, match="overruns"):
            rolling_maintenance(30, 3, n_waves=10, spacing=0.15)


class TestFleetSpec:
    def test_homogeneous_has_no_model_list(self):
        fleet = FleetSpec()
        assert fleet.num_servers == 30
        assert fleet.power_models() is None
        assert not fleet.is_heterogeneous

    def test_heterogeneous_expansion(self):
        a, b = PowerModel(idle_power=50, peak_power=100), PowerModel()
        fleet = FleetSpec(
            classes=(ServerClassSpec("new", 2, a), ServerClassSpec("old", 3, b))
        )
        models = fleet.power_models()
        assert models == (a, a, b, b, b)
        assert fleet.num_servers == 5

    def test_groups_default(self):
        assert groups_for(30) == 3
        assert groups_for(40) == 4
        assert groups_for(7) == 1
        assert FleetSpec(classes=(ServerClassSpec("s", 8),)).groups() == 4


class TestExperimentConfig:
    def test_heterogeneous_config_round_trip(self):
        spec = ScenarioSpec(
            name="s",
            description="",
            fleet=FleetSpec(
                classes=(
                    ServerClassSpec(
                        "new", 2, PowerModel(idle_power=50, peak_power=100)
                    ),
                    ServerClassSpec("old", 2, PowerModel()),
                )
            ),
        )
        config = spec.site_experiment_config(0, seed=5)
        assert config.num_servers == 4
        assert config.power_models is not None
        assert len(config.power_models) == 4
        assert config.seed == 5
        assert config.fleet_power_models == config.power_models

    def test_homogeneous_uses_shared_model(self):
        config = ScenarioSpec(name="s", description="").site_experiment_config(0)
        assert config.power_models is None
        assert config.fleet_power_models is config.power_model


class TestTraces:
    def test_build_traces_deterministic(self):
        spec = ScenarioSpec(name="s", description="")
        a_eval, a_train = spec.build_traces(60, seed=4)
        b_eval, b_train = spec.build_traces(60, seed=4)
        assert a_eval == b_eval
        assert a_train == b_train

    def test_eval_and_train_streams_differ(self):
        spec = ScenarioSpec(name="s", description="")
        eval_jobs, train = spec.build_traces(250, seed=0)
        assert len(eval_jobs) == 250
        assert len(train) == 2
        assert train[0] != train[1]
        trained = [j.duration for j in train[0][:20]]
        assert trained != [j.duration for j in eval_jobs[:20]]

    def test_capacity_events_scale_with_horizon(self):
        window = CapacityWindowSpec(0.5, 0.1, servers=(0, 1))
        spec = ScenarioSpec(name="s", description="", capacity_windows=(window,))
        events = spec.capacity_events(1000.0)
        assert len(events) == 2
        assert all(e.time == pytest.approx(500.0) for e in events)
        assert all(e.duration == pytest.approx(100.0) for e in events)


class TestTrainingSegmentsOnDemand:
    """A cell generates training segments only when something reads them."""

    @pytest.mark.parametrize(
        "name, module, generator",
        [
            # One synthetic class: one generate_trace call per stream.
            ("paper-default", mixtures, "generate_trace"),
            # Multi-site: one correlated_traces call per stream.
            ("federated-correlated", specs, "correlated_traces"),
        ],
    )
    def test_round_robin_cell_generates_only_its_evaluation(
        self, monkeypatch, name, module, generator
    ):
        spec = registry.get(name)
        calls = []
        original = getattr(module, generator)

        def spy(*args, **kwargs):
            calls.append(generator)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, generator, spy)
        *_, rr_streams = build_cell("round-robin", spec, 60, SWEEP_PROTOCOL, seed=3)
        assert len(calls) == 1
        calls.clear()
        *_, drl_streams = build_cell("drl-only", spec, 60, NO_TRAINING, seed=3)
        assert len(calls) == 1 + spec.workload.n_train_segments
        assert rr_streams == drl_streams

    def test_replay_without_training_keeps_its_evaluation(self):
        spec = registry.get("google-replay")
        eval_streams, segments = spec.build_site_traces(50, seed=0)
        lazy_streams, no_segments = spec.build_site_traces(
            50, seed=0, with_training=False
        )
        assert segments and no_segments == []
        assert lazy_streams == eval_streams


class TestContentKey:
    def test_stable_and_parameter_sensitive(self):
        a = ScenarioSpec(name="s", description="d")
        b = ScenarioSpec(name="s", description="d")
        assert a.content_key() == b.content_key()
        # Renames and re-wordings are cosmetic: cached results survive.
        renamed = ScenarioSpec(name="other", description="reworded")
        assert renamed.content_key() == a.content_key()
        # So are job/server class labels.
        relabeled = ScenarioSpec(
            name="s",
            description="d",
            workload=WorkloadSpec(classes=(JobClassSpec("renamed-class", 1.0),)),
        )
        assert relabeled.content_key() == a.content_key()
        # A single deep parameter change flips the key.
        c = ScenarioSpec(
            name="s",
            description="d",
            workload=WorkloadSpec(
                classes=(JobClassSpec("default", 1.0),), rate_scale=1.0001
            ),
        )
        assert c.content_key() != a.content_key()

    def test_content_dict_is_json_plain(self):
        import json

        spec = ScenarioSpec(
            name="s",
            description="d",
            fleet=FleetSpec(
                classes=(
                    ServerClassSpec(
                        "x", 2, PowerModel(idle_power=50, peak_power=99)
                    ),
                )
            ),
            capacity_windows=(CapacityWindowSpec(0.1, 0.1, servers=(0,)),),
        )
        json.dumps(spec.content_dict())  # must not raise


FIXTURE = __import__("pathlib").Path(__file__).resolve().parents[1] / "fixtures"
GOOGLE_FIXTURE = str(FIXTURE / "google_task_events_small.csv")


def canonical_trace(tmp_path, n=40, spacing=10.0):
    from repro.sim.job import Job
    from repro.workload.trace import write_trace_csv

    path = tmp_path / "canon.csv"
    jobs = [
        Job(i, i * spacing, 100.0 + i, (0.3, 0.2, 0.1)) for i in range(n)
    ]
    write_trace_csv(jobs, path)
    return path


class TestTraceReplaySpec:
    def test_validation(self):
        from repro.scenarios.specs import TraceReplaySpec

        with pytest.raises(ValueError, match="at least one path"):
            TraceReplaySpec(paths=())
        with pytest.raises(ValueError, match="format"):
            TraceReplaySpec(paths=("a.csv",), format="parquet")
        with pytest.raises(ValueError, match="min_duration"):
            TraceReplaySpec(paths=("a.csv",), min_duration=0.0)
        with pytest.raises(ValueError, match="time_compression"):
            TraceReplaySpec(paths=("a.csv",), time_compression=0.0)
        with pytest.raises(ValueError, match="split"):
            TraceReplaySpec(paths=("a.csv",), split="sideways")

    def test_lone_string_path_normalized(self):
        from repro.scenarios.specs import TraceReplaySpec

        spec = TraceReplaySpec(paths="a.csv")
        assert spec.paths == ("a.csv",)

    def test_load_google_fixture(self):
        from repro.scenarios.specs import TraceReplaySpec

        jobs = TraceReplaySpec(paths=(GOOGLE_FIXTURE,)).load_jobs()
        assert len(jobs) == 120  # see tests/fixtures/make_google_fixture.py
        assert jobs[0].arrival_time == 0.0
        assert all(60.0 <= j.duration <= 7200.0 for j in jobs)
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)

    def test_canonical_format_and_duration_window(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        path = canonical_trace(tmp_path)
        jobs = TraceReplaySpec(
            paths=(str(path),), format="canonical", min_duration=110.0,
            max_duration=130.0,
        ).load_jobs()
        assert [j.duration for j in jobs] == [100.0 + i for i in range(10, 31)]

    def test_time_compression_scales_arrivals_not_durations(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        path = canonical_trace(tmp_path)
        plain = TraceReplaySpec(paths=(str(path),), format="canonical").load_jobs()
        packed = TraceReplaySpec(
            paths=(str(path),), format="canonical", time_compression=2.0
        ).load_jobs()
        assert packed[-1].arrival_time == pytest.approx(
            plain[-1].arrival_time / 2.0
        )
        assert [j.duration for j in packed] == [j.duration for j in plain]

    def test_glob_expansion_sorted(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec
        from repro.sim.job import Job
        from repro.workload.trace import write_trace_csv

        write_trace_csv([Job(0, 100.0, 60.0, (0.1, 0.1, 0.1))], tmp_path / "p-1.csv")
        write_trace_csv([Job(0, 0.0, 70.0, (0.1, 0.1, 0.1))], tmp_path / "p-0.csv")
        jobs = TraceReplaySpec(
            paths=(str(tmp_path / "p-*.csv"),), format="canonical"
        ).load_jobs()
        assert [j.duration for j in jobs] == [70.0, 60.0]  # arrival order

    def test_missing_file_and_empty_glob(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        with pytest.raises(FileNotFoundError):
            TraceReplaySpec(paths=(str(tmp_path / "nope.csv"),)).load_jobs()
        with pytest.raises(ValueError, match="matched no files"):
            TraceReplaySpec(paths=(str(tmp_path / "nope-*.csv"),)).load_jobs()

    def test_corrupt_fixture_raises(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        # A file in the wrong shape parses to zero usable jobs: that is a
        # loud error, not a silently empty experiment.
        bad = tmp_path / "corrupt.csv"
        bad.write_text("this,is,not\na,google,trace\n")
        with pytest.raises(ValueError, match="no usable jobs"):
            TraceReplaySpec(paths=(str(bad),)).load_jobs()
        # Canonical reader keeps its hard header error.
        with pytest.raises(ValueError, match="header"):
            TraceReplaySpec(paths=(str(bad),), format="canonical").load_jobs()

    def test_head_split_train_precedes_eval(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        spec = TraceReplaySpec(paths=(str(canonical_trace(tmp_path)),),
                               format="canonical")
        eval_jobs, segments = spec.build(20, n_train_segments=2, train_fraction=0.5)
        assert len(eval_jobs) == 20
        assert [len(s) for s in segments] == [10, 10]
        # Train on the past, evaluate on the future: the training jobs'
        # durations identify them as the head of the recording.
        train_durations = {j.duration for s in segments for j in s}
        assert train_durations == {100.0 + i for i in range(20)}
        assert {j.duration for j in eval_jobs} == {100.0 + i for i in range(20, 40)}

    def test_head_split_caps_request_to_recording(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        spec = TraceReplaySpec(paths=(str(canonical_trace(tmp_path)),),
                               format="canonical")
        eval_jobs, segments = spec.build(10_000, n_train_segments=1,
                                         train_fraction=0.5)
        # Training reserves at most half; evaluation takes the rest.
        assert len(eval_jobs) == 20
        assert [len(s) for s in segments] == [20]

    def test_strided_split_spans_whole_recording(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        spec = TraceReplaySpec(paths=(str(canonical_trace(tmp_path)),),
                               format="canonical", split="strided")
        eval_jobs, segments = spec.build(40, n_train_segments=1,
                                         train_fraction=1.0)
        assert len(eval_jobs) == 20
        assert [len(s) for s in segments] == [20]
        # Strided thinning: eval took every other job from the whole span.
        assert {j.duration for j in eval_jobs} == {100.0 + i for i in range(0, 40, 2)}

    def test_streams_rebased_and_renumbered(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        spec = TraceReplaySpec(paths=(str(canonical_trace(tmp_path)),),
                               format="canonical")
        eval_jobs, segments = spec.build(20, n_train_segments=1,
                                         train_fraction=0.5)
        for stream in [eval_jobs] + segments:
            assert stream[0].arrival_time == 0.0
            assert [j.job_id for j in stream] == list(range(len(stream)))

    def test_no_training_segments(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        spec = TraceReplaySpec(paths=(str(canonical_trace(tmp_path)),),
                               format="canonical")
        eval_jobs, segments = spec.build(15, n_train_segments=0,
                                         train_fraction=0.5)
        assert len(eval_jobs) == 15
        assert segments == []


class TestWorkloadReplayWiring:
    def test_replay_rejects_synthetic_layers(self):
        from repro.scenarios.specs import TraceReplaySpec

        replay = TraceReplaySpec(paths=("a.csv",))
        with pytest.raises(ValueError, match="flash crowds"):
            WorkloadSpec(replay=replay,
                         flash_crowds=(FlashCrowdSpec(0.1, 0.1, 2.0),))
        with pytest.raises(ValueError, match="burst coupling"):
            WorkloadSpec(replay=replay, burst_coupling=0.5)
        with pytest.raises(ValueError, match="rate_scale"):
            WorkloadSpec(replay=replay, rate_scale=2.0)
        with pytest.raises(ValueError, match="synthetic job classes"):
            WorkloadSpec(replay=replay,
                         classes=(JobClassSpec("custom", 1.0),))

    def test_burst_coupling_validation(self):
        with pytest.raises(ValueError, match="burst_coupling"):
            WorkloadSpec(burst_coupling=1.5)
        with pytest.raises(ValueError, match="compose"):
            WorkloadSpec(burst_coupling=0.5,
                         flash_crowds=(FlashCrowdSpec(0.1, 0.1, 2.0),))

    def test_build_is_seed_independent_for_replay(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        ws = WorkloadSpec(
            replay=TraceReplaySpec(paths=(str(canonical_trace(tmp_path)),),
                                   format="canonical"),
            n_train_segments=1,
        )
        a_eval, a_train = ws.build(10, 30, seed=0)
        b_eval, b_train = ws.build(10, 30, seed=99)
        assert a_eval == b_eval
        assert a_train == b_train

    def test_horizon_for_reads_recorded_span(self, tmp_path):
        from repro.scenarios.specs import TraceReplaySpec

        ws = WorkloadSpec(
            replay=TraceReplaySpec(paths=(str(canonical_trace(tmp_path)),),
                                   format="canonical"),
            n_train_segments=1,
        )
        eval_jobs, _ = ws.build(10, 30, seed=0)
        assert ws.horizon_for(10, 30) == eval_jobs[-1].arrival_time


class TestElectricityIdentity:
    def test_tariff_changes_content_key_only(self):
        from repro.sim.power import TariffModel

        base = ScenarioSpec(name="a", description="")
        priced = ScenarioSpec(
            name="a", description="",
            tariff=TariffModel.time_of_use(16, 21, 0.3, 0.1),
        )
        assert base.content_key() != priced.content_key()

    def test_replay_changes_content_key(self):
        from repro.scenarios.specs import TraceReplaySpec

        synthetic = ScenarioSpec(name="a", description="")
        replayed = ScenarioSpec(
            name="a", description="",
            workload=WorkloadSpec(replay=TraceReplaySpec(paths=("t.csv",))),
        )
        assert synthetic.content_key() != replayed.content_key()
        # Replay parameters are behavioral too.
        packed = ScenarioSpec(
            name="a", description="",
            workload=WorkloadSpec(
                replay=TraceReplaySpec(paths=("t.csv",), time_compression=2.0)
            ),
        )
        assert packed.content_key() != replayed.content_key()


class TestReplayCacheIdentity:
    def test_editing_the_trace_file_changes_the_content_key(self, tmp_path):
        # Regression: keys used to embed only the path string, so editing
        # a trace file silently served results computed from the old
        # contents.
        import os

        from repro.scenarios.specs import TraceReplaySpec

        path = canonical_trace(tmp_path)
        spec = ScenarioSpec(
            name="replay",
            description="",
            workload=WorkloadSpec(
                replay=TraceReplaySpec(paths=(str(path),), format="canonical"),
                n_train_segments=1,
            ),
        )
        key_before = spec.content_key()
        # Same path, different contents (and a distinct mtime).
        stat = path.stat()
        canonical_trace(tmp_path, n=41)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert spec.content_key() != key_before

    def test_editing_the_trace_file_invalidates_the_parse_cache(self, tmp_path):
        import os

        from repro.scenarios.specs import TraceReplaySpec

        path = canonical_trace(tmp_path, n=10)
        spec = TraceReplaySpec(paths=(str(path),), format="canonical")
        assert len(spec.load_jobs()) == 10
        stat = path.stat()
        canonical_trace(tmp_path, n=12)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert len(spec.load_jobs()) == 12  # not the stale 10-job parse

    def test_unresolvable_paths_still_key(self):
        from repro.scenarios.specs import TraceReplaySpec

        spec = ScenarioSpec(
            name="a", description="",
            workload=WorkloadSpec(replay=TraceReplaySpec(paths=("nope.csv",))),
        )
        other = ScenarioSpec(
            name="a", description="",
            workload=WorkloadSpec(replay=TraceReplaySpec(paths=("other.csv",))),
        )
        assert spec.content_key() != other.content_key()


class TestStridedCoverage:
    def test_strided_eval_spans_long_recordings(self, tmp_path):
        # Regression: the stride was fixed at n_train_segments + 1, so on
        # a recording much longer than the request both streams took only
        # the head instead of thinning the whole file.
        from repro.scenarios.specs import TraceReplaySpec

        path = canonical_trace(tmp_path, n=40)
        spec = TraceReplaySpec(paths=(str(path),), format="canonical",
                               split="strided")
        eval_jobs, segments = spec.build(10, n_train_segments=1,
                                         train_fraction=0.5)
        assert len(eval_jobs) == 10
        # stride = 40 // 10 = 4: eval picks indices 0, 4, ..., 36 — the
        # last pick sits at the tail of the recording, not its head.
        assert {j.duration for j in eval_jobs} == {100.0 + i for i in range(0, 40, 4)}
        assert [len(s) for s in segments] == [5]
        expected = {100.0 + i for i in (1, 5, 9, 13, 17)}
        assert {j.duration for j in segments[0]} == expected

    def test_stale_parse_is_replaced_not_retained(self, tmp_path):
        import os

        from repro.scenarios import specs
        from repro.scenarios.specs import TraceReplaySpec

        path = canonical_trace(tmp_path, n=10)
        spec = TraceReplaySpec(paths=(str(path),), format="canonical")
        spec.load_jobs()
        entries_before = len(specs._REPLAY_CACHE)
        stat = path.stat()
        canonical_trace(tmp_path, n=12)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert len(spec.load_jobs()) == 12
        # The edited file's stale parse was evicted in place, not pinned.
        assert len(specs._REPLAY_CACHE) == entries_before


class TestBuiltinFixtureAnchor:
    def test_google_replay_builds_from_any_cwd(self, tmp_path, monkeypatch):
        # Regression: the builtin fixture path was cwd-relative, so the
        # default `scenario sweep` (which includes every registered
        # scenario) crashed when run outside the repository root.
        from repro.scenarios import registry

        monkeypatch.chdir(tmp_path)
        spec = registry.get("google-replay")
        eval_jobs, train = spec.build_traces(40, seed=0)
        assert len(eval_jobs) == 40
        assert train
        assert spec.horizon_for(40) > 0

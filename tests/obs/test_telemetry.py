"""Unit tests for :mod:`repro.obs.telemetry` (deterministic fake clock)."""

from __future__ import annotations

import pytest

from repro.obs import telemetry as obs


class FakeClock:
    """Manually advanced monotonic clock for exact span arithmetic."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tel(clock) -> obs.Telemetry:
    return obs.Telemetry(clock=clock)


@pytest.fixture(autouse=True)
def _no_leaked_global_state():
    assert obs.active() is None
    yield
    assert obs.active() is None, "a test left telemetry enabled"


class TestSpans:
    def test_single_span_total_equals_self(self, tel, clock):
        with tel.span("a"):
            clock.advance(2.0)
        stat = tel.spans["a"]
        assert stat.calls == 1
        assert stat.total_s == 2.0
        assert stat.self_s == 2.0
        assert stat.max_s == 2.0

    def test_nested_span_self_time_excludes_children(self, tel, clock):
        with tel.span("outer"):
            clock.advance(1.0)
            with tel.span("inner"):
                clock.advance(3.0)
            clock.advance(0.5)
        assert tel.spans["outer"].total_s == 4.5
        assert tel.spans["outer"].self_s == 1.5
        assert tel.spans["inner"].self_s == 3.0

    def test_self_times_partition_the_root_exactly(self, tel, clock):
        # Three levels deep: the self times over the whole tree must sum
        # to the root's wall time — every instant attributed once.
        with tel.span("root"):
            clock.advance(1.0)
            for _ in range(3):
                with tel.span("mid"):
                    clock.advance(0.25)
                    with tel.span("leaf"):
                        clock.advance(0.5)
        total_self = sum(stat.self_s for stat in tel.spans.values())
        assert total_self == pytest.approx(tel.spans["root"].total_s)

    def test_recursive_same_name_spans(self, tel, clock):
        with tel.span("f"):
            clock.advance(1.0)
            with tel.span("f"):
                clock.advance(2.0)
        stat = tel.spans["f"]
        assert stat.calls == 2
        # total double-counts the nested call (standard profiler
        # semantics); self still partitions wall time exactly.
        assert stat.total_s == 5.0
        assert stat.self_s == 3.0

    def test_span_exit_propagates_exceptions(self, tel, clock):
        with pytest.raises(RuntimeError):
            with tel.span("a"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        # The span still closed and was accounted.
        assert tel.spans["a"].calls == 1
        assert not tel._stack

    def test_max_tracks_longest_call(self, tel, clock):
        for dt in (1.0, 3.0, 2.0):
            with tel.span("a"):
                clock.advance(dt)
        assert tel.spans["a"].max_s == 3.0

    def test_span_is_a_phase(self, tel, clock):
        with tel.span("a") as span:
            assert isinstance(span, obs.Phase)
            assert tel._stack == [span]
        assert span.calls == 0  # folded into the span table on exit


class TestPhase:
    def test_phase_attributes_like_a_span(self, tel, clock):
        step = obs.Phase(tel, "step")
        with tel.span("run"):
            for _ in range(2):
                step.begin()
                clock.advance(1.0)
                with tel.span("inner"):
                    clock.advance(0.5)
                assert step.end() == clock.t
            clock.advance(0.25)
        step.fold()
        assert tel.spans["step"].as_dict() == {
            "calls": 2,
            "total_s": 3.0,
            "self_s": 2.0,
            "max_s": 1.5,
        }
        assert tel.spans["inner"].self_s == 1.0
        assert tel.spans["run"].self_s == 0.25  # self-times still partition

    def test_add_charges_parent_without_max(self, tel, clock):
        residual = obs.Phase(tel, "residual")
        with tel.span("run"):
            clock.advance(2.0)
            residual.add(1.5, calls=3)
        residual.fold()
        assert tel.spans["residual"].as_dict() == {
            "calls": 3,
            "total_s": 1.5,
            "self_s": 1.5,
            "max_s": 0.0,
        }
        assert tel.spans["run"].self_s == pytest.approx(0.5)

    def test_fold_resets_and_skips_empty(self, tel, clock):
        step = obs.Phase(tel, "step")
        step.fold()
        assert "step" not in tel.spans
        step.begin()
        clock.advance(1.0)
        step.end()
        step.fold()
        step.fold()
        assert tel.spans["step"].calls == 1

    def test_enclosing_span_unwinds_a_phase_left_open(self, tel, clock):
        step = obs.Phase(tel, "step")
        with pytest.raises(RuntimeError):
            with tel.span("run"):
                step.begin()
                clock.advance(1.0)
                raise RuntimeError("broker error")
        assert not tel._stack
        assert tel.spans["run"].total_s == 1.0


class TestCountersGaugesRates:
    def test_counter_accumulates(self, tel):
        tel.counter("x")
        tel.counter("x", 4)
        assert tel.counters["x"] == 5

    def test_gauge_summary(self, tel):
        for v in (5.0, 1.0, 3.0):
            tel.gauge("depth", v)
        stat = tel.gauges["depth"].as_dict()
        assert stat == {"last": 3.0, "min": 1.0, "max": 5.0, "mean": 3.0, "n": 3}


class TestSnapshot:
    def test_snapshot_shape(self, tel, clock):
        with tel.span("run"):
            clock.advance(1.0)
        tel.counter("jobs", 2)
        tel.gauge("depth", 7.0)
        snap = tel.snapshot()
        assert snap["schema"] == obs.TELEMETRY_SCHEMA
        assert snap["wall_s"] == 1.0
        assert snap["spans"]["run"]["total_s"] == 1.0
        assert snap["counters"] == {"jobs": 2}
        assert snap["gauges"]["depth"]["n"] == 1
        assert "rates" not in snap

    def test_snapshot_is_json_serializable(self, tel, clock):
        import json

        with tel.span("run"):
            clock.advance(1.0)
        json.dumps(tel.snapshot())


class TestModuleState:
    def test_disabled_by_default(self):
        assert obs.active() is None
        assert obs.get() is obs.NULL

    def test_null_is_inert(self):
        null = obs.NULL
        with null.span("x"):
            pass
        null.counter("x")

    def test_capture_restores_previous(self):
        outer = obs.Telemetry()
        with obs.capture(outer):
            with obs.capture() as inner:
                assert obs.active() is inner
                assert inner is not outer
            assert obs.active() is outer
        assert obs.active() is None

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert obs.active() is None


class TestMergeSnapshots:
    def _snap(self, tel_builder) -> dict:
        clock = FakeClock()
        tel = obs.Telemetry(clock=clock)
        tel_builder(tel, clock)
        return tel.snapshot()

    def test_merge_sums_spans_and_counters(self):
        def build(tel, clock):
            with tel.span("run"):
                clock.advance(2.0)
            tel.counter("jobs", 3)

        merged = obs.merge_snapshots([self._snap(build), self._snap(build)])
        assert merged["n_runs"] == 2
        assert merged["wall_s"] == 4.0
        assert merged["spans"]["run"]["calls"] == 2
        assert merged["spans"]["run"]["total_s"] == 4.0
        assert merged["counters"]["jobs"] == 6

    def test_merge_max_takes_max_and_gauges_weight_by_n(self):
        def slow(tel, clock):
            with tel.span("run"):
                clock.advance(5.0)
            tel.gauge("depth", 10.0)

        def fast(tel, clock):
            with tel.span("run"):
                clock.advance(1.0)
            tel.gauge("depth", 1.0)
            tel.gauge("depth", 1.0)

        merged = obs.merge_snapshots([self._snap(slow), self._snap(fast)])
        assert merged["spans"]["run"]["max_s"] == 5.0
        g = merged["gauges"]["depth"]
        assert g["min"] == 1.0
        assert g["max"] == 10.0
        assert g["n"] == 3
        assert g["mean"] == pytest.approx(4.0)

    def test_merge_skips_none_entries(self):
        def build(tel, clock):
            with tel.span("run"):
                clock.advance(1.0)

        merged = obs.merge_snapshots([None, self._snap(build), None])
        assert merged["n_runs"] == 1

    def test_merge_of_nothing_is_empty(self):
        merged = obs.merge_snapshots([None, None])
        assert merged["n_runs"] == 0
        assert merged["spans"] == {}

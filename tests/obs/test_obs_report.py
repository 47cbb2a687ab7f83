"""Tests for :mod:`repro.obs.report` — rendering and artifact I/O."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    load_snapshot,
    phase_coverage,
    render_report,
    span_rows,
    write_snapshot,
)
from repro.obs import telemetry as obs


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def snapshot() -> dict:
    clock = FakeClock()
    tel = obs.Telemetry(clock=clock)
    with tel.span("run"):
        clock.advance(0.5)  # uninstrumented slack
        with tel.span("loop.event"):
            clock.advance(3.0)
        with tel.span("run.finalize"):
            clock.advance(1.5)
    tel.counter("jobs.completed", 42)
    tel.gauge("events.queue_depth", 7.0)
    return tel.snapshot()


class TestPhaseCoverage:
    def test_coverage_is_one_minus_root_self_share(self, snapshot):
        # 0.5 s of 5.0 s unattributed -> 90% coverage.
        assert phase_coverage(snapshot) == pytest.approx(0.9)

    def test_missing_root_is_zero(self, snapshot):
        assert phase_coverage(snapshot, root="nope") == 0.0
        assert phase_coverage({"spans": {}}) == 0.0

    def test_zero_duration_root_is_zero(self):
        tel = obs.Telemetry(clock=FakeClock())
        with tel.span("run"):
            pass
        assert phase_coverage(tel.snapshot()) == 0.0


class TestSpanRows:
    def test_sorted_by_self_time_descending(self, snapshot):
        names = [row[0] for row in span_rows(snapshot)]
        assert names == ["loop.event", "run.finalize", "run"]

    def test_top_limits_rows(self, snapshot):
        assert len(span_rows(snapshot, top=2)) == 2
        assert span_rows(snapshot, top=2)[0][0] == "loop.event"


class TestRenderReport:
    def test_report_sections(self, snapshot):
        text = render_report(snapshot)
        assert "telemetry: 5.000 s wall" in text
        assert "90.0% of the run span attributed to phases" in text
        assert "loop.event" in text
        assert "jobs.completed" in text
        assert "events.queue_depth" in text
        assert "Per s" in text

    def test_report_mentions_run_count_for_rollups(self, snapshot):
        merged = obs.merge_snapshots([snapshot, snapshot])
        assert "across 2 runs" in render_report(merged)

    def test_empty_snapshot_renders(self):
        text = render_report({"spans": {}, "wall_s": 0.0})
        assert "(no spans recorded)" in text

    @staticmethod
    def _per_s(text: str, counter: str) -> str:
        """The ``Per s`` cell of one counter row, as printed."""
        (row,) = [r for r in map(str.split, text.splitlines()) if r[:1] == [counter]]
        return row[-1]

    def test_counter_per_s_is_count_over_wall(self, snapshot):
        # 42 completions over 5.0 s of wall clock.
        assert snapshot["wall_s"] == 5.0
        assert self._per_s(render_report(snapshot), "jobs.completed") == "8.4"

    def test_rollup_per_s_is_summed_count_over_summed_wall(self, snapshot):
        other = dict(snapshot, wall_s=2.0, counters={"jobs.completed": 10})
        merged = obs.merge_snapshots([snapshot, other])
        assert merged["wall_s"] == 7.0
        assert self._per_s(render_report(merged), "jobs.completed") == "7.4"

    def test_zero_wall_counters_read_zero_per_s(self):
        text = render_report({"spans": {}, "wall_s": 0.0, "counters": {"x": 3}})
        assert self._per_s(text, "x") == "0.0"


class TestSchemaOne:
    def test_rates_block_is_ignored(self, snapshot, tmp_path):
        """A schema-1 snapshot still carries ``rates``: it loads, renders
        and merges as if the block were absent."""
        jobs = {"count": 42, "per_s": 8.4, "window_s": 5.0, "window_per_s": 8.4}
        v1 = dict(snapshot, schema=1, rates={"jobs": jobs})
        loaded = load_snapshot(write_snapshot(v1, tmp_path / "telemetry.json"))
        assert loaded == v1
        assert render_report(loaded) == render_report(snapshot)
        merged = obs.merge_snapshots([loaded, snapshot])
        assert "rates" not in merged
        assert merged == obs.merge_snapshots([snapshot, snapshot])


class TestArtifactIO:
    def test_round_trip(self, snapshot, tmp_path):
        path = write_snapshot(snapshot, tmp_path / "deep" / "telemetry.json")
        assert path.is_file()
        assert load_snapshot(path) == snapshot

    def test_load_rejects_non_snapshot(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError, match="not a telemetry snapshot"):
            load_snapshot(bogus)
        bogus.write_text(json.dumps([1, 2]))
        with pytest.raises(ValueError, match="not a telemetry snapshot"):
            load_snapshot(bogus)

    def test_truncated_snapshot_raises(self, snapshot, tmp_path):
        path = write_snapshot(snapshot, tmp_path / "telemetry.json")
        path.write_text(path.read_text()[:10])
        with pytest.raises(json.JSONDecodeError):
            load_snapshot(path)
        assert path.exists()  # reads never delete evidence

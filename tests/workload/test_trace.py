"""Tests for repro.workload.trace."""

import pytest

from repro.sim.job import Job
from repro.workload.trace import (
    read_google_task_events,
    read_trace_csv,
    write_trace_csv,
)


@pytest.fixture
def sample_jobs():
    return [
        Job(0, 0.0, 60.0, (0.5, 0.2, 0.1)),
        Job(1, 12.5, 3600.0, (0.25, 0.125, 0.0625)),
        Job(2, 100.0, 7200.0, (1.0, 1.0, 1.0)),
    ]


class TestCsvRoundtrip:
    def test_roundtrip_exact(self, sample_jobs, tmp_path):
        path = tmp_path / "trace.csv"
        count = write_trace_csv(sample_jobs, path)
        assert count == 3
        back = read_trace_csv(path)
        assert back == sample_jobs
        # repr() serialization keeps floats bit-exact.
        assert back[1].arrival_time == 12.5

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_bad_row_raises(self, tmp_path, sample_jobs):
        path = tmp_path / "trace.csv"
        write_trace_csv(sample_jobs, path)
        with path.open("a") as fh:
            fh.write("1,2\n")
        with pytest.raises(ValueError, match="fields"):
            read_trace_csv(path)

    def test_more_than_three_dims_raises(self, tmp_path):
        # Regression: res[:3] used to silently truncate the 4th dimension,
        # so a write/read round-trip lost data instead of failing loudly.
        jobs = [Job(0, 0.0, 60.0, (0.5, 0.2, 0.1, 0.3))]
        with pytest.raises(ValueError, match="resource dimensions"):
            write_trace_csv(jobs, tmp_path / "t.csv")

    def test_nan_field_raises(self, tmp_path):
        job = Job(0, 0.0, 60.0, (0.5, 0.2, 0.1))
        job.arrival_time = float("nan")  # bypasses __post_init__ validation
        with pytest.raises(ValueError, match="NaN"):
            write_trace_csv([job], tmp_path / "t.csv")

    def test_nan_resource_raises(self, tmp_path):
        job = Job(0, 0.0, 60.0, (0.5, 0.2, 0.1))
        job.resources = (0.5, float("nan"), 0.1)
        with pytest.raises(ValueError, match="NaN"):
            write_trace_csv([job], tmp_path / "t.csv")

    def test_fewer_dims_still_padded(self, tmp_path):
        # <= 3 dims keep the documented zero-padding behaviour.
        path = tmp_path / "t.csv"
        assert write_trace_csv([Job(0, 0.0, 60.0, (0.5, 0.5, 0.5))], path) == 1


def google_row(time_us, job_id, event, cpu, mem, disk):
    return (
        f"{time_us},,{job_id},0,machine,{event},user,class,prio,{cpu},{mem},{disk},0"
    )


class TestGoogleTaskEvents:
    def test_pairs_submit_and_finish(self, tmp_path):
        path = tmp_path / "part-00000.csv"
        rows = [
            google_row(1_000_000, 7, 0, 0.5, 0.25, 0.1),  # submit t=1s
            google_row(121_000_000, 7, 4, 0.5, 0.25, 0.1),  # finish t=121s
            google_row(2_000_000, 8, 0, 0.3, 0.1, 0.1),  # submit t=2s
            google_row(1_000_000_000, 8, 4, 0.3, 0.1, 0.1),  # finish t=1000s
        ]
        path.write_text("\n".join(rows) + "\n")
        jobs = read_google_task_events([path])
        assert len(jobs) == 2
        assert jobs[0].arrival_time == 0.0  # re-based
        assert jobs[0].duration == pytest.approx(120.0)
        assert jobs[0].resources == (0.5, 0.25, 0.1)

    def test_duration_filter(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [
            google_row(0, 1, 0, 0.5, 0.2, 0.1),
            google_row(5_000_000, 1, 4, 0.5, 0.2, 0.1),  # 5 s: too short
            google_row(0, 2, 0, 0.5, 0.2, 0.1),
            google_row(10_000_000_000, 2, 4, 0.5, 0.2, 0.1),  # 10000 s: too long
        ]
        path.write_text("\n".join(rows) + "\n")
        assert read_google_task_events([path]) == []

    def test_unfinished_jobs_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(google_row(0, 1, 0, 0.5, 0.2, 0.1) + "\n")
        assert read_google_task_events([path]) == []

    def test_malformed_rows_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [
            "not,a,valid,row",
            google_row(0, 1, 0, 0.5, 0.2, 0.1),
            google_row(120_000_000, 1, 4, 0.5, 0.2, 0.1),
        ]
        path.write_text("\n".join(rows) + "\n")
        assert len(read_google_task_events([path])) == 1

    def test_invalid_resources_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [
            google_row(0, 1, 0, 0.0, 0.2, 0.1),  # zero cpu request
            google_row(120_000_000, 1, 4, 0.0, 0.2, 0.1),
        ]
        path.write_text("\n".join(rows) + "\n")
        assert read_google_task_events([path]) == []

    def test_sorted_output(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [
            google_row(50_000_000, 2, 0, 0.3, 0.2, 0.1),
            google_row(200_000_000, 2, 4, 0.3, 0.2, 0.1),
            google_row(1_000_000, 1, 0, 0.5, 0.2, 0.1),
            google_row(121_000_000, 1, 4, 0.5, 0.2, 0.1),
        ]
        path.write_text("\n".join(rows) + "\n")
        jobs = read_google_task_events([path])
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)


class TestGoogleIncarnations:
    """Job-ID reuse (RESUBMIT cycles) must pair per incarnation.

    Regression: the reader used to pair the *first* SUBMIT with the
    *first* FINISH per job ID, so ID reuse fabricated one wrong-duration
    job and dropped the rest.
    """

    def test_id_reuse_yields_one_job_per_incarnation(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [
            google_row(0, 5, 0, 0.5, 0.2, 0.1),  # incarnation A: submit t=0
            google_row(100_000_000, 5, 4, 0.5, 0.2, 0.1),  # finish t=100
            google_row(1_000_000_000, 5, 0, 0.3, 0.3, 0.3),  # B: submit t=1000
            google_row(1_200_000_000, 5, 4, 0.3, 0.3, 0.3),  # finish t=1200
        ]
        path.write_text("\n".join(rows) + "\n")
        jobs = read_google_task_events([path])
        expected = [pytest.approx(100.0), pytest.approx(200.0)]
        assert [j.duration for j in jobs] == expected
        assert jobs[0].resources == (0.5, 0.2, 0.1)
        assert jobs[1].resources == (0.3, 0.3, 0.3)

    def test_reuse_with_out_of_order_rows(self, tmp_path):
        # The second incarnation's rows appear *first* in the file; pairing
        # must follow timestamps, not file order.
        path = tmp_path / "p.csv"
        rows = [
            google_row(1_000_000_000, 5, 0, 0.3, 0.3, 0.3),  # B submit t=1000
            google_row(1_200_000_000, 5, 4, 0.3, 0.3, 0.3),  # B finish t=1200
            google_row(0, 5, 0, 0.5, 0.2, 0.1),  # A submit t=0
            google_row(100_000_000, 5, 4, 0.5, 0.2, 0.1),  # A finish t=100
        ]
        path.write_text("\n".join(rows) + "\n")
        jobs = read_google_task_events([path])
        expected = [pytest.approx(100.0), pytest.approx(200.0)]
        assert [j.duration for j in jobs] == expected

    def test_filtered_incarnation_does_not_consume_the_next(self, tmp_path):
        # Incarnation A is too short to keep, but its FINISH must still
        # close it so incarnation B pairs with its own SUBMIT.
        path = tmp_path / "p.csv"
        rows = [
            google_row(0, 9, 0, 0.5, 0.2, 0.1),  # A submit t=0
            google_row(5_000_000, 9, 4, 0.5, 0.2, 0.1),  # A finish t=5 (< 60 s)
            google_row(100_000_000, 9, 0, 0.5, 0.2, 0.1),  # B submit t=100
            google_row(400_000_000, 9, 4, 0.5, 0.2, 0.1),  # B finish t=400
        ]
        path.write_text("\n".join(rows) + "\n")
        jobs = read_google_task_events([path])
        assert [j.duration for j in jobs] == [pytest.approx(300.0)]

    def test_finish_without_submit_ignored(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [
            google_row(0, 3, 4, 0.5, 0.2, 0.1),  # orphan finish (window cut)
            google_row(10_000_000, 3, 0, 0.5, 0.2, 0.1),  # submit t=10
            google_row(130_000_000, 3, 4, 0.5, 0.2, 0.1),  # finish t=130
        ]
        path.write_text("\n".join(rows) + "\n")
        jobs = read_google_task_events([path])
        assert [j.duration for j in jobs] == [pytest.approx(120.0)]

    def test_duplicate_submit_keeps_first(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [
            google_row(0, 4, 0, 0.5, 0.2, 0.1),
            google_row(20_000_000, 4, 0, 0.9, 0.9, 0.9),  # duplicate submit
            google_row(120_000_000, 4, 4, 0.5, 0.2, 0.1),
        ]
        path.write_text("\n".join(rows) + "\n")
        jobs = read_google_task_events([path])
        assert len(jobs) == 1
        assert jobs[0].duration == pytest.approx(120.0)
        assert jobs[0].resources == (0.5, 0.2, 0.1)

    def test_reuse_across_files(self, tmp_path):
        # Incarnations split across part files still pair by timestamp.
        a, b = tmp_path / "part-0.csv", tmp_path / "part-1.csv"
        a.write_text(
            "\n".join(
                [
                    google_row(0, 6, 0, 0.5, 0.2, 0.1),
                    google_row(90_000_000, 6, 4, 0.5, 0.2, 0.1),
                ]
            )
            + "\n"
        )
        b.write_text(
            "\n".join(
                [
                    google_row(500_000_000, 6, 0, 0.4, 0.2, 0.1),
                    google_row(700_000_000, 6, 4, 0.4, 0.2, 0.1),
                ]
            )
            + "\n"
        )
        jobs = read_google_task_events([a, b])
        assert [j.duration for j in jobs] == [pytest.approx(90.0), pytest.approx(200.0)]


class TestStreamingMerge:
    """The heapq.merge ingestion path must reproduce buffer-and-sort."""

    def make_jobs(self, rng, n, t0=0.0, span=3600.0, id_base=1000):
        rows = []
        for i in range(n):
            t = t0 + float(rng.uniform(0.0, span))
            d = float(rng.uniform(90.0, 2000.0))
            job_id = id_base + i
            ts = int(t * 1e6)
            rows.append((ts, google_row(ts, job_id, 0, 0.4, 0.2, 0.1)))
            t1 = int((t + d) * 1e6)
            rows.append((t1, google_row(t1, job_id, 4, 0.4, 0.2, 0.1)))
        return rows

    def test_split_part_files_match_single_file(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(7)
        rows = sorted(
            self.make_jobs(rng, 30) + self.make_jobs(rng, 30, t0=1800.0),
            key=lambda r: r[0],
        )
        whole = tmp_path / "all.csv"
        whole.write_text("\n".join(text for _, text in rows) + "\n")
        # Time-partitioned part files (each sorted — the streaming path).
        mid = len(rows) // 2
        a, b = tmp_path / "part-0.csv", tmp_path / "part-1.csv"
        a.write_text("\n".join(text for _, text in rows[:mid]) + "\n")
        b.write_text("\n".join(text for _, text in rows[mid:]) + "\n")
        assert read_google_task_events([a, b]) == read_google_task_events([whole])

    def test_out_of_order_rows_within_a_file_still_handled(self, tmp_path):
        # Regression: per-file sortedness is NOT assumed — a shuffled
        # file must parse identically to its sorted twin (the pre-merge
        # buffer-and-sort behavior).
        import numpy as np

        rng = np.random.default_rng(11)
        rows = self.make_jobs(rng, 25)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        sorted_path = tmp_path / "sorted.csv"
        shuffled_path = tmp_path / "shuffled.csv"
        sorted_path.write_text(
            "\n".join(text for _, text in sorted(rows, key=lambda r: r[0])) + "\n"
        )
        shuffled_path.write_text("\n".join(text for _, text in shuffled) + "\n")
        assert read_google_task_events([shuffled_path]) == read_google_task_events(
            [sorted_path]
        )

    def test_sorted_files_take_the_streaming_path(self, tmp_path):
        from repro.workload.trace import _task_file_is_sorted

        import numpy as np

        rng = np.random.default_rng(3)
        rows = self.make_jobs(rng, 10)
        sorted_path = tmp_path / "sorted.csv"
        sorted_path.write_text(
            "\n".join(text for _, text in sorted(rows, key=lambda r: r[0])) + "\n"
        )
        assert _task_file_is_sorted(sorted_path)
        # The committed fixture deliberately carries an out-of-order
        # region, so it exercises the buffered fallback.
        assert not _task_file_is_sorted(
            __import__("pathlib").Path("tests/fixtures/google_task_events_small.csv")
        )

    def test_mixed_sorted_and_unsorted_files_merge_in_time_order(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(13)
        sorted_rows = sorted(self.make_jobs(rng, 15), key=lambda r: r[0])
        messy_rows = self.make_jobs(rng, 15, t0=500.0, id_base=5000)
        rng.shuffle(messy_rows)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("\n".join(text for _, text in sorted_rows) + "\n")
        b.write_text("\n".join(text for _, text in messy_rows) + "\n")
        jobs = read_google_task_events([a, b])
        assert len(jobs) == 30
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)

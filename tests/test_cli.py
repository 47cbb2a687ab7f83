"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.scenarios.builtin import FIXTURE_TRACE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.jobs == 3000
        assert args.servers == "30,40"
        assert args.seed == 0

    @pytest.mark.parametrize("cmd", ["fig8", "fig9", "fig10", "workload"])
    def test_subcommands_exist(self, cmd):
        args = build_parser().parse_args([cmd, "--jobs", "123", "--seed", "9"])
        assert args.command == cmd
        assert args.jobs == 123
        assert args.seed == 9

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig11"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__
        from repro.obs.kernel import blas_kernel

        version, blas = capsys.readouterr().out.splitlines()
        assert version == f"repro {__version__}"
        kernel = blas_kernel()
        if kernel is not None:
            assert blas.endswith(f", core {kernel['core']}")

    def test_scenario_subcommands_parse(self):
        args = build_parser().parse_args(["scenario", "list"])
        assert (args.command, args.action) == ("scenario", "list")
        args = build_parser().parse_args(
            ["scenario", "run", "--name", "paper-default", "--jobs", "50"]
        )
        assert (args.action, args.name, args.jobs) == ("run", "paper-default", 50)
        args = build_parser().parse_args(
            ["scenario", "sweep", "--systems", "packing", "--workers", "2", "--force"]
        )
        assert (args.action, args.systems, args.workers, args.force) == (
            "sweep", "packing", 2, True,
        )

    def test_scenario_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    @pytest.mark.parametrize("flag", ["--shards", "--workers"])
    def test_scenario_run_takes_no_shard_options(self, capsys, flag):
        # `scenario run` evaluates one continuous trace: no shard split,
        # so no shard pool either.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["scenario", "run", "paper-default", flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_sweep_resume_and_warm_start_flags(self):
        args = build_parser().parse_args(
            ["scenario", "sweep", "--resume", "--no-warm-start",
             "--series-out", "series.csv"]
        )
        assert args.resume and args.no_warm_start
        assert str(args.series_out) == "series.csv"
        args = build_parser().parse_args(["scenario", "sweep"])
        assert not args.resume and not args.no_warm_start
        assert args.series_out is None

    def test_run_warm_flag(self):
        args = build_parser().parse_args(
            ["scenario", "run", "--name", "paper-default", "--warm"]
        )
        assert args.warm
        assert str(args.cache_dir) == ".repro-cache"


class TestExecution:
    def test_workload_prints_characterization(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["workload", "--jobs", "200", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "offered load" in captured
        assert out.exists()
        from repro.workload.trace import read_trace_csv

        assert len(read_trace_csv(out)) == 200

    def test_systems_lists_every_named_system(self, capsys):
        rc = main(["systems"])
        assert rc == 0
        captured = capsys.readouterr().out
        from repro.harness.runner import SYSTEM_NAMES

        for name in SYSTEM_NAMES:
            assert name in captured

    def test_scenario_list_shows_six(self, capsys):
        rc = main(["scenario", "list"])
        assert rc == 0
        captured = capsys.readouterr().out
        from repro.scenarios import registry

        assert len(registry.names()) >= 6
        for name in registry.names():
            assert name in captured

    def test_scenario_run_tiny(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--name", "paper-default",
                   "--system", "packing", "--jobs", "60",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "paper-default" in captured
        assert "energy" in captured

    def test_scenario_run_journals_schema_v7_result(self, capsys, tmp_path):
        import json

        from repro.scenarios.store import SCHEMA_VERSION

        rc = main(["scenario", "run", "--name", "paper-default",
                   "--system", "packing", "--jobs", "60",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        records = list(tmp_path.glob("*/*.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["schema"] == SCHEMA_VERSION == 7
        assert "cost_series" in record["result"]
        assert "co2_series" in record["result"]
        assert record["result"]["failed_jobs"] == 0
        assert record["result"]["goodput"] == 1.0

    def test_scenario_run_journal_is_a_sweep_cache_hit(self, capsys, tmp_path):
        # A journaled `scenario run` cell must come back cached when a
        # sweep later covers the same point.
        rc = main(["scenario", "run", "--name", "paper-default",
                   "--system", "packing", "--jobs", "60",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        rc = main(["scenario", "sweep", "--scenarios", "paper-default",
                   "--systems", "packing", "--jobs", "60", "--workers", "1",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "1 cached, 0 computed" in capsys.readouterr().out

    def test_warm_drl_run_is_a_sweep_cache_hit_and_checkpoint(self, capsys, tmp_path):
        # `scenario run --warm` trains, runs and journals under the
        # sweep's protocol: a later sweep finds the cell journaled and
        # the policy checkpointed, and trains nothing.
        rc = main(["scenario", "run", "--name", "paper-default",
                   "--system", "hierarchical", "--warm", "--jobs", "60",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["scenario", "sweep", "--scenarios", "paper-default",
                   "--systems", "hierarchical,drl-only", "--jobs", "60",
                   "--workers", "1", "--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "1 cached, 1 computed" in captured.out
        assert "1 checkpointed, 0 to train" in captured.err

    def test_scenario_run_google_replay_fixture(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--name", "google-replay",
                   "--trace", FIXTURE_TRACE,
                   "--jobs", "80", "--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "google-replay" in captured
        assert "electricity" in captured  # tariff-backed cost/CO₂ line
        assert len(list(tmp_path.glob("*/*.json"))) == 1

    def test_scenario_run_trace_reroutes_any_scenario(self, capsys, tmp_path):
        # --trace turns a synthetic scenario into a replay of the files.
        rc = main(["scenario", "run", "--name", "tou-price-shift",
                   "--trace", FIXTURE_TRACE,
                   "--jobs", "40", "--cache-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "tou-price-shift" in captured
        assert "electricity" in captured

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--cell-retries", "-1"),
            ("--cell-timeout", "-1"),
            ("--cell-timeout", "0"),
            ("--systems", "nope"),
            ("--systems", "drl+fixed-3O,hierarchical"),
            ("--jobs", "0"),
            ("--scenarios", "nope"),
            ("--systems", ","),
            ("--scenarios", ","),
            ("--seeds", "x"),
            ("--seeds", ","),
            ("--seeds", "-1"),
        ],
    )
    def test_sweep_rejects_out_of_range_execution_knobs(
        self, capsys, tmp_path, flag, value
    ):
        rc = main(["scenario", "sweep", "--scenarios", "paper-default",
                   "--systems", "round-robin,packing", "--jobs", "60",
                   "--cache-dir", str(tmp_path / "cache"), flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--name", "nope"),
            ("--system", "nope"),
            ("--system", "hierarchicalZ"),
            ("--jobs", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_run_rejects_bad_input_before_running(
        self, capsys, tmp_path, flag, value
    ):
        rc = main(["scenario", "run", "--name", "paper-default",
                   "--system", "round-robin", "--jobs", "60",
                   "--cache-dir", str(tmp_path / "cache"), flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["table1", "fig8", "fig9", "fig10", "workload"])
    @pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--seed", "-1")])
    def test_paper_commands_reject_bad_input_before_running(
        self, capsys, tmp_path, command, flag, value
    ):
        out = tmp_path / "out.txt"
        rc = main([command, "--jobs", "60", "--out", str(out), flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("servers", ["4,x", "0", "6,0", "", "4,-2", "4.5"])
    def test_table1_rejects_bad_servers_before_running(
        self, capsys, tmp_path, monkeypatch, servers
    ):
        import repro.harness.table1 as table1_module

        def no_run(*args, **kwargs):
            raise AssertionError("ran before checking --servers")

        monkeypatch.setattr(table1_module, "run_table1", no_run)
        out = tmp_path / "out.txt"
        rc = main(["table1", "--jobs", "60", "--servers", servers, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_pool_size_counts_trainings(self, capsys, tmp_path):
        # One training plus two warm-started cells: a pool of three, not
        # of the two cells alone.
        argv = ["scenario", "sweep", "--scenarios", "paper-default",
                "--systems", "drl-only,drl+fixed-30", "--jobs", "60",
                "--workers", "4", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "pool size 3" in capsys.readouterr().out
        assert main(argv) == 0
        assert "all cells cached, no pool" in capsys.readouterr().out

    @pytest.mark.slow
    def test_scenario_sweep_with_cache(self, capsys, tmp_path):
        argv = ["scenario", "sweep", "--scenarios", "paper-default",
                "--systems", "round-robin,packing", "--jobs", "60",
                "--workers", "2", "--cache-dir", str(tmp_path / "cache")]
        rc = main(argv)
        assert rc == 0
        first = capsys.readouterr().out
        assert "2 computed" in first
        rc = main(argv)
        assert rc == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 computed" in second

    def test_sweep_resume_conflicts_with_force(self, capsys):
        rc = main(["scenario", "sweep", "--resume", "--force"])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_sweep_resume_requires_a_journal(self, capsys, tmp_path):
        rc = main(["scenario", "sweep", "--resume",
                   "--cache-dir", str(tmp_path / "empty")])
        assert rc == 2
        assert "nothing to resume" in capsys.readouterr().err

    @pytest.mark.slow
    def test_sweep_series_out(self, capsys, tmp_path):
        series = tmp_path / "series.csv"
        rc = main(["scenario", "sweep", "--scenarios", "paper-default",
                   "--systems", "round-robin", "--jobs", "60",
                   "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
                   "--series-out", str(series)])
        assert rc == 0
        text = series.read_text()
        assert text.startswith("scenario,system,series,n_jobs,value,n_seeds")
        assert "paper-default,round-robin,latency," in text
        assert "paper-default,round-robin,energy," in text

    @pytest.mark.slow
    def test_table1_tiny_run(self, capsys):
        rc = main(["table1", "--jobs", "200", "--servers", "4", "--seed", "0"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "round-robin" in captured
        assert "hierarchical" in captured
        assert "M=4" in captured

    @pytest.mark.slow
    def test_fig8_csv_to_file(self, tmp_path):
        out = tmp_path / "fig8.csv"
        rc = main(["fig8", "--jobs", "200", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "acc_latency_s" in text
        assert "energy_kwh" in text


class TestScenarioRunPositional:
    def test_positional_name_accepted(self, capsys, tmp_path):
        rc = main(["scenario", "run", "google-replay",
                   "--trace", FIXTURE_TRACE,
                   "--jobs", "40", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "google-replay" in capsys.readouterr().out

    def test_missing_name_errors(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "scenario name" in capsys.readouterr().err

    def test_conflicting_names_error(self, capsys, tmp_path):
        rc = main(["scenario", "run", "paper-default", "--name", "tenant-mix",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2


class TestObsCli:
    def test_scenario_run_profile_writes_telemetry(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--name", "paper-default",
                   "--system", "packing", "--jobs", "60",
                   "--cache-dir", str(tmp_path), "--profile"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Span" in captured.out  # rendered self-time breakdown
        tel_path = tmp_path / "telemetry.json"
        assert tel_path.is_file()
        import json

        snapshot = json.loads(tel_path.read_text())
        assert "run" in snapshot["spans"]
        assert snapshot["counters"]["jobs.completed"] == 60

    def test_obs_report_renders_artifact(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--name", "paper-default",
                   "--system", "packing", "--jobs", "60",
                   "--cache-dir", str(tmp_path), "--profile"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["obs", "report", str(tmp_path / "telemetry.json"),
                   "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "Span" in out

    def test_obs_report_rejects_non_snapshot(self, capsys, tmp_path):
        bogus = tmp_path / "not_telemetry.json"
        bogus.write_text("{\"foo\": 1}")
        rc = main(["obs", "report", str(bogus)])
        assert rc == 2
        assert "not a telemetry snapshot" in capsys.readouterr().err

    def test_sweep_profile_rolls_up(self, capsys, tmp_path):
        rc = main(["scenario", "sweep", "--scenarios", "paper-default",
                   "--systems", "packing", "--jobs", "60", "--workers", "1",
                   "--cache-dir", str(tmp_path), "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Span" in out
        import json

        snapshot = json.loads((tmp_path / "telemetry.json").read_text())
        assert snapshot["n_runs"] == 1
        assert "run" in snapshot["spans"]

    def test_log_level_flag(self, capsys, tmp_path):
        import logging

        rc = main(["--log-level", "DEBUG", "systems"])
        assert rc == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        rc = main(["systems"])  # default restores WARNING
        assert rc == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_unknown_log_level_errors(self, capsys):
        rc = main(["--log-level", "LOUD", "systems"])
        assert rc == 2
        assert "unknown log level" in capsys.readouterr().err

"""Registry behavior and builtin-suite round trips."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness.runner import Protocol, make_system
from repro.scenarios import registry
from repro.scenarios.orchestrator import run_cell
from repro.scenarios.specs import ScenarioSpec
from tests.helpers import run_cluster


class TestRegistry:
    def test_at_least_six_builtins(self):
        names = registry.names()
        assert len(names) >= 6
        for expected in (
            "paper-default",
            "diurnal-heavy",
            "flash-crowd",
            "hetero-fleet",
            "maintenance-churn",
            "tenant-mix",
        ):
            assert expected in names

    def test_get_unknown_lists_known(self):
        with pytest.raises(KeyError, match="paper-default"):
            registry.get("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        spec = ScenarioSpec(name="test-dup", description="")
        registry.register(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                registry.register(spec)
            replacement = ScenarioSpec(name="test-dup", description="v2")
            assert registry.register(replacement, overwrite=True) is replacement
        finally:
            registry._REGISTRY.pop("test-dup", None)

    def test_catalog_mentions_every_scenario(self):
        catalog = registry.scenario_catalog()
        for name in registry.names():
            assert name in catalog


class TestBuiltinRoundTrip:
    @pytest.mark.parametrize("name", [
        "paper-default",
        "diurnal-heavy",
        "flash-crowd",
        "hetero-fleet",
        "maintenance-churn",
        "tenant-mix",
        "carbon-aware-diurnal",
        "tou-price-shift",
        "correlated-fleet",
    ])
    def test_builds_and_simulates(self, name):
        """Every builtin produces a runnable config, traces, and churn plan."""
        spec = registry.get(name)
        config = spec.site_experiment_config(0, seed=0)
        assert config.num_servers == spec.fleet.num_servers
        eval_jobs, train = spec.build_traces(80, seed=0)
        assert len(eval_jobs) >= 80  # flash crowds may add extras
        assert train
        system = make_system("round-robin", config)
        events = spec.capacity_events(spec.horizon_for(80))
        result = run_cluster(
            system, eval_jobs, Protocol(record_every=50), capacity_events=events
        )
        assert result.n_jobs == len(eval_jobs)
        assert result.energy_kwh > 0


class TestNewBuiltins:
    def test_all_ten_registered(self):
        names = registry.names()
        for expected in (
            "google-replay",
            "carbon-aware-diurnal",
            "tou-price-shift",
            "correlated-fleet",
        ):
            assert expected in names
        assert len(names) >= 10

    def test_google_replay_round_trip(self, tmp_path):
        """The replay builtin runs end-to-end against the bundled fixture."""
        spec = registry.get("google-replay")
        eval_jobs, train = spec.build_traces(80, seed=0)
        assert len(eval_jobs) == 80
        assert train and all(train)
        system = make_system("round-robin", spec.site_experiment_config(0, seed=0))
        result = run_cluster(
            system, eval_jobs, Protocol(record_every=50), tariff=spec.tariff
        )
        assert result.n_jobs == 80
        assert result.energy_kwh > 0
        assert result.cost_usd > 0
        assert result.co2_kg > 0
        assert len(result.cost_series) == len(result.energy_series)

    def test_google_replay_runs_from_a_copy_of_src_alone(self, tmp_path):
        """The fixture is package data: a copy of ``src/`` and nothing
        else, run from an unrelated directory, replays it and gets this
        tree's numbers."""
        src = Path(repro.__file__).resolve().parents[1]
        shutil.copytree(
            src, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        cwd = tmp_path / "elsewhere"
        cwd.mkdir()
        code = (
            "import json, repro\n"
            "from repro.scenarios.builtin import FIXTURE_TRACE\n"
            "from repro.scenarios.orchestrator import run_cell\n"
            "cell = run_cell('google-replay', 'round-robin', n_jobs=40, seed=0)\n"
            "print(json.dumps([repro.__file__, FIXTURE_TRACE, cell]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        module, fixture, cell = json.loads(done.stdout)
        assert Path(module).is_relative_to(tmp_path / "src")
        assert Path(fixture).is_relative_to(tmp_path / "src")
        assert cell["n_jobs_completed"] == 40
        assert cell == run_cell("google-replay", "round-robin", n_jobs=40, seed=0)

    def test_electricity_scenarios_carry_tariffs(self):
        assert registry.get("carbon-aware-diurnal").tariff is not None
        assert registry.get("tou-price-shift").tariff is not None
        assert registry.get("tou-price-shift").tariff.price_windows
        assert registry.get("carbon-aware-diurnal").tariff.carbon_windows

    def test_correlated_fleet_couples_bursts(self):
        spec = registry.get("correlated-fleet")
        assert spec.workload.burst_coupling == 1.0
        assert len(spec.workload.classes) == 2

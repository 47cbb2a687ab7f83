"""Tests for repro.harness.runner."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.baselines import FixedTimeoutPolicy
from repro.core.global_tier import DRLGlobalBroker
from repro.harness.runner import (
    PAPER_PROTOCOL,
    SWEEP_PROTOCOL,
    SYSTEM_NAMES,
    Protocol,
    check_system,
    make_system,
    needs_global_tier,
    run_system,
    standard_protocol,
    train_site_policy,
)
from repro.sim.job import Job
from tests.helpers import NO_TRAINING, ONE_EPOCH, run_cluster


def jobs_burst(n, spacing=30.0):
    return [Job(i, i * spacing, 40.0, (0.3, 0.1, 0.1)) for i in range(n)]


@pytest.fixture
def train_traces():
    return [jobs_burst(15), jobs_burst(15)]


class TestProtocol:
    def test_named_values(self):
        assert PAPER_PROTOCOL == Protocol(True, 2, 2, 200)
        assert SWEEP_PROTOCOL == Protocol(True, 1, 1, 200)

    @pytest.mark.parametrize(
        "changes",
        [
            dict(pretrain=False),
            dict(online_epochs=0, local_epochs=0),
            dict(online_epochs=5, local_epochs=3),
            dict(record_every=1),
        ],
    )
    def test_accepts_every_valid_value(self, changes):
        protocol = replace(PAPER_PROTOCOL, **changes)
        assert pickle.loads(pickle.dumps(protocol)) == protocol

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pretrain", 1),
            ("pretrain", None),
            ("online_epochs", -3),
            ("online_epochs", 2.0),
            ("online_epochs", True),
            ("local_epochs", -1),
            ("local_epochs", np.int64(1)),
            ("record_every", 0),
            ("record_every", -200),
            ("record_every", 200.0),
        ],
    )
    def test_rejects_a_value_that_would_key_apart_or_not_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(PAPER_PROTOCOL, **{field: value})


class TestNeedsGlobalTier:
    @pytest.mark.parametrize("name,expected", [
        ("round-robin", False),
        ("random", False),
        ("least-loaded", False),
        ("packing", False),
        ("drl-only", True),
        ("drl+fixed-60", True),
        ("hierarchical", True),
        ("drl+fixed-3O", False),
        ("drl-onlyX", False),
        ("drl+fixed-", False),
        ("hierarchicalZ", False),
        ("drl+fixed-0.5", True),
        ("drl+fixed-1e+06", False),
    ])
    def test_classification(self, name, expected):
        assert needs_global_tier(name) is expected


class TestCheckSystem:
    def test_accepts_named_and_fixed_timeout_systems(self):
        for name in (*SYSTEM_NAMES, "drl+fixed-45", "drl+fixed-0.5"):
            check_system(name)

    @pytest.mark.parametrize(
        "name", ["drl+fixed-1e+06", "", "Hierarchical", "packing ", "round_robin"]
    )
    def test_rejects_names_that_only_resemble_one(self, name):
        with pytest.raises(ValueError, match="unknown system") as excinfo:
            check_system(name)
        assert "drl+fixed-T" in str(excinfo.value)


class TestMakeSystem:
    @pytest.mark.parametrize(
        "name", ["round-robin", "random", "least-loaded", "packing"]
    )
    def test_static_baselines_build(self, small_config, name):
        system = make_system(name, small_config)
        assert system.name == name

    @pytest.mark.parametrize(
        "name",
        ["mystery", "drl+fixed-3O", "drl-onlyX", "drl+fixed-", "hierarchicalZ"],
    )
    def test_unknown_name_raises(self, small_config, name):
        with pytest.raises(ValueError, match="unknown system"):
            make_system(name, small_config)

    def test_fixed_timeout_parse(self, small_config, train_traces):
        system = make_system(
            "drl+fixed-45", small_config, train_traces, protocol=NO_TRAINING
        )
        assert isinstance(system.policies, FixedTimeoutPolicy)
        assert system.policies.timeout == 45.0

    def test_drl_only_without_prototype_trains_fresh(self, small_config, train_traces):
        system = make_system("drl-only", small_config, train_traces, protocol=ONE_EPOCH)
        broker = system.broker
        assert isinstance(broker, DRLGlobalBroker)
        assert broker.decision_epochs > 0  # saw the training traces

    def test_local_w_override(self, small_config, train_traces):
        system = make_system(
            "hierarchical",
            small_config,
            train_traces,
            protocol=NO_TRAINING,
            local_w=0.77,
        )
        assert system.config.local_tier.w == 0.77


class TestSitePolicy:
    def test_systems_built_from_one_policy_are_independent(
        self, small_config, train_traces, rng
    ):
        policy = train_site_policy(small_config, train_traces, ONE_EPOCH)
        a = make_system("drl-only", small_config, policy=policy)
        b = make_system("drl+fixed-30", small_config, policy=policy)
        assert a.broker is not b.broker
        assert a.broker.qnet is not b.broker.qnet
        state = rng.uniform(size=a.broker.encoder.state_dim)
        assert np.array_equal(
            a.broker.qnet.q_values(state), b.broker.qnet.q_values(state)
        )
        for system in (a, b):
            assert system.broker.epsilon == policy.epsilon
            assert len(system.broker.replay) == 0

    def test_geometry_mismatch_raises(self, small_config, train_traces):
        policy = train_site_policy(small_config, train_traces, NO_TRAINING)
        bigger = replace(small_config, num_servers=2 * small_config.num_servers)
        with pytest.raises(ValueError, match="geometry"):
            policy.broker(bigger)

    def test_predictor_without_weights_raises(self, small_config, train_traces):
        policy = train_site_policy(small_config, train_traces, NO_TRAINING)
        assert policy.predictor_state is None
        with pytest.raises(ValueError, match="predictor"):
            policy.predictor(small_config, seed=0)
        with pytest.raises(ValueError, match="predictor"):
            make_system("hierarchical", small_config, policy=policy)


class TestRunAndProtocol:
    def test_run_system_preserves_input_jobs(self, small_config):
        system = make_system("round-robin", small_config)
        jobs = jobs_burst(10)
        result = run_system(system, jobs)
        assert result.n_jobs == 10
        assert all(j.server_id is None for j in jobs)  # copies were run

    def test_run_result_units(self, small_config):
        system = make_system("round-robin", small_config)
        result = run_system(system, jobs_burst(10))
        assert result.acc_latency_1e6 == pytest.approx(result.acc_latency / 1e6)
        assert result.energy_per_job_wh == pytest.approx(
            result.energy_kwh * 1000 / result.n_jobs
        )

    def test_standard_protocol_shares_prototype(self, small_config, train_traces):
        results = standard_protocol(
            ("round-robin", "drl-only", "hierarchical"),
            jobs_burst(20),
            small_config,
            train_traces,
            ONE_EPOCH,
        )
        assert set(results) == {"round-robin", "drl-only", "hierarchical"}
        for result in results.values():
            assert result.n_jobs == 20

    def test_standard_protocol_checks_names_before_training(
        self, small_config, train_traces, monkeypatch
    ):
        import repro.harness.runner as runner_module

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the system names")

        monkeypatch.setattr(runner_module, "train_site_policy", no_training)
        with pytest.raises(ValueError, match="unknown system 'hierarchicalZ'"):
            standard_protocol(
                ("drl-only", "hierarchicalZ"), jobs_burst(5), small_config, train_traces
            )

    def test_series_attached(self, small_config):
        system = make_system("round-robin", small_config)
        result = run_system(system, jobs_burst(10), Protocol(record_every=5))
        assert result.latency_series[-1][0] == 10
        assert result.energy_series[-1][0] == 10


class TestScenarioConstruction:
    def test_build_cell_from_registered_scenario(self):
        from repro.scenarios import registry
        from repro.scenarios.federation import build_cell

        spec = registry.get("maintenance-churn")
        (system,), _, (eval_jobs,) = build_cell(
            "packing", spec, 60, SWEEP_PROTOCOL, seed=1
        )
        events = spec.capacity_events(spec.horizon_for(60))
        assert system.name == "packing"
        assert system.config.num_servers == 30
        assert len(eval_jobs) == 60
        assert events  # churn scenario schedules drains
        result = run_cluster(system, eval_jobs, capacity_events=events)
        assert result.n_jobs == 60

    def test_descriptions_cover_system_names(self):
        from repro.harness.runner import SYSTEM_DESCRIPTIONS

        for name in SYSTEM_NAMES:
            assert name in SYSTEM_DESCRIPTIONS

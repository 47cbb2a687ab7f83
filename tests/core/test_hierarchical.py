"""Tests for repro.core.hierarchical: the systems make_system wires."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.baselines import AlwaysOnPolicy, ImmediateSleepPolicy, RoundRobinBroker
from repro.core.global_tier import DRLGlobalBroker
from repro.core.hierarchical import per_server_interarrivals, pretrain_predictor
from repro.core.local_tier import RLPowerPolicy
from repro.core.predictor import WorkloadPredictor
from repro.harness.runner import make_system
from repro.sim.job import Job
from repro.sim.power import PowerModel


def jobs_burst(n, spacing=30.0):
    return [Job(i, i * spacing, 40.0, (0.3, 0.1, 0.1)) for i in range(n)]


class TestBuilders:
    def test_round_robin_composition(self, small_config):
        system = make_system("round-robin", small_config)
        assert isinstance(system.broker, RoundRobinBroker)
        assert isinstance(system.policies, AlwaysOnPolicy)
        assert system.initially_on

    def test_drl_only_composition(self, small_config):
        system = make_system("drl-only", small_config)
        assert isinstance(system.broker, DRLGlobalBroker)
        assert isinstance(system.policies, ImmediateSleepPolicy)
        assert not system.initially_on

    def test_hierarchical_composition(self, small_config):
        system = make_system("hierarchical", small_config)
        assert isinstance(system.broker, DRLGlobalBroker)
        assert isinstance(system.policies, list)
        assert len(system.policies) == small_config.num_servers
        assert all(isinstance(p, RLPowerPolicy) for p in system.policies)

    def test_hierarchical_shares_predictor(self, small_config):
        system = make_system("hierarchical", small_config)
        predictors = {id(p.predictor) for p in system.policies}
        assert len(predictors) == 1

    def test_hierarchical_per_server_learners_option(self, small_config):
        system = make_system("hierarchical", small_config, shared_dpm_learner=False)
        learners = {id(p.learner) for p in system.policies}
        assert len(learners) == small_config.num_servers

    def test_hierarchical_shared_learner_by_default(self, small_config):
        system = make_system("hierarchical", small_config)
        learners = {id(p.learner) for p in system.policies}
        assert len(learners) == 1

    def test_run_executes(self, small_config):
        system = make_system("round-robin", small_config)
        result = system.run(jobs_burst(10))
        assert result.metrics.n_completed == 10

    def test_run_builds_its_site_from_the_config(self, small_config):
        models = tuple(
            PowerModel(idle_power=80.0 + i, peak_power=150.0) for i in range(4)
        )
        config = replace(small_config, overload_threshold=0.5, power_models=models)
        result = make_system("packing", config).run(jobs_burst(10))
        servers = result.cluster.servers
        assert [s.overload_threshold for s in servers] == [0.5] * 4
        assert [s.power_model for s in servers] == list(models)
        assert all(s.num_resources == config.num_resources for s in servers)

    def test_freeze_propagates(self, small_config):
        system = make_system("hierarchical", small_config)
        system.freeze()
        assert system.broker.epsilon == 0.0
        assert all(not p.learning_enabled for p in system.policies)

    def test_reusing_system_across_runs(self, small_config):
        # Learning systems are reused across runs (training protocol);
        # simulated time restarting at 0 must not break anything.
        system = make_system("hierarchical", small_config)
        system.run(jobs_burst(10))
        result = system.run(jobs_burst(10))
        assert result.metrics.n_completed == 10


class TestPredictorPretraining:
    def test_per_server_interarrivals_strided(self):
        jobs = [Job(i, float(10 * i), 5.0, (0.1, 0.1, 0.1)) for i in range(10)]
        series = per_server_interarrivals(jobs, num_servers=2)
        # Strided differences: t[i+2] - t[i] = 20 for all i.
        assert np.allclose(series, 20.0)
        assert series.size == 8

    def test_too_short_trace_raises(self):
        jobs = [Job(0, 0.0, 5.0, (0.1, 0.1, 0.1))]
        with pytest.raises(ValueError):
            per_server_interarrivals(jobs, num_servers=2)

    def test_invalid_servers_raises(self):
        with pytest.raises(ValueError):
            per_server_interarrivals([], num_servers=0)

    def test_pretrain_predictor_fits(self, small_config, rng):
        predictor = WorkloadPredictor(small_config.local_tier.predictor, rng=rng)
        jobs = jobs_burst(60, spacing=15.0)
        history = pretrain_predictor(predictor, jobs, num_servers=4, epochs=2)
        assert predictor.fitted
        assert len(history) == 2

"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    ExperimentConfig,
    GlobalTierConfig,
    LocalTierConfig,
    PredictorConfig,
)
from repro.sim.job import Job
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: a long end-to-end run (still part of the default suite)"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_jobs() -> list[Job]:
    """A handful of hand-written jobs for precise scenario tests."""
    return [
        Job(0, arrival_time=0.0, duration=100.0, resources=(0.5, 0.2, 0.1)),
        Job(1, arrival_time=10.0, duration=100.0, resources=(0.4, 0.2, 0.1)),
        Job(2, arrival_time=20.0, duration=100.0, resources=(0.4, 0.2, 0.1)),
        Job(3, arrival_time=400.0, duration=50.0, resources=(0.3, 0.1, 0.1)),
    ]


@pytest.fixture(scope="session")
def small_trace() -> list[Job]:
    """A 300-job synthetic trace light enough for a 4-server cluster."""
    config = SyntheticTraceConfig(
        n_jobs=300,
        horizon=300 / (100_000 / (7 * 86400.0) * (4 / 30)),
        duration_median=200.0,
    )
    return generate_trace(config, seed=7)


@pytest.fixture
def small_config() -> ExperimentConfig:
    """A 4-server experiment config sized for fast tests."""
    return ExperimentConfig(
        num_servers=4,
        global_tier=GlobalTierConfig(
            num_groups=2,
            replay_capacity=2000,
            train_interval=32,
            epsilon_decay=0.999,
        ),
        local_tier=LocalTierConfig(
            predictor=PredictorConfig(lookback=5, epochs=2),
            epsilon_decay=0.99,
        ),
    )

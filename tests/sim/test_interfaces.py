"""Tests for repro.sim.interfaces: base-class contracts."""

import math

import pytest

from repro.sim.interfaces import Broker, PowerPolicy


class TestBroker:
    def test_select_server_abstract(self):
        with pytest.raises(NotImplementedError):
            Broker().select_server(None, None, 0.0)

    def test_end_of_run_hook_is_a_noop(self):
        assert Broker().on_run_end(None, 0.0) is None


class TestPowerPolicy:
    def test_on_idle_abstract(self):
        with pytest.raises(NotImplementedError):
            PowerPolicy().on_idle(None, 0.0)

    def test_never_constant_is_infinite(self):
        assert math.isinf(PowerPolicy.NEVER)

    def test_optional_hooks_are_noops(self):
        policy = PowerPolicy()
        assert policy.on_active(None, 0.0, from_sleep=True) is None
        assert policy.on_job_assigned(None, None, 0.0) is None
        assert policy.on_run_end(None, 0.0) is None

"""The bench timer in ``tests/helpers.py``, on fake arms and a fake clock."""

import gc

import pytest

from tests import helpers


@pytest.fixture
def clock(monkeypatch) -> list[float]:
    """A clock only the fake arms move: ``clock[0]`` is the time."""
    now = [0.0]
    monkeypatch.setattr(helpers, "perf_counter", lambda: now[0])
    return now


def arm(clock, name, durations, log=None, setup_cost=0.0):
    """A fake arm whose n-th run takes ``durations[n]`` and returns
    ``(name, n)``, and whose setup takes ``setup_cost``. Setups and runs
    go to ``log``, each run with whether the garbage collector was on."""
    runs = iter(enumerate(durations))
    log = [] if log is None else log

    def setup():
        log.append(("setup", name))
        clock[0] += setup_cost

        def work():
            log.append(("run", name, gc.isenabled()))
            n, seconds = next(runs)
            clock[0] += seconds
            return name, n

        return work

    return setup


def test_warm_up_round_is_not_recorded(clock):
    rounds = helpers.interleaved({"a": arm(clock, "a", [100.0, 1.0, 2.0])}, 2)
    assert rounds.seconds == {"a": [1.0, 2.0]}


def test_order_reverses_on_alternate_rounds_with_gc_paused(clock):
    log = []
    helpers.interleaved({name: arm(clock, name, [1.0] * 5, log) for name in "abc"}, 4)
    runs = [entry for entry in log if entry[0] == "run"]
    assert "".join(run[1] for run in runs) == "cba" + "abc" + "cba" + "abc" + "cba"
    assert not any(run[2] for run in runs) and gc.isenabled()


def test_setup_runs_outside_the_timed_region(clock):
    log = []
    arms = {name: arm(clock, name, [5.0] * 3, log, setup_cost=1e3) for name in "ab"}
    assert helpers.interleaved(arms, 2).seconds == {"a": [5.0, 5.0], "b": [5.0, 5.0]}
    assert all(setup[1] == run[1] for setup, run in zip(log[::2], log[1::2]))


def test_samples_in_round_order_and_their_summaries(clock):
    a = arm(clock, "a", [9.0, 4.0, 2.0, 6.0, 8.0])
    b = arm(clock, "b", [9.0, 2.0, 2.0, 2.0, 2.0])
    rounds = helpers.interleaved({"a": a, "b": b}, 4)
    assert rounds.seconds["a"] == [4.0, 2.0, 6.0, 8.0]
    assert rounds.summary("a") == {"median": 5.0, "q1": 2.5, "q3": 7.5, "n": 4}
    ratio = helpers.paired_ratio(rounds.seconds["a"], rounds.seconds["b"])
    assert ratio == {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}
    assert rounds.results == {"a": ("a", 4), "b": ("b", 4)}  # the last runs


def test_fewer_than_one_round_raises(clock):
    with pytest.raises(ValueError, match="rounds"):
        helpers.interleaved({"a": arm(clock, "a", [])}, 0)

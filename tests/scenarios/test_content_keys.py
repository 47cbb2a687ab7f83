"""Content-key coverage: every behavioral knob must key, and labels must not.

The cache's correctness rests on one property: two specs that can
simulate differently must never share a content key, and two specs that
provably simulate identically should. This module checks it by
computing keys, field by field, over every frozen dataclass reachable
from :class:`ScenarioSpec`:

* :data:`ALTERNATIVES` gives one valid alternative value per field.
  Each is swapped into three anchor specs (plain, two-site federated,
  trace replay) at every place its class occurs, and the scenario's
  content key and its policy training key must move exactly as
  declared: a behavioral field moves both, a label (:data:`LABELS`)
  moves neither, and a field under an evaluation-only subtree
  (:data:`EVALUATION_ONLY`, the tariffs) moves the content key only.
* A field with no table entry, a spec class that nothing reaches, or a
  spec class that is not frozen fails the declaration checks.

It also pins the null-spec normalization (``faults=FaultSpec()`` keys
like ``faults=None``, because a null spec injects nothing) and the
orchestrator's ``profile`` flag.
"""

import dataclasses
import typing
from pathlib import Path

import pytest

import repro.faults.spec as fault_spec_module
import repro.scenarios.specs as spec_module
from repro.faults.spec import FaultSpec, SiteOutageSpec
from repro.harness.runner import SWEEP_PROTOCOL
from repro.scenarios.builtin import FEDERATED_CORRELATED, FIXTURE_TRACE, PAPER_DEFAULT
from repro.scenarios.checkpoints import training_request
from repro.scenarios.orchestrator import SweepCell, cell_request
from repro.scenarios.specs import (
    CapacityWindowSpec,
    FlashCrowdSpec,
    FleetSpec,
    JobClassSpec,
    ScenarioSpec,
    ServerClassSpec,
    SiteSpec,
    TraceReplaySpec,
    WorkloadSpec,
)
from repro.scenarios.store import content_key
from repro.sim.power import PowerModel, TariffModel
from repro.workload.synthetic import SyntheticTraceConfig

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MACHINE_EVENTS = str(FIXTURES / "google_machine_events_small.csv")

#: One valid alternative value per field, by class. A field that holds
#: spec dataclasses (``ScenarioSpec.workload``, ``FaultSpec.site_outages``)
#: has no entry: the fields of its classes cover it. No value equals the
#: one an anchor holds.
ALTERNATIVES: dict[str, dict[str, object]] = {
    "ScenarioSpec": {"overload_threshold": 0.8, "federation": "price-greedy"},
    "WorkloadSpec": {
        "rate_scale": 0.7,
        "train_fraction": 0.4,
        "n_train_segments": 3,
        "burst_coupling": 0.5,
    },
    "JobClassSpec": {"weight": 3.0},
    # The trace builders override ``n_jobs`` and ``horizon``, yet both
    # key: harmless over-keying, and dropping them would move keys.
    "SyntheticTraceConfig": {
        "n_jobs": 5_000,
        "horizon": 86_400.0,
        "diurnal_amplitude": 0.2,
        "burst_rate_multiplier": 5.0,
        "burst_on_mean": 300.0,
        "burst_off_mean": 3_600.0,
        "duration_median": 200.0,
        "duration_sigma": 0.5,
        "min_duration": 30.0,
        "max_duration": 3_600.0,
        "cpu_alpha": 3.0,
        "cpu_beta": 5.0,
        "cpu_scale": 0.4,
        "mem_scale": 0.3,
        "disk_scale": 0.2,
        "resource_floor": 0.02,
        "correlation": 0.25,
    },
    "FlashCrowdSpec": {
        "start_fraction": 0.5,
        "duration_fraction": 0.2,
        "rate_multiplier": 2.0,
    },
    "TraceReplaySpec": {
        "paths": (MACHINE_EVENTS,),
        "format": "canonical",
        "min_duration": 120.0,
        "max_duration": 3_600.0,
        "time_compression": 2.0,
        "split": "strided",
        "machine_events": (MACHINE_EVENTS,),
    },
    "FleetSpec": {"num_groups": 2},
    "ServerClassSpec": {"count": 5},
    "PowerModel": {
        "idle_power": 70.0,
        "peak_power": 160.0,
        "exponent": 1.6,
        "t_on": 20.0,
        "t_off": 20.0,
        "transition_power": 150.0,
        "sleep_power": 5.0,
    },
    "CapacityWindowSpec": {
        "start_fraction": 0.5,
        "duration_fraction": 0.2,
        "servers": (2, 3),
        "capacity_fraction": 0.5,
    },
    "TariffModel": {
        "price": 0.2,
        "carbon": 300.0,
        "price_windows": ((7_200.0, 10_800.0, 0.3),),
        "carbon_windows": ((0.0, 3_600.0, 500.0),),
        "period": 43_200.0,
        "t_offset": 3_600.0,
    },
    "SiteSpec": {"weight": 2.0},
    "FaultSpec": {
        "crashes_per_server": 0.7,
        "crash_recovery_fraction": 0.5,
        "job_failure_prob": 0.2,
        "straggler_prob": 0.3,
        "straggler_factor": 4.0,
        "max_retries": 7,
        "retry_backoff_s": 5.0,
    },
    "SiteOutageSpec": {"site": 0, "start_fraction": 0.5, "duration_fraction": 0.3},
}

#: Cosmetic labels: a rename keeps both keys, so cached results survive.
LABELS = frozenset(
    {
        "ScenarioSpec.name",
        "ScenarioSpec.description",
        "JobClassSpec.name",
        "ServerClassSpec.name",
        "SiteSpec.name",
    }
)

#: Subtrees that key results but never shape trained weights: a tariff
#: is an accounting lens over the same joules.
EVALUATION_ONLY = frozenset({"ScenarioSpec.tariff", "SiteSpec.tariff"})

LOW_POWER = PowerModel(idle_power=60.0, peak_power=120.0)

ANCHORS = {
    # Two job classes, a flash crowd, a two-class fleet, a capacity
    # window, a tariff and faults.
    "plain": ScenarioSpec(
        name="plain",
        description="the single-cluster anchor",
        workload=WorkloadSpec(
            classes=(
                JobClassSpec("batch", 2.0),
                JobClassSpec("web", 1.0, SyntheticTraceConfig(duration_median=120.0)),
            ),
            flash_crowds=(FlashCrowdSpec(0.3, 0.1, 3.0),),
        ),
        fleet=FleetSpec(
            (
                ServerClassSpec("old", 4),
                ServerClassSpec("new", 4, LOW_POWER),
            )
        ),
        capacity_windows=(CapacityWindowSpec(0.2, 0.1, (0, 1)),),
        tariff=TariffModel(price_windows=((0.0, 3_600.0, 0.25),)),
        faults=FaultSpec(crashes_per_server=0.1),
    ),
    # Site tariffs, site faults and a scenario-level outage.
    "federated": ScenarioSpec(
        name="federated",
        description="the two-site anchor",
        workload=WorkloadSpec(burst_coupling=1.0),
        sites=(
            SiteSpec(
                "east",
                FleetSpec((ServerClassSpec("std", 4),)),
                tariff=TariffModel(price=0.12),
                faults=FaultSpec(job_failure_prob=0.05),
            ),
            SiteSpec(
                "west",
                FleetSpec((ServerClassSpec("std", 6),)),
                tariff=TariffModel(carbon=350.0, t_offset=7_200.0),
                weight=1.5,
            ),
        ),
        federation="least-loaded",
        faults=FaultSpec(site_outages=(SiteOutageSpec(1, 0.2, 0.1),)),
    ),
    "replay": ScenarioSpec(
        name="replay",
        description="the trace-replay anchor",
        workload=WorkloadSpec(replay=TraceReplaySpec(paths=(FIXTURE_TRACE,))),
    ),
}


def _spec_classes(annotation) -> list[type]:
    """The dataclasses an annotation names, through unions and tuples."""
    if isinstance(annotation, type) and dataclasses.is_dataclass(annotation):
        return [annotation]
    args = typing.get_args(annotation)
    return [cls for arg in args for cls in _spec_classes(arg)]


def _reachable() -> dict[str, type]:
    """Every dataclass that ScenarioSpec's field annotations reach."""
    found = {"ScenarioSpec": ScenarioSpec}
    queue = [ScenarioSpec]
    while queue:
        for annotation in typing.get_type_hints(queue.pop()).values():
            for cls in _spec_classes(annotation):
                if cls.__name__ not in found:
                    found[cls.__name__] = cls
                    queue.append(cls)
    return found


REACHABLE = _reachable()


def _leaf_fields(cls: type) -> list[str]:
    """The fields of ``cls`` that hold no spec dataclass."""
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if not _spec_classes(hints[f.name])]


def _declared(cls: str) -> set[str]:
    """The fields of ``cls`` that the table or the labels name."""
    labels = {entry.split(".")[1] for entry in LABELS if entry.startswith(f"{cls}.")}
    return set(ALTERNATIVES.get(cls, ())) | labels


def _walk(obj, path=()):
    """``(path, instance)`` for every spec dataclass inside ``obj``.

    A path step is ``(owner class name, field name, tuple index or None)``.
    """
    yield path, obj
    owner = type(obj).__name__
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _walk(value, path + ((owner, f.name, None),))
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                if dataclasses.is_dataclass(item):
                    yield from _walk(item, path + ((owner, f.name, index),))


def _replace_at(obj, path, changes):
    """``obj`` rebuilt with ``changes`` applied to the instance at ``path``."""
    if not path:
        return dataclasses.replace(obj, **changes)
    (_, name, index), rest = path[0], path[1:]
    child = getattr(obj, name)
    if index is None:
        return dataclasses.replace(obj, **{name: _replace_at(child, rest, changes)})
    items = list(child)
    items[index] = _replace_at(items[index], rest, changes)
    return dataclasses.replace(obj, **{name: tuple(items)})


def _alternative(cls: str, name: str, current):
    if f"{cls}.{name}" in LABELS:
        value = f"{current}-renamed"
    else:
        value = ALTERNATIVES[cls][name]
    assert value != current, f"{cls}.{name}: the table repeats the anchor's value"
    return value


def _variants(spec: ScenarioSpec, cls: str, name: str):
    """``(path, spec)`` with ``cls.name`` swapped at each place it occurs.

    Places where the swap makes an invalid spec are skipped.
    """
    for path, obj in _walk(spec):
        if type(obj).__name__ == cls:
            value = _alternative(cls, name, getattr(obj, name))
            try:
                yield path, _replace_at(spec, path, {name: value})
            except ValueError:
                continue


def _keys(spec: ScenarioSpec) -> tuple[str, str]:
    """The scenario's content key and its policy training key."""
    training = training_request(spec, 100, 0, SWEEP_PROTOCOL)
    return spec.content_key(), content_key(training)


def _where(path) -> str:
    steps = [
        f"{owner}.{name}" if index is None else f"{owner}.{name}[{index}]"
        for owner, name, index in path
    ]
    return " > ".join(steps) or "ScenarioSpec"


#: One case per field and anchor that takes a valid alternative there.
CASES = [
    pytest.param(anchor, cls, name, id=f"{cls}.{name}[{anchor}]")
    for anchor, spec in ANCHORS.items()
    for cls in dict.fromkeys(type(obj).__name__ for _, obj in _walk(spec))
    for name in _leaf_fields(REACHABLE[cls])
    if name in _declared(cls) and next(_variants(spec, cls, name), None)
]


class TestDeclarations:
    @pytest.mark.parametrize("module", [spec_module, fault_spec_module])
    def test_spec_modules_define_only_reachable_classes(self, module):
        defined = [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__
        ]
        assert defined
        for cls in defined:
            assert REACHABLE.get(cls.__name__) is cls, cls.__name__

    @pytest.mark.parametrize("cls", sorted(REACHABLE))
    def test_every_reachable_class_is_frozen(self, cls):
        assert REACHABLE[cls].__dataclass_params__.frozen

    @pytest.mark.parametrize("cls", sorted(REACHABLE))
    def test_every_field_is_declared(self, cls):
        assert _declared(cls) == set(_leaf_fields(REACHABLE[cls]))

    def test_the_declarations_name_reachable_classes(self):
        named = {entry.split(".")[0] for entry in LABELS | EVALUATION_ONLY}
        assert set(ALTERNATIVES) | named <= set(REACHABLE)

    def test_every_field_is_exercised(self):
        leaves = {(c, name) for c in REACHABLE for name in _leaf_fields(REACHABLE[c])}
        assert leaves - {tuple(case.values[1:]) for case in CASES} == set()


@pytest.mark.parametrize("anchor, cls, name", CASES)
def test_field_moves_the_keys_as_declared(anchor, cls, name):
    spec = ANCHORS[anchor]
    label = f"{cls}.{name}" in LABELS
    content, training = _keys(spec)
    for path, variant in _variants(spec, cls, name):
        evaluation_only = any(
            f"{owner}.{field}" in EVALUATION_ONLY for owner, field, _ in path
        )
        new_content, new_training = _keys(variant)
        assert (new_content != content) == (not label), _where(path)
        trains = not label and not evaluation_only
        assert (new_training != training) == trains, _where(path)


def _with_faults(spec: ScenarioSpec, faults: FaultSpec | None) -> ScenarioSpec:
    return dataclasses.replace(spec, faults=faults)


def _with_site_faults(faults: FaultSpec | None) -> ScenarioSpec:
    site = dataclasses.replace(FEDERATED_CORRELATED.sites[0], faults=faults)
    return dataclasses.replace(
        FEDERATED_CORRELATED, sites=(site,) + FEDERATED_CORRELATED.sites[1:]
    )


class TestNullSpecNormalization:
    """``FaultSpec()`` injects nothing, so it must stay keyless."""

    def test_null_scenario_faults_key_like_none(self):
        assert (
            _with_faults(PAPER_DEFAULT, FaultSpec()).content_key()
            == PAPER_DEFAULT.content_key()
        )
        assert _with_faults(PAPER_DEFAULT, FaultSpec()).content_dict()["faults"] is None

    def test_null_site_faults_key_like_none(self):
        assert (
            _with_site_faults(FaultSpec()).content_key()
            == FEDERATED_CORRELATED.content_key()
        )

    def test_inert_knobs_on_null_spec_stay_keyless(self):
        # With every rate at zero, recovery/retry/straggler knobs are
        # provably unreachable — tweaking them must not split the cache.
        tweaked = FaultSpec(
            crash_recovery_fraction=0.9,
            straggler_factor=9.0,
            max_retries=0,
            retry_backoff_s=1.0,
        )
        assert tweaked.is_null()
        assert (
            _with_faults(PAPER_DEFAULT, tweaked).content_key()
            == PAPER_DEFAULT.content_key()
        )

    def test_active_spec_is_not_normalized(self):
        active = _with_faults(PAPER_DEFAULT, FaultSpec(job_failure_prob=0.1))
        assert active.content_key() != PAPER_DEFAULT.content_key()
        assert active.content_dict()["faults"] is not None


class TestProtocolKeying:
    """Orchestrator request payloads: profiling keys, telemetry rides out."""

    def _request(self, **kwargs) -> dict:
        cell = SweepCell(spec=PAPER_DEFAULT, system="M/M/k", seed=0)
        return cell_request(cell, 600, SWEEP_PROTOCOL, **kwargs)

    def test_profile_flag_changes_request(self):
        assert self._request() != self._request(profile=True)

    def test_unprofiled_request_has_no_profile_slot(self):
        # The flag is present-only-when-true so every pre-profiling
        # cached key stays byte-identical.
        assert "profile" not in self._request()["protocol"]

    def test_telemetry_never_enters_the_request(self):
        payload = self._request(profile=True)
        assert "telemetry" not in payload
        assert "telemetry" not in payload["protocol"]

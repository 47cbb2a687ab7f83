"""Content-key coverage regressions: every behavioral knob must key.

The cache's correctness rests on one property: two specs that can
simulate differently must never share a content key, and two specs that
provably simulate identically should. These tests sweep every
:class:`FaultSpec` / :class:`SiteOutageSpec` field (the fields added
since schema v4) plus the orchestrator's ``profile`` flag, and pin the
null-spec normalization — ``faults=FaultSpec()`` keys identically to
``faults=None`` because a null spec injects nothing.
"""

import dataclasses

import pytest

from repro.faults.spec import FaultSpec, SiteOutageSpec
from repro.scenarios.builtin import FEDERATED_CORRELATED, PAPER_DEFAULT
from repro.harness.runner import SWEEP_PROTOCOL
from repro.scenarios.orchestrator import SweepCell, cell_request
from repro.scenarios.specs import ScenarioSpec


def _with_faults(spec: ScenarioSpec, faults: FaultSpec | None) -> ScenarioSpec:
    return dataclasses.replace(spec, faults=faults)


def _with_site_faults(faults: FaultSpec | None) -> ScenarioSpec:
    site = dataclasses.replace(FEDERATED_CORRELATED.sites[0], faults=faults)
    return dataclasses.replace(
        FEDERATED_CORRELATED, sites=(site,) + FEDERATED_CORRELATED.sites[1:]
    )


#: One active (non-default, non-null) value per FaultSpec field. An
#: outage rides along where needed so rate-free fields stay non-null —
#: is_null() specs are normalized out of the key by design.
_OUTAGE = SiteOutageSpec(site=0, start_fraction=0.2, duration_fraction=0.1)
_FAULT_FIELD_VALUES = {
    "crashes_per_server": 0.7,
    "crash_recovery_fraction": 0.5,
    "job_failure_prob": 0.2,
    "straggler_prob": 0.3,
    "straggler_factor": 4.0,
    "max_retries": 7,
    "retry_backoff_s": 5.0,
    "site_outages": (_OUTAGE,),
}


class TestFaultSpecFieldsKey:
    def test_every_faultspec_field_is_swept(self):
        assert set(_FAULT_FIELD_VALUES) == set(FaultSpec.__dataclass_fields__)

    @pytest.mark.parametrize("field", sorted(_FAULT_FIELD_VALUES))
    def test_scenario_level_field_changes_key(self, field):
        # Anchor on an *active* spec so recovery/retry knobs (inert when
        # null) are exercised against a non-null baseline. Outage
        # windows name site indices, so they need the federated anchor.
        anchor = FEDERATED_CORRELATED if field == "site_outages" else PAPER_DEFAULT
        base_faults = FaultSpec(crashes_per_server=0.1)
        base = _with_faults(anchor, base_faults)
        changed = _with_faults(
            anchor,
            dataclasses.replace(base_faults, **{field: _FAULT_FIELD_VALUES[field]}),
        )
        assert base.content_key() != changed.content_key()

    @pytest.mark.parametrize(
        "field", sorted(set(_FAULT_FIELD_VALUES) - {"site_outages"})
    )
    def test_site_level_field_changes_key(self, field):
        # site_outages is excluded: SiteSpec validation rejects it there
        # (outage windows live on the scenario-level FaultSpec).
        base_faults = FaultSpec(crashes_per_server=0.1)
        base = _with_site_faults(base_faults)
        changed = _with_site_faults(
            dataclasses.replace(base_faults, **{field: _FAULT_FIELD_VALUES[field]})
        )
        assert base.content_key() != changed.content_key()

    @pytest.mark.parametrize(
        "field, value",
        [("site", 1), ("start_fraction", 0.5), ("duration_fraction", 0.3)],
    )
    def test_site_outage_fields_change_key(self, field, value):
        base = _with_faults(
            FEDERATED_CORRELATED, FaultSpec(site_outages=(_OUTAGE,))
        )
        changed = _with_faults(
            FEDERATED_CORRELATED,
            FaultSpec(
                site_outages=(dataclasses.replace(_OUTAGE, **{field: value}),)
            ),
        )
        assert base.content_key() != changed.content_key()


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

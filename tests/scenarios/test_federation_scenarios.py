"""Federated scenario layer: specs, content keys, cells, checkpoints, sweeps."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.harness.runner import SWEEP_PROTOCOL
from repro.scenarios import registry
from repro.scenarios.builtin import FIXTURE_TRACE
from repro.scenarios.checkpoints import (
    CheckpointStore,
    PolicyCheckpoint,
    ensure_checkpoint,
    load_checkpoint,
    needs_policy,
    train_policy,
    training_request,
)
from repro.scenarios.federation import build_cell, derive_site_seeds
from repro.scenarios.orchestrator import (
    aggregate_rows,
    aggregate_series_rows,
    run_cell,
    sweep,
)
from repro.scenarios.specs import (
    FleetSpec,
    JobClassSpec,
    ScenarioSpec,
    ServerClassSpec,
    SiteSpec,
    TraceReplaySpec,
    WorkloadSpec,
)
from repro.scenarios.store import ResultStore, content_key
from repro.sim.power import PowerModel, TariffModel
from repro.workload.synthetic import SyntheticTraceConfig

#: A deliberately tiny federated scenario for fast cells: two 2-server
#: sites under a light workload.
TINY_SITE = FleetSpec(classes=(ServerClassSpec("s", 2),))
TINY_FED = ScenarioSpec(
    name="tiny-fed",
    description="two tiny sites",
    workload=WorkloadSpec(
        classes=(
            JobClassSpec(
                "w", 1.0, SyntheticTraceConfig(n_jobs=100, horizon=4000.0)
            ),
        ),
        burst_coupling=1.0,
        n_train_segments=1,
    ),
    sites=(
        SiteSpec("east", TINY_SITE, tariff=TariffModel(price=0.05, carbon=150.0)),
        SiteSpec("west", TINY_SITE, tariff=TariffModel(price=0.25, carbon=600.0)),
    ),
    federation="least-loaded",
)


class TestSiteSpecValidation:
    def test_needs_name(self):
        with pytest.raises(ValueError, match="name"):
            SiteSpec("")

    def test_needs_positive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            SiteSpec("a", weight=0.0)


class TestScenarioValidation:
    def test_unknown_federation_policy(self):
        with pytest.raises(ValueError, match="unknown federation policy"):
            replace(TINY_FED, federation="teleport")

    def test_federation_policy_needs_sites(self):
        with pytest.raises(ValueError, match="sites"):
            ScenarioSpec(name="x", description="", federation="least-loaded")

    def test_capacity_windows_rejected_on_federated(self):
        from repro.scenarios.specs import CapacityWindowSpec

        with pytest.raises(ValueError, match="capacity windows"):
            replace(
                TINY_FED,
                capacity_windows=(
                    CapacityWindowSpec(0.1, 0.1, servers=(0,)),
                ),
            )

    def test_multi_site_replay_rejected(self):
        with pytest.raises(ValueError, match="replay"):
            replace(
                TINY_FED,
                workload=WorkloadSpec(
                    replay=TraceReplaySpec(paths=(FIXTURE_TRACE,)),
                ),
            )

    def test_multi_site_multi_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            replace(
                TINY_FED,
                workload=WorkloadSpec(
                    classes=(JobClassSpec("a", 0.5), JobClassSpec("b", 0.5)),
                ),
            )

    def test_num_servers_total_sums_sites(self):
        assert TINY_FED.num_servers_total == 4
        assert TINY_FED.is_federated

    def test_build_traces_refuses_multi_site(self):
        with pytest.raises(ValueError, match="build_site_traces"):
            TINY_FED.build_traces(50, seed=0)


class TestContentKeys:
    def test_sites_change_the_key(self):
        single = ScenarioSpec(name="a", description="")
        fed = replace(
            single, sites=(SiteSpec("solo", fleet=single.fleet),)
        )
        assert single.content_key() != fed.content_key()

    def test_site_rename_keeps_the_key(self):
        renamed = replace(
            TINY_FED,
            sites=tuple(
                replace(site, name=f"renamed-{i}")
                for i, site in enumerate(TINY_FED.sites)
            ),
        )
        assert renamed.content_key() == TINY_FED.content_key()

    def test_site_tariff_changes_content_key_not_training_key(self):
        repriced = replace(
            TINY_FED,
            sites=(
                TINY_FED.sites[0],
                replace(TINY_FED.sites[1], tariff=TariffModel(price=0.99)),
            ),
        )
        assert repriced.content_key() != TINY_FED.content_key()
        base = training_request(TINY_FED, 50, 0, SWEEP_PROTOCOL)
        assert content_key(base) == content_key(
            training_request(repriced, 50, 0, SWEEP_PROTOCOL)
        )

    def test_federation_policy_changes_both_keys(self):
        other = replace(TINY_FED, federation="price-greedy")
        assert other.content_key() != TINY_FED.content_key()
        base = training_request(TINY_FED, 50, 0, SWEEP_PROTOCOL)
        assert content_key(base) != content_key(
            training_request(other, 50, 0, SWEEP_PROTOCOL)
        )

    def test_site_fleet_changes_the_key(self):
        bigger = replace(
            TINY_FED,
            sites=(
                TINY_FED.sites[0],
                replace(
                    TINY_FED.sites[1],
                    fleet=FleetSpec(
                        classes=(ServerClassSpec("s", 2, PowerModel(idle_power=50.0)),)
                    ),
                ),
            ),
        )
        assert bigger.content_key() != TINY_FED.content_key()

    def test_content_dict_is_json_plain(self):
        json.dumps(TINY_FED.content_dict())


class TestSiteTraces:
    def test_streams_and_segments_have_one_entry_per_site(self):
        eval_streams, train_streams = TINY_FED.build_site_traces(60, seed=0)
        assert len(eval_streams) == 2
        assert all(len(segment) == 2 for segment in train_streams)
        assert len(train_streams) == TINY_FED.workload.n_train_segments

    def test_job_ids_unique_fleet_wide(self):
        eval_streams, train_streams = TINY_FED.build_site_traces(60, seed=0)
        ids = [job.job_id for stream in eval_streams for job in stream]
        assert len(ids) == len(set(ids))
        for segment in train_streams:
            ids = [job.job_id for stream in segment for job in stream]
            assert len(ids) == len(set(ids))

    def test_weights_split_the_stream(self):
        skewed = replace(
            TINY_FED,
            sites=(
                replace(TINY_FED.sites[0], weight=3.0),
                replace(TINY_FED.sites[1], weight=1.0),
            ),
        )
        eval_streams, _ = skewed.build_site_traces(80, seed=0)
        assert len(eval_streams[0]) == 60
        assert len(eval_streams[1]) == 20

    def test_deterministic_per_seed(self):
        a, _ = TINY_FED.build_site_traces(60, seed=5)
        b, _ = TINY_FED.build_site_traces(60, seed=5)
        assert a == b


class TestSiteSeeds:
    def test_one_site_reuses_the_cell_seed(self):
        site_seeds, fed_seed = derive_site_seeds(11, 1)
        assert site_seeds == [11]
        assert fed_seed != 11

    def test_adding_a_site_keeps_the_others_seeds(self):
        two, _ = derive_site_seeds(11, 2)
        three, _ = derive_site_seeds(11, 3)
        assert three[:2] == two

    def test_seeds_are_distinct_and_reproducible(self):
        site_seeds, fed_seed = derive_site_seeds(11, 4)
        assert len({*site_seeds, fed_seed}) == 5
        assert derive_site_seeds(11, 4) == (site_seeds, fed_seed)
        assert derive_site_seeds(12, 4)[0] != site_seeds


class TestFederatedCell:
    def test_result_carries_fleet_and_site_breakdowns(self):
        result = run_cell(TINY_FED, "round-robin", n_jobs=60, seed=0)
        assert result["federation"] == "least-loaded"
        assert result["num_servers"] == 4
        assert len(result["sites"]) == 2
        assert result["n_jobs_completed"] == sum(
            site["n_jobs_completed"] for site in result["sites"]
        )
        assert result["cost_usd"] == pytest.approx(
            sum(site["cost_usd"] for site in result["sites"])
        )
        assert result["co2_kg"] == pytest.approx(
            sum(site["co2_kg"] for site in result["sites"])
        )
        json.dumps(result)  # journal-able

    def test_deterministic_across_runs(self):
        a = run_cell(TINY_FED, "round-robin", n_jobs=60, seed=0)
        b = run_cell(TINY_FED, "round-robin", n_jobs=60, seed=0)
        assert a == b

    def test_price_greedy_prefers_the_cheap_site(self):
        spec = replace(TINY_FED, federation="price-greedy")
        result = run_cell(spec, "round-robin", n_jobs=60, seed=0)
        east, west = result["sites"]
        # Flat tariffs: east is always cheaper, so it serves everything.
        assert east["n_jobs_completed"] == result["n_jobs_completed"]
        assert west["n_jobs_completed"] == 0

    def test_aggregate_rows_emit_per_site_rows(self):
        results = [run_cell(TINY_FED, "round-robin", n_jobs=60, seed=s) for s in (0, 1)]
        rows = aggregate_rows(results)
        labels = [row["scenario"] for row in rows]
        assert labels == ["tiny-fed", "tiny-fed[east]", "tiny-fed[west]"]
        assert all(row["n_seeds"] == 2 for row in rows)
        series_labels = {row["scenario"] for row in aggregate_series_rows(results)}
        assert series_labels == set(labels)

    def test_builtin_federated_scenarios_are_registered(self):
        for name in ("federated-correlated", "follow-the-sun"):
            spec = registry.get(name)
            assert spec.is_federated
            assert len(spec.sites) == 3
            assert spec.num_servers_total == 30


class TestFederationCheckpoints:
    DRL_FED = replace(TINY_FED, name="tiny-fed-drl", federation="drl")

    def test_needs_policy_for_any_system_under_drl_federation(self):
        assert needs_policy(self.DRL_FED, "round-robin")
        assert needs_policy(TINY_FED, "drl-only")
        assert not needs_policy(TINY_FED, "round-robin")

    def test_train_store_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ck = ensure_checkpoint(
            store, self.DRL_FED, n_jobs=40, seed=0, with_predictor=False
        )
        assert isinstance(ck, PolicyCheckpoint)
        assert len(ck.sites) == 2
        assert ck.fed is not None
        key = content_key(training_request(self.DRL_FED, 40, 0, SWEEP_PROTOCOL))
        loaded = load_checkpoint(store, key, self.DRL_FED)
        assert loaded is not None
        assert loaded.fed.epsilon == ck.fed.epsilon
        assert loaded.fed.arch == ck.fed.arch
        for k, v in ck.fed.qnet_state.items():
            assert np.array_equal(loaded.fed.qnet_state[k], v)
        for mine, theirs in zip(ck.sites, loaded.sites):
            for k, v in mine.qnet_state.items():
                assert np.array_equal(theirs.qnet_state[k], v)

    def test_drl_dispatcher_trains_on_the_traces_built_once(self, monkeypatch):
        """One trace build trains the sites and the DRL dispatcher alike.

        The oracle is the cell path: ``build_cell`` warm-started from the
        same site policies alone trains the dispatcher over traces of its
        own, and must reach the same weights and ε.
        """
        calls = []
        build = ScenarioSpec.build_site_traces

        def spy(spec, *args, **kwargs):
            calls.append(spec.name)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(ScenarioSpec, "build_site_traces", spy)
        ck = train_policy(self.DRL_FED, 60, 2, SWEEP_PROTOCOL, with_predictor=False)
        assert calls == [self.DRL_FED.name]
        _, oracle, _ = build_cell(
            "drl-only",
            self.DRL_FED,
            60,
            SWEEP_PROTOCOL,
            seed=2,
            checkpoint=PolicyCheckpoint(sites=ck.sites),
        )
        assert ck.fed.epsilon == oracle.epsilon
        state = oracle.qnet.state_dict()
        assert state.keys() == ck.fed.qnet_state.keys()
        for k, v in state.items():
            assert np.array_equal(ck.fed.qnet_state[k], v), k

    def test_fed_policy_geometry_mismatch_raises(self):
        from repro.core.federation import make_federation_broker
        from repro.harness.runner import SitePolicy

        two, three = (
            make_federation_broker("drl", n, rng=np.random.default_rng(0))
            for n in (2, 3)
        )
        policy = SitePolicy.capture(two)
        policy.restore(two.qnet)  # its own geometry loads
        with pytest.raises(ValueError, match="geometry"):
            policy.restore(three.qnet)

    def test_blob_without_fed_policy_misses_when_required(self, tmp_path):
        store = CheckpointStore(tmp_path)
        # Train for the least-loaded flavor: site weights only.
        ck = ensure_checkpoint(store, TINY_FED, n_jobs=40, seed=0, with_predictor=False)
        assert ck.fed is None
        key = content_key(training_request(TINY_FED, 40, 0, SWEEP_PROTOCOL))
        assert store.get(key) is not None
        assert store.get(key, need_fed_policy=True) is None
        # And a federated blob never serves a single-cluster lookup.
        plain = replace(TINY_FED, sites=(), federation="home")
        assert load_checkpoint(store, key, plain) is None

    def test_warm_cell_runs_from_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ck = ensure_checkpoint(
            store, self.DRL_FED, n_jobs=40, seed=0, with_predictor=False
        )
        result = run_cell(self.DRL_FED, "round-robin", n_jobs=40, seed=0, checkpoint=ck)
        assert result["federation"] == "drl"
        assert result["n_jobs_completed"] > 0


class TestFederatedSweep:
    def test_sweep_runs_and_caches_federated_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        kwargs = dict(
            scenarios=[TINY_FED],
            systems=("round-robin",),
            seeds=(0,),
            n_jobs=60,
            workers=1,
            store=store,
        )
        first = sweep(**kwargs)
        assert first.n_computed == 1
        assert first.results[0]["sites"]
        second = sweep(**kwargs)
        assert second.n_cached == 1
        assert second.results[0]["sites"] == first.results[0]["sites"]

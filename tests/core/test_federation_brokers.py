"""Tests for repro.core.federation: the federation-tier dispatchers."""

import numpy as np
import pytest

from repro.core.baselines import AlwaysOnPolicy, RoundRobinBroker
from repro.core.federation import (
    FEDERATION_POLICY_NAMES,
    FEDERATION_TIER_DEFAULTS,
    DRLFederationBroker,
    FederationStateView,
    LeastLoadedSiteBroker,
    StaticHomeBroker,
    TariffGreedySiteBroker,
    federation_encoder,
    make_federation_broker,
)
from repro.scenarios.specs import FEDERATION_POLICIES
from repro.sim.federation import build_federation
from repro.sim.job import Job
from repro.sim.power import TariffModel


def probe_job(job_id=0, t=0.0):
    return Job(job_id, t, 120.0, (0.3, 0.2, 0.1))


def make_sites(n=2, servers=2, tariffs=None, initially_on=True):
    tariffs = tariffs or [None] * n
    engine = build_federation(
        [
            dict(
                name=f"s{i}",
                num_servers=servers,
                broker=RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=initially_on,
                tariff=tariffs[i],
            )
            for i in range(n)
        ]
    )
    return engine.sites


def load_site(site, n_jobs, now=0.0):
    for i in range(n_jobs):
        site.cluster[i % len(site.cluster)].assign(probe_job(1000 + i, now), now)


class TestVocabulary:
    def test_policy_names_match_the_scenario_layer(self):
        assert FEDERATION_POLICIES is FEDERATION_POLICY_NAMES

    def test_factory_builds_every_named_policy(self):
        assert make_federation_broker("home", 2) is None
        assert isinstance(
            make_federation_broker("least-loaded", 2), LeastLoadedSiteBroker
        )
        assert make_federation_broker("price-greedy", 2).mode == "price"
        assert make_federation_broker("carbon-greedy", 2).mode == "carbon"
        assert isinstance(make_federation_broker("drl", 2), DRLFederationBroker)

    def test_factory_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown federation policy"):
            make_federation_broker("nope", 2)


class TestStaticHome:
    def test_returns_home(self):
        sites = make_sites()
        broker = StaticHomeBroker()
        assert broker.select_site(probe_job(), sites, 1, 0.0) == 1


class TestLeastLoaded:
    def test_picks_the_empty_site(self):
        sites = make_sites()
        load_site(sites[0], 4)
        assert LeastLoadedSiteBroker().select_site(probe_job(), sites, 0, 0.0) == 1

    def test_tie_keeps_home(self):
        sites = make_sites()
        assert LeastLoadedSiteBroker().select_site(probe_job(), sites, 1, 0.0) == 1

    def test_load_is_normalized_by_fleet_size(self):
        # 2 jobs on 8 servers is lighter than 1 job on 2 servers.
        engine = build_federation(
            [
                dict(name="small", num_servers=2, broker=RoundRobinBroker(),
                     policies=AlwaysOnPolicy(), initially_on=True),
                dict(name="big", num_servers=8, broker=RoundRobinBroker(),
                     policies=AlwaysOnPolicy(), initially_on=True),
            ]
        )
        sites = engine.sites
        load_site(sites[0], 1)
        load_site(sites[1], 2)
        assert LeastLoadedSiteBroker().select_site(probe_job(), sites, 0, 0.0) == 1


class TestTariffGreedy:
    def test_price_greedy_picks_cheapest(self):
        sites = make_sites(
            tariffs=[TariffModel(price=0.50), TariffModel(price=0.05)]
        )
        broker = TariffGreedySiteBroker(mode="price")
        assert broker.select_site(probe_job(), sites, 0, 0.0) == 1

    def test_carbon_greedy_picks_cleanest(self):
        sites = make_sites(
            tariffs=[TariffModel(carbon=100.0), TariffModel(carbon=700.0)]
        )
        broker = TariffGreedySiteBroker(mode="carbon")
        assert broker.select_site(probe_job(), sites, 1, 0.0) == 0

    def test_time_of_use_windows_shift_the_choice(self):
        peak = TariffModel.time_of_use(
            peak_start_hour=0.0, peak_end_hour=12.0,
            peak_price=0.40, offpeak_price=0.05,
        )
        sites = make_sites(tariffs=[peak, peak.shifted(12 * 3600.0)])
        broker = TariffGreedySiteBroker(mode="price")
        # At t=0 site 0 is in its peak window, site 1 is not.
        assert broker.select_site(probe_job(), sites, 0, 0.0) == 1
        # Twelve hours later the windows swap.
        assert broker.select_site(probe_job(), sites, 1, 12 * 3600.0) == 0

    def test_no_tariffs_keeps_home(self):
        sites = make_sites()
        broker = TariffGreedySiteBroker()
        assert broker.select_site(probe_job(), sites, 1, 0.0) == 1

    def test_equal_price_tie_breaks_to_least_loaded(self):
        flat = TariffModel(price=0.10)
        sites = make_sites(tariffs=[flat, flat])
        load_site(sites[0], 4)
        broker = TariffGreedySiteBroker(mode="price")
        assert broker.select_site(probe_job(), sites, 0, 0.0) == 1

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TariffGreedySiteBroker(mode="joules")


class TestFederationStateView:
    def test_aggregates_site_state(self):
        sites = make_sites(n=2, servers=2)
        load_site(sites[0], 2)
        for site in sites:
            site.cluster.sync(0.0)
        view = FederationStateView(sites)
        util, on, queue = view.state_views()
        assert util.shape == (2, 3)
        assert util[0, 0] > util[1, 0]  # site 0 carries the load
        assert on.tolist() == [1.0, 1.0]
        assert queue[1] == 0.0
        assert len(view) == 2

    def test_reward_integrals_sum_over_sites(self):
        sites = make_sites()
        load_site(sites[0], 2)
        for site in sites:
            site.cluster.sync(100.0)
        view = FederationStateView(sites)
        assert view.total_energy() == pytest.approx(
            sum(s.cluster.total_energy() for s in sites)
        )
        assert view.system_integral() == pytest.approx(
            sum(s.cluster.system_integral() for s in sites)
        )

    def test_encoder_accepts_the_view(self):
        sites = make_sites(n=3)
        view = FederationStateView(sites)
        encoder = federation_encoder(3)
        state = encoder.encode(view, probe_job())
        assert state.shape == (encoder.state_dim,)


class TestDRLFederationBroker:
    def test_selects_valid_sites_and_records_transitions(self):
        sites = make_sites(n=2)
        broker = DRLFederationBroker(2, rng=np.random.default_rng(0))
        for i in range(5):
            choice = broker.select_site(probe_job(i, float(i)), sites, 0, float(i))
            assert 0 <= choice < 2
        # Every epoch after the first closes a sojourn into replay.
        assert len(broker.agent.replay) == 4

    def test_site_count_mismatch_raises(self):
        broker = DRLFederationBroker(3)
        with pytest.raises(ValueError, match="3 sites"):
            broker.select_site(probe_job(), make_sites(n=2), 0, 0.0)

    def test_freeze_pins_epsilon(self):
        broker = DRLFederationBroker(2)
        broker.freeze()
        assert broker.epsilon == 0.0
        assert broker.agent.training_enabled is False

    def test_compact_default_architecture(self):
        broker = DRLFederationBroker(2)
        arch = broker.qnet.describe()
        assert broker.agent.config.autoencoder_hidden == (
            FEDERATION_TIER_DEFAULTS["autoencoder_hidden"]
        )
        assert arch is not None

    def test_run_end_resets_the_view(self):
        sites = make_sites(n=2)
        broker = DRLFederationBroker(2, rng=np.random.default_rng(0))
        broker.select_site(probe_job(), sites, 0, 0.0)
        assert broker._view is not None
        broker.on_run_end(sites, 1.0)
        assert broker._view is None

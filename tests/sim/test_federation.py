"""Tests for repro.sim.federation: sites, shared clock, merged feeds."""

import pytest

from repro.core.baselines import AlwaysOnPolicy, RoundRobinBroker
from repro.harness.runner import RunResult
from repro.sim.engine import build_simulation
from repro.sim.federation import FederationEngine, build_federation, merge_site_series
from repro.sim.interfaces import FederationBroker
from repro.sim.job import Job
from repro.sim.power import TariffModel


def jobs_burst(n, spacing=10.0, duration=50.0, cpu=0.3, offset=0.0, start_id=0):
    return [
        Job(start_id + i, offset + i * spacing, duration, (cpu, 0.1, 0.1))
        for i in range(n)
    ]


def two_sites(broker=None, tariffs=(None, None)):
    return build_federation(
        [
            dict(
                name="a",
                num_servers=2,
                broker=RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=True,
                tariff=tariffs[0],
            ),
            dict(
                name="b",
                num_servers=2,
                broker=RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=True,
                tariff=tariffs[1],
            ),
        ],
        broker=broker,
    )


class PickSite(FederationBroker):
    """Routes every job to one fixed site."""

    def __init__(self, target):
        self.target = target

    def select_site(self, job, sites, home, now):
        return self.target


class TestFederationEngine:
    def test_home_routing_completes_all_streams(self):
        engine = two_sites()
        result = engine.run([jobs_burst(6), jobs_burst(4, offset=1.0, start_id=100)])
        assert RunResult.from_run("round-robin", result).n_jobs == 10
        assert [s.metrics.n_completed for s in result.sites] == [6, 4]

    def test_broker_can_move_jobs_across_sites(self):
        engine = two_sites(broker=PickSite(1))
        result = engine.run([jobs_burst(5), jobs_burst(5, offset=1.0, start_id=50)])
        assert result.sites[0].metrics.n_completed == 0
        assert result.sites[1].metrics.n_completed == 10

    def test_out_of_range_site_raises(self):
        engine = two_sites(broker=PickSite(7))
        with pytest.raises(ValueError, match="outside"):
            engine.run([jobs_burst(1), []])

    def test_stream_count_must_match_sites(self):
        engine = two_sites()
        with pytest.raises(ValueError, match="streams"):
            engine.run([jobs_burst(2)])

    def test_unsorted_stream_raises(self):
        engine = two_sites()
        bad = [
            Job(0, 100.0, 10.0, (0.1, 0.1, 0.1)),
            Job(1, 50.0, 10.0, (0.1, 0.1, 0.1)),
        ]
        with pytest.raises(ValueError, match="sorted"):
            engine.run([bad, []])

    def test_sites_must_share_one_event_queue(self):
        def lone_site(name):
            (site,) = build_federation(
                [
                    dict(
                        name=name,
                        num_servers=1,
                        broker=RoundRobinBroker(),
                        policies=AlwaysOnPolicy(),
                        initially_on=True,
                    )
                ]
            ).sites
            return site

        with pytest.raises(ValueError, match="event clock"):
            FederationEngine([lone_site("a"), lone_site("b")])

    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError, match="at least one site"):
            FederationEngine([])

    def test_same_time_arrivals_prefer_lower_site_index(self):
        # Both streams emit a job at t=0; site 0's must be placed first
        # (deterministic tie-break), observable through the order in
        # which the site brokers are asked.
        placed = []

        class Recording(RoundRobinBroker):
            def select_server(self, job, cluster, now):
                placed.append((now, job.job_id))
                return super().select_server(job, cluster, now)

        engine = build_federation(
            [
                dict(
                    name=name,
                    num_servers=1,
                    broker=Recording(),
                    policies=AlwaysOnPolicy(),
                    initially_on=True,
                )
                for name in ("a", "b")
            ]
        )
        engine.run([jobs_burst(1, start_id=9), jobs_burst(1)])
        assert placed == [(0.0, 9), (0.0, 0)]

    def test_per_site_tariffs_split_the_bill(self):
        cheap = TariffModel(price=0.01, carbon=100.0)
        dear = TariffModel(price=1.00, carbon=900.0)
        result = two_sites(tariffs=(cheap, dear)).run(
            [jobs_burst(4), jobs_burst(4, offset=1.0, start_id=40)]
        )
        a, b = result.sites
        fleet = RunResult.from_run("round-robin", result)
        # Similar energy, wildly different bills.
        assert a.metrics.total_cost_usd() < b.metrics.total_cost_usd() / 10
        assert fleet.cost_usd == pytest.approx(
            a.metrics.total_cost_usd() + b.metrics.total_cost_usd()
        )
        assert fleet.co2_kg == pytest.approx(
            a.metrics.total_co2_kg() + b.metrics.total_co2_kg()
        )


class TestMergedSeries:
    def test_single_site_series_passes_through(self):
        engine = two_sites()
        streams = [jobs_burst(6), []]
        result = engine.run(streams)
        solo = merge_site_series([result.sites[0]])
        assert solo == list(result.sites[0].metrics.series)

    def test_fleet_series_last_point_matches_totals(self):
        engine = two_sites()
        result = engine.run([jobs_burst(6), jobs_burst(4, offset=1.0, start_id=60)])
        last = result.fleet_series[-1]
        fleet = RunResult.from_run("round-robin", result)
        assert last.n_completed == fleet.n_jobs
        assert last.acc_latency == pytest.approx(fleet.acc_latency)
        assert last.energy_kwh == pytest.approx(fleet.energy_kwh)

    def test_fleet_series_is_monotone(self):
        engine = two_sites()
        result = engine.run([jobs_burst(6), jobs_burst(6, offset=3.0, start_id=60)])
        points = result.fleet_series
        assert all(
            a.n_completed <= b.n_completed and a.time <= b.time
            for a, b in zip(points, points[1:])
        )


class TestClusterEngineDelegation:
    def test_cluster_engine_is_a_federation_of_one(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        (site,) = engine.federation.sites
        assert engine.federation.broker is None
        assert engine.cluster is site.cluster
        assert engine.broker is site.broker
        assert engine.metrics is site.metrics
        assert engine.events is site.cluster.events

    @pytest.mark.parametrize("name", ["cluster", "broker", "metrics", "events"])
    def test_cluster_engine_views_are_read_only(self, name):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        with pytest.raises(AttributeError):
            setattr(engine, name, getattr(engine, name))

    def test_explicit_single_site_matches_cluster_engine(self):
        jobs = jobs_burst(12, spacing=30.0)
        cluster_engine = build_simulation(
            3, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        a = cluster_engine.run([j.copy() for j in jobs])
        fed = build_federation(
            [
                dict(
                    name="solo",
                    num_servers=3,
                    broker=RoundRobinBroker(),
                    policies=AlwaysOnPolicy(),
                    initially_on=True,
                )
            ]
        )
        b = fed.run([[j.copy() for j in jobs]])
        solo = RunResult.from_run("round-robin", b)
        assert a.metrics.n_completed == solo.n_jobs
        assert a.total_energy_kwh == solo.energy_kwh
        assert a.metrics.acc_latency == solo.acc_latency
        assert a.metrics.series == b.sites[0].metrics.series
        assert a.final_time == b.final_time


class TestBuildFederation:
    def test_unknown_site_argument_rejected(self):
        with pytest.raises(ValueError, match="unknown site arguments"):
            build_federation(
                [dict(num_servers=1, broker=RoundRobinBroker(),
                      policies=AlwaysOnPolicy(), bogus=1)]
            )

    @pytest.mark.parametrize("tariff", [None, TariffModel(price=0.2)])
    def test_metrics_carry_site_tariff(self, tariff):
        engine = build_federation(
            [dict(num_servers=1, broker=RoundRobinBroker(),
                  policies=AlwaysOnPolicy(), tariff=tariff)]
        )
        assert engine.sites[0].tariff is engine.sites[0].metrics.tariff is tariff

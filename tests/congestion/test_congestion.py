"""Tests for the congestion substrate: queueing, traffic, locality."""

import pickle
import random

import numpy as np
import pytest

from repro.congestion import (
    CongestionModel,
    TrafficProfile,
    congestion_loss_rate,
    congestion_model,
    mm1k_loss,
    sample_profile,
)
from repro.topology import Direction, build_clos


class TestMm1k:
    def test_zero_load_zero_loss(self):
        assert mm1k_loss(0.0, 100) == 0.0

    def test_monotone_in_load(self):
        losses = [mm1k_loss(rho, 100) for rho in (0.5, 0.7, 0.9, 1.0, 1.2)]
        assert losses == sorted(losses)

    def test_critical_load_closed_form(self):
        assert mm1k_loss(1.0, 99) == pytest.approx(1.0 / 100)

    def test_deep_buffer_reduces_loss_by_orders(self):
        shallow = mm1k_loss(0.95, 120)
        deep = mm1k_loss(0.95, 1200)
        assert deep < shallow / 1e6

    def test_overload_loses_excess(self):
        # At rho=2 the queue must drop about half of the offered load.
        assert mm1k_loss(2.0, 100) == pytest.approx(0.5, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            mm1k_loss(-0.1, 100)
        with pytest.raises(ValueError):
            mm1k_loss(0.5, 0)

    def test_congestion_loss_rate_range(self):
        for u in (0.0, 0.3, 0.6, 0.9, 1.0):
            loss = congestion_loss_rate(u)
            assert 0.0 <= loss <= 1.0
        with pytest.raises(ValueError):
            congestion_loss_rate(1.2)

    def test_low_utilization_is_lossless(self):
        assert congestion_loss_rate(0.5) < 1e-12


class TestTrafficProfile:
    def test_utilization_bounded(self):
        profile = TrafficProfile(mean=0.5, amplitude=0.4, seed=1)
        series = profile.series(500)
        assert np.all(series >= 0.0)
        assert np.all(series <= 1.0)

    def test_deterministic_per_seed(self):
        a = TrafficProfile(mean=0.4, seed=7).series(100)
        b = TrafficProfile(mean=0.4, seed=7).series(100)
        assert np.array_equal(a, b)

    def test_diurnal_period_visible(self):
        profile = TrafficProfile(
            mean=0.5, amplitude=0.3, noise_sigma=0.0, burst_probability=0.0, seed=0
        )
        series = profile.series(96)  # one day at 15 min
        # Peak-to-trough swing should be about 2x amplitude.
        assert series.max() - series.min() == pytest.approx(0.6, abs=0.05)

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            TrafficProfile(mean=1.5)

    def test_hot_profiles_run_hotter(self):
        rng = random.Random(0)
        hot = [sample_profile(rng, hot=True).mean for _ in range(50)]
        cold = [sample_profile(rng, hot=False).mean for _ in range(50)]
        assert np.mean(hot) > np.mean(cold) + 0.15


class TestCongestionModel:
    @pytest.fixture
    def topo(self):
        return build_clos(4, 4, 4, 16)

    def test_hotspots_are_a_small_subset(self, topo):
        model = CongestionModel(
            topo, seed=0, hotspot_pod_fraction=0.25, hotspot_switch_fraction=0.02
        )
        assert 1 <= len(model.hotspot_pods) <= 1 + 0.25 * 4
        assert model.hotspot_switches
        assert all(
            topo.switch(sw).stage > 0 for sw in model.hotspot_switches
        )

    def test_hot_directions_touch_hotspots(self, topo):
        model = CongestionModel(topo, seed=0)
        for did in model.hot_directions():
            link = topo.find_link(*did)
            in_hot_pod = topo.switch(link.lower).pod in model.hotspot_pods
            assert in_hot_pod or link.lower in model.hotspot_switches

    def test_pod_hotspots_keep_links_inside_pod(self, topo):
        model = CongestionModel(
            topo, seed=0, hotspot_pod_fraction=0.25, hotspot_switch_fraction=0.0
        )
        for did in model.hot_directions():
            link = topo.find_link(*did)
            assert topo.switch(link.lower).pod == topo.switch(link.upper).pod

    def test_switch_hotspots_cover_podless_topologies(self):
        from repro.topology import build_multi_tier

        topo = build_multi_tier([8, 6, 4], [3, 2])
        model = CongestionModel(topo, seed=1, hotspot_switch_fraction=0.3)
        assert model.hot_directions()

    def test_mostly_bidirectional(self, topo):
        model = CongestionModel(
            topo, seed=1, bidirectional_hot_probability=0.75
        )
        hot = set(model.hot_directions())
        links = {tuple(sorted(d)) for d in hot}
        both = sum(1 for d in links if (d[0], d[1]) in hot and (d[1], d[0]) in hot)
        share = both / len(links)
        assert 0.6 <= share <= 0.9  # around the paper's 72.7%

    def test_deep_buffer_kills_loss(self, topo):
        for spine in topo.spines():
            topo.switch(spine).deep_buffer = True
        model = CongestionModel(topo, seed=2)
        spine = topo.spines()[0]
        down = (spine, topo.link(topo.downlinks(spine)[0]).lower)
        # 0.88 utilization: below saturation, where buffer depth decides.
        assert model.loss_rate(down, 0.88) < 1e-8
        shallow_src = ("pod0/tor0", "pod0/agg0")
        assert model.loss_rate(shallow_src, 0.88) > 1e-8

    def test_profiles_cached(self, topo):
        model = CongestionModel(topo, seed=3)
        did = ("pod0/tor0", "pod0/agg0")
        assert model.profile(did) == model.profile(did)

    def test_stepping_a_profile_leaves_the_model_alone(self, topo):
        """``profile()`` once handed out the row's live stream: stepping it
        moved the stream but not the draw count, so the next tick drew the
        wrong variates and the checkpoint could not be restored."""
        model, twin, per_call = (
            congestion_model("hotspots", topo, seed=3) for _ in range(3)
        )
        dids = [link.direction_id(Direction.UP) for link in topo.links()]
        model.traffic(dids, 900.0, 900.0)
        twin.traffic(dids, 900.0, 900.0)
        for did in dids:
            per_call.utilization(did, 900.0)
        profile = model.profile(dids[0])
        # The direction's next two draws, taken on the profile's own stream.
        assert [profile.utilization(t) for t in (1800.0, 2700.0)] == [
            per_call.utilization(dids[0], t) for t in (1800.0, 2700.0)
        ]
        restored = pickle.loads(pickle.dumps(model, protocol=4))
        want = twin.traffic(dids, 1800.0, 900.0)[0].tolist()
        for got in (model, restored):
            assert got.traffic(dids, 1800.0, 900.0)[0].tolist() == want

    def test_invalid_fraction_rejected(self, topo):
        with pytest.raises(ValueError):
            CongestionModel(topo, hotspot_switch_fraction=2.0)

"""Tests for the congestion substrate: queueing, traffic, locality."""

import random

import numpy as np
import pytest

from repro.congestion import (
    CongestionModel,
    congestion_loss_rate,
    mm1k_loss,
)
from repro.congestion.traffic import TrafficProfile, profile_parameters
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


def series(num_samples, **parameters):
    """``num_samples`` utilization draws of a profile at 15-min spacing,
    its stream seeded from ``seed`` as :class:`CongestionModel` seeds a row's."""
    profile = TrafficProfile(**parameters)
    profile._rng = random.Random(profile.seed)
    return np.array(
        [profile.utilization(i * 900.0) for i in range(num_samples)]
    )


class TestTrafficProfile:
    def test_utilization_bounded(self):
        values = series(500, mean=0.5, amplitude=0.4, seed=1)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)

    def test_deterministic_per_seed(self):
        a = series(100, mean=0.4, seed=7)
        b = series(100, mean=0.4, seed=7)
        assert np.array_equal(a, b)

    def test_diurnal_period_visible(self):
        values = series(  # one day at 15 min
            96, mean=0.5, amplitude=0.3, noise_sigma=0.0, burst_probability=0.0
        )
        # Peak-to-trough swing should be about 2x amplitude.
        assert values.max() - values.min() == pytest.approx(0.6, abs=0.05)

    def test_hot_profiles_run_hotter(self):
        rng = random.Random(0)
        hot = [profile_parameters(rng, hot=True)[0] for _ in range(50)]
        cold = [profile_parameters(rng, hot=False)[0] for _ in range(50)]
        assert np.mean(hot) > np.mean(cold) + 0.15


def hot_directions(topo, model):
    return [
        link.direction_id(direction)
        for link in topo.links()
        for direction in Direction
        if model.is_hot(link.direction_id(direction))
    ]


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
        for did in hot_directions(topo, model):
            link = topo.find_link(*did)
            in_hot_pod = topo.switch(link.lower).pod in model.hotspot_pods
            assert in_hot_pod or link.lower in model.hotspot_switches

    def test_pod_hotspots_keep_links_inside_pod(self, topo):
        model = CongestionModel(
            topo, seed=0, hotspot_pod_fraction=0.25, hotspot_switch_fraction=0.0
        )
        for did in hot_directions(topo, model):
            link = topo.find_link(*did)
            assert topo.switch(link.lower).pod == topo.switch(link.upper).pod

    def test_switch_hotspots_cover_podless_topologies(self):
        from repro.topology import build_multi_tier

        topo = build_multi_tier([8, 6, 4], [3, 2])
        model = CongestionModel(topo, seed=1, hotspot_switch_fraction=0.3)
        assert hot_directions(topo, model)

    def test_mostly_bidirectional(self, topo):
        model = CongestionModel(
            topo, seed=1, bidirectional_hot_probability=0.75
        )
        hot = set(hot_directions(topo, model))
        links = {tuple(sorted(d)) for d in hot}
        both = sum(1 for d in links if (d[0], d[1]) in hot and (d[1], d[0]) in hot)
        share = both / len(links)
        assert 0.6 <= share <= 0.9  # around the paper's 72.7%

    def test_deep_buffer_kills_loss(self, topo):
        for spine in topo.spines():
            topo.switch(spine).deep_buffer = True
        model = CongestionModel(topo, seed=2)
        spine = topo.spines()[0]
        down = (spine, topo.link(topo._downlinks[spine][0]).lower)
        # 0.88 utilization: below saturation, where buffer depth decides.
        assert model.loss_rate(down, 0.88) < 1e-8
        shallow_src = ("pod0/tor0", "pod0/agg0")
        assert model.loss_rate(shallow_src, 0.88) > 1e-8

    def test_invalid_fraction_rejected(self, topo):
        with pytest.raises(ValueError):
            CongestionModel(topo, hotspot_switch_fraction=2.0)

"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congestion import mm1k_loss
from repro.core import (
    CapacityConstraint,
    FastChecker,
    GlobalOptimizer,
    PathCounter,
    linear_penalty,
    tcp_throughput_penalty,
)
from repro.optics.transceiver import (
    decode_corruption_rate,
    required_margin_for_rate,
)
from repro.optics.power import TECH_40G_LR4
from repro.simulation import StepSeries
from repro.topology import build_clos
from repro.workloads.rates import bucket_shares
from tests.path_counts import baseline_of, counts_of


# --------------------------------------------------------------------- #
# Topology / path counting
# --------------------------------------------------------------------- #

clos_dims = st.tuples(
    st.integers(1, 3),  # pods
    st.integers(1, 3),  # tors per pod
    st.integers(1, 3),  # aggs per pod
    st.integers(1, 3),  # spine planes (spines = planes * aggs)
)


@given(clos_dims)
@settings(max_examples=30, deadline=None)
def test_clos_baseline_paths_formula(dims):
    """Baseline ToR path count = aggs_per_pod * plane_size, always."""
    pods, tors, aggs, planes = dims
    topo = build_clos(pods, tors, aggs, planes * aggs)
    counter = PathCounter(topo)
    for tor in topo.tors():
        assert baseline_of(counter)[tor] == aggs * planes


@given(clos_dims, st.sets(st.integers(0, 200), max_size=12))
@settings(max_examples=30, deadline=None)
def test_path_counts_monotone_in_disabled_set(dims, indices):
    """Disabling more links never increases any ToR's path count."""
    pods, tors, aggs, planes = dims
    topo = build_clos(pods, tors, aggs, planes * aggs)
    counter = PathCounter(topo)
    links = sorted(topo.link_ids())
    chosen = [links[i % len(links)] for i in indices]
    half = chosen[: len(chosen) // 2]
    counts_half = counts_of(counter, half)
    counts_full = counts_of(counter, chosen)
    for tor in topo.tors():
        assert counts_full[tor] <= counts_half[tor]


@given(st.integers(0, 10_000), st.floats(0.3, 0.9))
@settings(max_examples=25, deadline=None)
def test_fast_checker_never_violates_constraint(seed, capacity):
    """After any sweep, every ToR still meets its constraint."""
    import random

    from repro.topology import sprinkle_corruption

    topo = build_clos(2, 3, 3, 9)
    sprinkle_corruption(topo, fraction=0.25, rng=random.Random(seed))
    constraint = CapacityConstraint(capacity)
    checker = FastChecker(topo, constraint)
    checker.sweep(topo.corrupting_links())
    fractions = PathCounter(topo).tor_fractions()
    assert not constraint.violations(fractions)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_optimizer_dominates_fast_checker_sweep(seed):
    """The optimizer's residual penalty is never worse than greedy
    fast-checker sweeping on the same instance."""
    import random

    from repro.core import total_penalty
    from repro.topology import sprinkle_corruption

    constraint = CapacityConstraint(0.6)

    topo_a = build_clos(2, 3, 3, 9)
    sprinkle_corruption(topo_a, fraction=0.25, rng=random.Random(seed))
    topo_b = topo_a.copy()

    FastChecker(topo_a, constraint).sweep(topo_a.corrupting_links())
    greedy_residual = total_penalty(topo_a, linear_penalty)

    GlobalOptimizer(topo_b, constraint).optimize()
    optimal_residual = total_penalty(topo_b, linear_penalty)
    assert optimal_residual <= greedy_residual + 1e-15


# --------------------------------------------------------------------- #
# Optics
# --------------------------------------------------------------------- #


@given(st.floats(min_value=1e-7, max_value=1e-2))
@settings(max_examples=50, deadline=None)
def test_margin_inverse_consistent(rate):
    margin = required_margin_for_rate(rate)
    rx = TECH_40G_LR4.thresholds.rx_min_dbm + margin
    assert decode_corruption_rate(rx, TECH_40G_LR4) == pytest.approx(
        rate, rel=0.1
    )


@given(st.floats(0.0, 2.0), st.integers(1, 2000))
@settings(max_examples=60, deadline=None)
def test_mm1k_loss_is_probability(rho, k):
    loss = mm1k_loss(rho, k)
    assert 0.0 <= loss <= 1.0
    assert not math.isnan(loss)


@given(st.floats(1e-9, 0.5), st.floats(1e-9, 0.5))
@settings(max_examples=50, deadline=None)
def test_tcp_penalty_monotone(a, b):
    low, high = min(a, b), max(a, b)
    assert tcp_throughput_penalty(low) <= tcp_throughput_penalty(high) + 1e-12


# --------------------------------------------------------------------- #
# Metrics / rates
# --------------------------------------------------------------------- #


@given(
    st.lists(
        st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 100.0)),
        min_size=0,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_step_series_integral_additive(changes):
    series = StepSeries(0.0)
    time = 0.0
    for delta, value in sorted(changes):
        time += delta + 1e-6
        series.record(time, value)
    end = time + 100.0
    mid = end / 2
    whole = series.integral(0.0, end)
    split = series.integral(0.0, mid) + series.integral(mid, end)
    assert whole == pytest.approx(split, rel=1e-9, abs=1e-6)


@given(st.lists(st.floats(1e-10, 0.5), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_bucket_shares_partition(rates):
    shares = bucket_shares(rates)
    lossy = [r for r in rates if r >= 1e-8]
    if lossy:
        assert sum(shares) == pytest.approx(1.0)
    else:
        assert shares == [0.0] * 4


import pytest  # noqa: E402  (used inside hypothesis bodies)

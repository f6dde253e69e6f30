"""The Figure-10 worked example: switch-local vs optimal disabling.

Topology: ToR ``T`` with five uplinks to switches ``A``–``E``, each with
five spine uplinks (25 ToR-to-spine paths), capacity constraint c = 60%.
The paper's three panels show: (a) naive ``sc = c`` violates the
constraint; (b) ``sc = sqrt(c)`` is safe but disables few links; (c) the
optimal solution disables far more while meeting the constraint exactly.
"""

import math

import pytest

from repro.core import (
    CapacityConstraint,
    GlobalOptimizer,
    PathCounter,
    SwitchLocalChecker,
    brute_force_optimal,
)
from tests.path_counts import baseline_of

C = 0.6


def paint_figure10_corruption(topo):
    """16 corrupting links: 2 of T's uplinks (to D, E), 2 uplinks each on
    A–C, and 4 each on D, E."""
    corrupting = []
    for agg in ("D", "E"):
        corrupting.append(topo.find_link("T", agg).link_id)
    for agg, count in (("A", 2), ("B", 2), ("C", 2), ("D", 4), ("E", 4)):
        for lid in list(topo.uplinks(agg))[:count]:
            corrupting.append(lid)
    for lid in corrupting:
        topo.set_corruption(lid, 1e-3)
    return corrupting


class TestFigure10:
    def test_sixteen_corrupting_links(self, figure10_topology):
        corrupting = paint_figure10_corruption(figure10_topology)
        assert len(corrupting) == 16

    def test_baseline_25_paths(self, figure10_topology):
        assert baseline_of(PathCounter(figure10_topology))["T"] == 25

    def test_sqrt_local_disables_at_most_one_per_switch(
        self, figure10_topology
    ):
        topo = figure10_topology
        corrupting = paint_figure10_corruption(topo)
        checker = SwitchLocalChecker(topo, CapacityConstraint(C))
        assert checker.sc == pytest.approx(math.sqrt(C))
        disabled = [
            lid for lid in corrupting if checker.check_and_disable(lid).allowed
        ]
        # floor(5 * (1 - 0.7746)) = 1 per switch, 6 switches with
        # corrupting uplinks -> at most 6, and far fewer than optimal.
        assert all(
            sum(1 for lid in disabled if lid[0] == sw) <= 1
            for sw in ("T", "A", "B", "C", "D", "E")
        )
        fractions = PathCounter(topo).tor_fractions()
        assert fractions["T"] >= C - 1e-9

    def test_optimal_beats_switch_local(self, figure10_topology):
        topo = figure10_topology
        corrupting = paint_figure10_corruption(topo)

        local_topo = topo.copy()
        checker = SwitchLocalChecker(local_topo, CapacityConstraint(C))
        local_disabled = [
            lid for lid in corrupting if checker.check_and_disable(lid).allowed
        ]

        optimizer = GlobalOptimizer(topo, CapacityConstraint(C))
        result = optimizer.plan()
        assert len(result.to_disable) > len(local_disabled)

    def test_optimal_matches_brute_force_and_meets_constraint(
        self, figure10_topology
    ):
        topo = figure10_topology
        paint_figure10_corruption(topo)
        constraint = CapacityConstraint(C)
        _best, brute_residual = brute_force_optimal(topo, constraint)
        result = GlobalOptimizer(topo, constraint).optimize()
        assert result.residual_penalty == pytest.approx(brute_residual)
        fractions = PathCounter(topo).tor_fractions()
        assert fractions["T"] >= C - 1e-9

    def test_optimal_exploits_orphaned_subtrees(self, figure10_topology):
        """Once T->D is disabled, D's own corrupting uplinks serve no ToR
        and can all be disabled for free — global reasoning the local
        check cannot do."""
        topo = figure10_topology
        paint_figure10_corruption(topo)
        result = GlobalOptimizer(topo, CapacityConstraint(C)).plan()
        d_uplink = topo.find_link("T", "D").link_id
        if d_uplink in result.to_disable:
            for lid in list(topo.uplinks("D"))[:4]:
                assert lid in result.to_disable

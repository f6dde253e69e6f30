"""Tests for the global optimizer: exactness, pruning, reject cache,
segmentation, and both search methods."""

import random

import pytest

from repro.core import (
    CapacityConstraint,
    GlobalOptimizer,
)
from repro.topology import build_clos, sprinkle_corruption
from tests.oracles.brute_force import brute_force_optimal


def corrupt(topo, lid, rate=1e-3):
    topo.set_corruption(lid, rate)


class TestTrivialCases:
    def test_no_candidates(self, medium_clos):
        optimizer = GlobalOptimizer(medium_clos, CapacityConstraint(0.5))
        result = optimizer.plan()
        assert result.to_disable == set()
        assert result.residual_penalty == 0.0

    def test_all_safe_when_constraint_lax(self, medium_clos):
        sprinkle_corruption(medium_clos, fraction=0.2)
        candidates = set(medium_clos.corrupting_links())
        optimizer = GlobalOptimizer(medium_clos, CapacityConstraint(0.25))
        result = optimizer.plan()
        assert result.to_disable == candidates
        assert result.residual_penalty == 0.0

    def test_optimize_applies_plan(self, medium_clos):
        corrupt(medium_clos, ("pod0/tor0", "pod0/agg0"))
        optimizer = GlobalOptimizer(medium_clos, CapacityConstraint(0.5))
        result = optimizer.optimize()
        for lid in result.to_disable:
            assert not medium_clos.link(lid).enabled

    def test_disabled_candidates_ignored(self, medium_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        corrupt(medium_clos, lid)
        medium_clos.disable_link(lid)
        optimizer = GlobalOptimizer(medium_clos, CapacityConstraint(0.5))
        assert optimizer.plan().stats.num_candidates == 0


class TestExactness:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("method", ["exhaustive", "branch_and_bound"])
    def test_matches_brute_force(self, seed, method):
        topo = build_clos(2, 3, 3, 9)
        rng = random.Random(seed)
        links = sorted(topo.link_ids())
        for lid in rng.sample(links, 8):
            corrupt(topo, lid, rate=10 ** rng.uniform(-6, -2))
        constraint = CapacityConstraint(0.67)
        _best, brute_residual = brute_force_optimal(topo, constraint)
        optimizer = GlobalOptimizer(topo, constraint, method=method)
        result = optimizer.plan()
        assert result.residual_penalty == pytest.approx(brute_residual)

    @pytest.mark.parametrize("seed", range(4))
    def test_methods_agree(self, seed):
        topo = build_clos(2, 3, 3, 9)
        rng = random.Random(100 + seed)
        for lid in rng.sample(sorted(topo.link_ids()), 10):
            corrupt(topo, lid, rate=10 ** rng.uniform(-6, -2))
        constraint = CapacityConstraint(0.67)
        residuals = []
        for method in ("exhaustive", "branch_and_bound"):
            optimizer = GlobalOptimizer(topo, constraint, method=method)
            residuals.append(optimizer.plan().residual_penalty)
        assert residuals[0] == pytest.approx(residuals[1])

    def test_result_is_feasible(self, medium_clos):
        sprinkle_corruption(medium_clos, fraction=0.3, rng=random.Random(5))
        constraint = CapacityConstraint(0.6)
        optimizer = GlobalOptimizer(medium_clos, constraint)
        result = optimizer.optimize()
        from repro.core import PathCounter

        fractions = PathCounter(medium_clos).tor_fractions()
        assert not constraint.violations(fractions)
        assert result.to_disable.isdisjoint(result.kept_active)


class TestPruningAndCache:
    def test_pruning_reduces_contested_set(self):
        topo = build_clos(4, 4, 4, 16)
        # Concentrate corruption on pod0/tor0 (will be at risk) and scatter
        # a few elsewhere (safe).
        corrupt(topo, ("pod0/tor0", "pod0/agg0"))
        corrupt(topo, ("pod0/tor0", "pod0/agg1"))
        corrupt(topo, ("pod0/tor0", "pod0/agg2"))
        corrupt(topo, ("pod2/tor1", "pod2/agg0"))
        corrupt(topo, ("pod3/agg0", "spine0"))
        optimizer = GlobalOptimizer(topo, CapacityConstraint(0.5))
        result = optimizer.plan()
        assert result.stats.num_safe >= 2
        assert result.stats.num_contested <= 3
        # The scattered links are disabled outright.
        assert ("pod2/tor1", "pod2/agg0") in result.to_disable
        assert ("pod3/agg0", "spine0") in result.to_disable

    def test_pruning_off_same_answer(self):
        topo = build_clos(2, 3, 3, 9)
        rng = random.Random(42)
        for lid in rng.sample(sorted(topo.link_ids()), 8):
            corrupt(topo, lid, rate=10 ** rng.uniform(-5, -2))
        constraint = CapacityConstraint(0.67)
        with_pruning = GlobalOptimizer(topo, constraint).plan()
        without = GlobalOptimizer(topo, constraint, use_pruning=False).plan()
        assert with_pruning.residual_penalty == pytest.approx(
            without.residual_penalty
        )

    def test_reject_cache_skips_supersets(self):
        topo = build_clos(1, 1, 4, 16)
        # Single ToR with 4 uplinks, all corrupting; constraint 0.5 allows
        # only 2 disabled -> plenty of infeasible supersets to skip.
        for lid in list(topo.uplinks("pod0/tor0")):
            corrupt(topo, lid)
        constraint = CapacityConstraint(0.5)
        cached = GlobalOptimizer(
            topo, constraint, method="exhaustive", use_reject_cache=True
        ).plan()
        uncached = GlobalOptimizer(
            topo, constraint, method="exhaustive", use_reject_cache=False
        ).plan()
        assert cached.residual_penalty == pytest.approx(
            uncached.residual_penalty
        )
        assert cached.stats.reject_cache_hits > 0
        assert cached.stats.feasibility_checks < uncached.stats.feasibility_checks

    def test_segmentation_off_same_answer(self):
        topo = build_clos(3, 3, 3, 9)
        rng = random.Random(7)
        for lid in rng.sample(sorted(topo.link_ids()), 10):
            corrupt(topo, lid, rate=10 ** rng.uniform(-5, -2))
        constraint = CapacityConstraint(0.67)
        seg = GlobalOptimizer(topo, constraint, use_segmentation=True).plan()
        noseg = GlobalOptimizer(topo, constraint, use_segmentation=False).plan()
        assert seg.residual_penalty == pytest.approx(noseg.residual_penalty)


class TestObjective:
    def test_prefers_disabling_higher_rates(self):
        """With room for only some links, the optimizer must disable the
        high-rate ones (minimize residual penalty)."""
        topo = build_clos(1, 1, 4, 16)
        uplinks = list(topo.uplinks("pod0/tor0"))
        rates = [1e-2, 1e-3, 1e-4, 1e-5]
        for lid, rate in zip(uplinks, rates):
            corrupt(topo, lid, rate)
        # 50% constraint: at most 2 of 4 uplinks may go.
        optimizer = GlobalOptimizer(topo, CapacityConstraint(0.5))
        result = optimizer.plan()
        assert result.to_disable == set(uplinks[:2])
        assert result.residual_penalty == pytest.approx(1e-4 + 1e-5)

    def test_figure11_pruning_example(self):
        """Figure 11's structure: disabling everything would violate some
        ToRs; pruning isolates the contested region, and the optimizer
        keeps exactly the cheapest links needed to protect it."""
        topo = build_clos(2, 2, 2, 8)
        # ToR baseline: 2 aggs x 4 = 8 paths, 50% constraint -> 4 needed.
        pod0_links = [
            ("pod0/tor0", "pod0/agg0"),
            ("pod0/tor1", "pod0/agg1"),
            ("pod0/agg0", "spine0"),
        ]
        pod1_links = [
            ("pod1/tor0", "pod1/agg0"),
            ("pod1/agg1", "spine4"),
            ("pod1/agg1", "spine5"),
            ("pod1/agg1", "spine6"),
        ]
        for lid in pod0_links + pod1_links:
            corrupt(topo, lid)
        constraint = CapacityConstraint(0.5)
        result = GlobalOptimizer(topo, constraint).plan()
        _best, brute_residual = brute_force_optimal(topo, constraint)
        assert result.residual_penalty == pytest.approx(brute_residual)
        # pod1/tor0 would keep only 1 of 8 paths if everything went; the
        # optimizer must keep exactly one pod1 link (all rates equal).
        assert len(result.kept_active & set(pod1_links)) == 1
        # pod0/tor1 similarly forces one of its two protectors to stay.
        assert len(result.kept_active & set(pod0_links)) == 1
        # The pods are independent segments.
        assert result.stats.num_segments == 2


class TestTieBreakDeterminism:
    """Equal-penalty optima must resolve independently of hash order.

    With a step penalty every candidate ties, so which optimal subset the
    search visits first is decided purely by the candidate ordering.  A
    stable sort over frozenset iteration order would make that ordering —
    and therefore plan() — depend on PYTHONHASHSEED (different answers
    across interpreter invocations for the same topology)."""

    def _plan(self):
        from repro.core import step_penalty

        topo = build_clos(2, 3, 2, 8)
        sprinkle_corruption(topo, fraction=0.3, rng=random.Random(4))
        optimizer = GlobalOptimizer(
            topo, CapacityConstraint(0.5), penalty_fn=step_penalty
        )
        return optimizer.plan()

    def test_ties_resolve_by_link_id_not_by_insertion_order(self):
        """One ToR, two tied corrupting uplinks, room to lose one: the
        smaller canonical id goes, although it was added (and interned)
        last."""
        from repro.core import step_penalty
        from repro.topology import Switch, Topology

        topo = Topology(num_stages=2)
        topo.add_switch(Switch("t0", stage=0))
        for name in ("b", "a"):
            topo.add_switch(Switch(name, stage=1))
            topo.add_link("t0", name)
            topo.set_corruption(("t0", name), 1e-2)
        for method in ("exhaustive", "branch_and_bound"):
            result = GlobalOptimizer(
                topo, CapacityConstraint(0.5), penalty_fn=step_penalty,
                method=method,
            ).plan()
            assert result.to_disable == {("t0", "a")}, method
            assert result.kept_active == {("t0", "b")}

    def test_step_penalty_plan_is_hash_seed_independent(self):
        first = self._plan()
        script = (
            "import json, random\n"
            "from repro.core import (CapacityConstraint, GlobalOptimizer,"
            " step_penalty)\n"
            "from repro.topology import build_clos, sprinkle_corruption\n"
            "topo = build_clos(2, 3, 2, 8)\n"
            "sprinkle_corruption(topo, fraction=0.3, rng=random.Random(4))\n"
            "result = GlobalOptimizer(topo, CapacityConstraint(0.5),"
            " penalty_fn=step_penalty).plan()\n"
            "print(json.dumps(sorted(map(list, result.to_disable))))\n"
        )
        chosen = self._under_hash_seeds(script, ("1", "2"))
        assert chosen[0] == chosen[1]
        assert chosen[0] == sorted(map(list, first.to_disable))

    @staticmethod
    def _under_hash_seeds(script, hash_seeds):
        import json
        import os
        import subprocess
        import sys

        outputs = []
        for hash_seed in hash_seeds:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
            outputs.append(json.loads(out))
        return outputs

    def test_multi_segment_breakout_plan_is_hash_seed_independent(self):
        """Several segments, every candidate tied (step penalty), faulty
        breakout cables corrupting all their members: the plan is the same
        under any string hashing — sets of rows now sit where sorted names
        did — and as good as brute force."""
        script = (
            "import json, random\n"
            "from repro.core import (CapacityConstraint, GlobalOptimizer,"
            " step_penalty)\n"
            "from tests.oracles.brute_force import brute_force_optimal\n"
            "from repro.topology import assign_breakout_groups, build_clos\n"
            "topo = build_clos(3, 3, 2, 4)\n"
            "groups = assign_breakout_groups(topo, fraction=1.0,"
            " links_per_cable=2)\n"
            "rng = random.Random(5)\n"
            "for group in rng.sample(sorted(groups), 6):\n"
            "    for lid in groups[group]:\n"
            "        topo.set_corruption(lid, 10 ** rng.uniform(-2.9, -2))\n"
            "constraint = CapacityConstraint(0.5, {'pod1/tor0': 0.75})\n"
            "result = GlobalOptimizer(topo, constraint,"
            " penalty_fn=step_penalty, exhaustive_limit=3).plan()\n"
            "_best, brute = brute_force_optimal(topo, constraint,"
            " penalty_fn=step_penalty)\n"
            "print(json.dumps({'disable': sorted(map(list, result.to_disable)),"
            " 'segments': result.stats.num_segments,"
            " 'residual': result.residual_penalty, 'brute': brute}))\n"
        )
        plans = self._under_hash_seeds(script, ("0", "1", "4242"))
        assert plans[0] == plans[1] == plans[2]
        assert plans[0]["segments"] >= 2
        assert plans[0]["disable"]
        assert plans[0]["residual"] == plans[0]["brute"] > 0

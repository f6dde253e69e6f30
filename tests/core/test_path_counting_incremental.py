"""Exactness and caching behaviour of the incremental PathCounter.

The guarantee: after any sequence of enable/disable/drain events, the
live counts, fractions, and aggregates are identical to a fresh
full-topology DP (a :class:`ColumnarPathCounter` built from the topology
as it stands, used here as the oracle).
"""

import random
from dataclasses import replace

from repro.core import PathCounter
from repro.topology import build_clos
from repro.topology.columnar import ColumnarPathCounter
from tests.path_counts import baseline_of, counts_of, exact_average


def recount(topo):
    """A full recount of ``topo`` as it stands (the oracle)."""
    return ColumnarPathCounter.for_topology(topo)


class TestIncrementalMatchesFullDP:
    def test_randomized_500_step_fuzz(self):
        topo = build_clos(num_pods=3, tors_per_pod=4, aggs_per_pod=3, num_spines=9)
        counter = PathCounter(topo)
        rng = random.Random(1234)
        links = list(topo.link_ids())

        for step in range(500):
            lid = rng.choice(links)
            roll = rng.random()
            if roll < 0.45:
                topo.disable_link(lid)
            elif roll < 0.90:
                topo.enable_link(lid)
            else:
                topo.drain_link(lid)
            oracle = recount(topo)

            # Full-state comparison every few steps (and densely at the
            # start, where regressions in the propagation order show up).
            if step < 25 or step % 7 == 0:
                assert counts_of(counter) == counts_of(oracle), f"step {step}"
                assert counter.tor_fractions() == oracle.tor_fractions()

            # Aggregates every step: they are what the simulator records.
            fractions = oracle.tor_fractions()
            assert counter.worst_tor_fraction() == min(fractions.values())
            assert counter.worst_tor_fraction() == oracle.worst_tor_fraction()
            assert counter.average_tor_fraction() == exact_average(
                oracle, topo.tors()
            )

            # Hypothetical overlays against the oracle's hypothetical DP.
            if step % 11 == 0:
                extra = frozenset(rng.sample(links, k=rng.randint(1, 5)))
                assert counts_of(counter, extra) == counts_of(oracle, extra)
                assert counter.tor_fractions(extra) == oracle.tor_fractions(
                    extra
                )

        # Final state equals a brand-new counter built from scratch.
        scratch = PathCounter(topo)
        assert counts_of(counter) == counts_of(scratch)
        assert counter.worst_tor_fraction() == scratch.worst_tor_fraction()
        assert counter.average_tor_fraction() == scratch.average_tor_fraction()

    def test_average_is_bit_identical_to_recount(self):
        """The Fraction-based running sum guarantees bit-identical floats,
        not just approximate equality."""
        topo = build_clos(2, 3, 2, 4)
        counter = PathCounter(topo)
        rng = random.Random(7)
        links = list(topo.link_ids())
        for _ in range(200):
            lid = rng.choice(links)
            (topo.disable_link if rng.random() < 0.5 else topo.enable_link)(lid)
            oracle = recount(topo)
            assert counter.average_tor_fraction() == exact_average(
                oracle, topo.tors()
            )
            assert counter.worst_tor_fraction() == oracle.worst_tor_fraction()

    def test_checked_disable_commits_the_overlay(self):
        """A single-link hypothetical query followed by that very link
        going out of service on that very state (check_and_disable) takes
        the overlay as the new live state; any other interleaving takes
        the dirty-region walk.  Either way the state equals a from-scratch
        recount, and the heap and the rational sum follow."""
        from repro.topology import LinkState

        topo = build_clos(3, 4, 3, 6)
        counter = PathCounter(topo)
        rng = random.Random(11)
        links = list(topo.link_ids())
        commits = 0
        for step in range(600):
            lid = rng.choice(links)
            roll = rng.random()
            if roll < 0.6:
                counter.tor_fractions([lid])
            elif roll < 0.75:
                # A two-link query that names the link: not its overlay.
                counter.tor_fractions([lid, rng.choice(links)])
            else:
                counter.tor_fractions([rng.choice(links)])
            if rng.random() < 0.2:
                # Something else changes between the check and the disable.
                topo.disable_link(rng.choice(links))
            if rng.random() < 0.1:
                # The disable of an already-disabled link is checked, then
                # the link comes back: not the checked transition.
                counter.tor_fractions([lid])
                topo.enable_link(lid)
            before = counter.stats.links_visited
            was_enabled = topo.link(lid).enabled
            roll = rng.random()
            if roll < 0.3:
                # Direct mutation: asked about before or after the flip, or
                # notified with nothing flipped at all.
                if rng.random() < 0.7:
                    topo.link(lid).state = LinkState.DRAINED
                    was_enabled = False
                if rng.random() < 0.5:
                    counter.tor_fractions([lid])
                counter._on_admin_change(lid)
            elif roll < 0.45:
                topo.drain_link(lid)
            else:
                topo.disable_link(lid)
            # (A notification where nothing flipped visits nothing either.)
            flipped = was_enabled and not topo.link(lid).enabled
            if flipped and counter.stats.links_visited == before:
                commits += 1
            oracle = recount(topo)
            assert counts_of(counter) == counts_of(oracle)
            assert counter.worst_tor_fraction() == oracle.worst_tor_fraction()
            assert counter.average_tor_fraction() == exact_average(
                oracle, topo.tors()
            )
            for back in rng.sample(links, k=3):
                topo.enable_link(back)
            assert counts_of(counter) == counts_of(recount(topo))
        assert commits > 100


class TestIncrementalAccounting:
    def test_incremental_visits_fewer_links(self):
        topo = build_clos(4, 8, 4, 16)
        counter = PathCounter(topo)
        # A full pass crosses every uplink once: the build runs two (the
        # design counts and the live ones).
        assert counter.stats.full_recounts == 2
        assert counter.stats.links_visited == 2 * topo.num_links
        lid = ("pod0/tor0", "pod0/agg0")
        topo.disable_link(lid)
        counter.tor_fractions()
        walked = counter.stats.links_visited - 2 * topo.num_links
        assert 0 < walked < topo.num_links / 5
        assert counter.stats.incremental_updates == 1
        assert counter.stats.full_recounts == 2

    def test_redundant_transitions_do_not_dirty(self):
        """enable on an enabled link / DISABLED->DRAINED must not trigger
        recomputation (effective state unchanged)."""
        topo = build_clos(2, 2, 2, 4)
        counter = PathCounter(topo)
        lid = ("pod0/tor0", "pod0/agg0")
        topo.enable_link(lid)  # already enabled
        assert counter.stats.incremental_updates == 0
        topo.disable_link(lid)
        assert counter.stats.incremental_updates == 1
        topo.drain_link(lid)  # disabled -> drained: still not carrying
        assert counter.stats.incremental_updates == 1
        topo.enable_link(lid)
        assert counter.stats.incremental_updates == 2

    def test_affected_tors_cache_invalidated_on_admin_change(self):
        topo = build_clos(2, 3, 2, 4)
        counter = PathCounter(topo)
        agg_spine = ("pod0/agg0", "spine0")
        assert counter.affected_tors(agg_spine) == {
            "pod0/tor0",
            "pod0/tor1",
            "pod0/tor2",
        }
        # Cutting a ToR's downlink shields it; the memo must not leak the
        # stale answer.
        topo.disable_link(("pod0/tor0", "pod0/agg0"))
        assert "pod0/tor0" not in counter.affected_tors(agg_spine)

    def test_structural_change_rebuilds_baseline(self):
        from repro.topology import Switch, Topology

        topo = Topology(num_stages=2)
        topo.add_switch(Switch("t0", stage=0))
        topo.add_switch(Switch("s0", stage=1))
        topo.add_link("t0", "s0")
        counter = PathCounter(topo)
        assert baseline_of(counter)["t0"] == 1
        topo.add_switch(Switch("s1", stage=1))
        topo.add_link("t0", "s1")
        assert baseline_of(counter)["t0"] == 2
        assert counts_of(counter)["t0"] == 2

    def test_notify_link_change_for_direct_mutation(self):
        from repro.topology import LinkState

        topo = build_clos(2, 2, 2, 4)
        counter = PathCounter(topo)
        lid = ("pod0/tor0", "pod0/agg0")
        topo.link(lid).state = LinkState.DISABLED  # bypasses the topology API
        counter._on_admin_change(lid)  # the notification, by hand
        assert counts_of(counter)["pod0/tor0"] == 2

    def test_detach_stops_updates(self):
        topo = build_clos(2, 2, 2, 4)
        counter = PathCounter(topo)
        counter.detach()
        stats, counts = replace(counter.stats), counts_of(counter)
        topo.disable_link(("pod0/tor0", "pod0/agg0"))
        assert counter.stats == stats
        assert counts_of(counter) == counts
        assert counts["pod0/tor0"] == 4

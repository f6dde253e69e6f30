"""The row-walking PathCounter against a naive name-keyed oracle.

The oracle below is the §5.1 DP written the obvious way — dicts keyed by
switch name, ``topo.uplinks`` / ``topo.link`` per step, every ToR's
fraction summed as an exact ``Fraction`` — and imports nothing from
``repro.core.path_counting``.  After every step of a random operation
sequence the counter must agree with it on every public query, exactly.
"""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CapacityConstraint, FastChecker, PathCounter
from repro.topology import (
    LinkState,
    Switch,
    Topology,
    assign_breakout_groups,
    build_clos,
    build_fattree,
    build_multi_tier,
)
from repro.topology.random_topo import build_irregular_clos
from tests.path_counts import baseline_of, counts_of


# --------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------- #


def naive_counts(topo, extra=(), design=False, weighted=False):
    top = topo.num_stages - 1
    counts = {}
    for stage in range(top, -1, -1):
        for name in topo.stage(stage):
            if stage == top:
                counts[name] = 1.0 if weighted else 1
                continue
            total = 0.0 if weighted else 0
            for lid in topo.uplinks(name):
                link = topo.link(lid)
                if weighted:
                    # Protected links carry their LG capacity fraction.
                    weight = (
                        link.lg_capacity_fraction if link.lg_protected else 1
                    )
                    if link.enabled and weight:
                        total += weight * counts[link.upper]
                elif design or (link.enabled and lid not in extra):
                    total += counts[link.upper]
            counts[name] = total
    return counts


def naive_fractions(topo, extra=(), weighted=False):
    counts = naive_counts(topo, extra, weighted=weighted)
    design = naive_counts(topo, design=True)
    return {
        tor: counts[tor] / design[tor] if design[tor] else 0.0
        for tor in topo.tors()
    }


def naive_average(topo):
    counts, design = naive_counts(topo), naive_counts(topo, design=True)
    tors = topo.tors()
    if not tors:
        return 1.0
    total = sum(
        (Fraction(counts[t], design[t]) for t in tors if design[t]),
        Fraction(0),
    )
    return float(total / len(tors))


def naive_affected(topo, lid):
    seen, frontier = {lid[0]}, [lid[0]]
    while frontier:
        for down in topo._downlinks[frontier.pop()]:
            if topo.link(down).enabled and down[0] not in seen:
                seen.add(down[0])
                frontier.append(down[0])
    return {name for name in seen if topo.switch(name).stage == 0}


def assert_matches_oracle(counter, topo, rng):
    fractions = naive_fractions(topo)
    assert counts_of(counter) == naive_counts(topo)
    assert baseline_of(counter) == naive_counts(topo, design=True)
    assert counter.tor_fractions() == fractions
    assert list(counter.tor_fractions()) == topo.tors()
    assert counter.worst_tor_fraction() == min(fractions.values(), default=1.0)
    assert counter.average_tor_fraction() == naive_average(topo)
    if topo.has_lg_protection():
        weighted = naive_fractions(topo, weighted=True)
    else:
        weighted = fractions
    assert counter.effective_tor_fractions() == weighted
    links = list(topo.link_ids())
    for lid in rng.sample(links, k=min(3, len(links))):
        assert counter.affected_tors(lid) == naive_affected(topo, lid)
        assert counts_of(counter, [lid]) == naive_counts(topo, {lid})
    several = rng.sample(links, k=min(rng.randint(2, 6), len(links)))
    assert counter.tor_fractions(several) == naive_fractions(topo, set(several))
    some = rng.sample(topo.tors(), k=min(3, len(topo.tors())))
    assert counter.tor_fractions(several[:1], tors=some) == {
        tor: naive_fractions(topo, set(several[:1]))[tor] for tor in some
    }


# --------------------------------------------------------------------- #
# Instances and operations
# --------------------------------------------------------------------- #


def _breakout_clos():
    topo = build_clos(3, 4, 4, 8)
    assign_breakout_groups(topo, fraction=0.5, links_per_cable=2)
    return topo


BUILDERS = {
    "irregular": lambda seed: build_irregular_clos(seed=seed),
    "clos": lambda seed: build_clos(3, 3, 2, 4),
    "fattree": lambda seed: build_fattree(4),
    "four-tier": lambda seed: build_multi_tier([4, 3, 3, 2], [2, 2, 2]),
    "breakout": lambda seed: _breakout_clos(),
}


def _add_link_somewhere(topo, rng):
    """Add one link between adjacent stages that is not there yet (and,
    half the time, a new switch to hang it on)."""
    stage = rng.randrange(topo.num_stages - 1)
    if rng.random() < 0.5:
        name = f"extra{topo.num_switches}"
        topo.add_switch(Switch(name, stage=stage))
        return topo.add_link(name, rng.choice(topo.stage(stage + 1)))
    pairs = [
        (lo, up)
        for lo in topo.stage(stage)
        for up in topo.stage(stage + 1)
        if (lo, up) not in topo.link_row
    ]
    return topo.add_link(*rng.choice(pairs)) if pairs else None


def _naive_check(topo, constraint, lid):
    if not topo.link(lid).enabled:
        return True, {}
    fractions = naive_fractions(topo, {lid})
    after = {tor: fractions[tor] for tor in sorted(naive_affected(topo, lid))}
    allowed = all(
        fraction >= constraint.threshold(tor) - 1e-12
        for tor, fraction in after.items()
    )
    return allowed, after


def naive_corrupting(topo, threshold):
    return [
        lid
        for lid in topo.link_ids()
        if topo.link(lid).enabled
        and topo.link(lid).max_corruption_rate() >= threshold
    ]


def assert_decisions_match_oracle(counter, topo, constraint, rng):
    """The optimizer's pruning query over every ToR, the delta overlay
    behind it, and the candidate list, each against a scan."""
    links = list(topo.link_ids())
    extra = set(rng.sample(links, k=min(rng.randint(1, 8), len(links))))
    rows = frozenset(topo.link_row[lid] for lid in extra)
    names = topo.switch_names
    want = {
        tor: fraction
        for tor, fraction in naive_fractions(topo, extra).items()
        if not constraint.satisfied_by(tor, fraction)
    }
    floors = counter.floors(constraint)
    # The counter's own column, then an equal one it has not seen.
    for column in (floors, list(floors)):
        violated = counter.violations(column, None, rows)
        assert {names[tor]: f for tor, f in violated.items()} == want
    live, after = naive_counts(topo), naive_counts(topo, extra)
    overlay = counter._overlay_with_extra(rows)
    assert {names[row]: count for row, count in overlay.items()} == {
        name: count for name, count in after.items() if count != live[name]
    }
    for threshold in (1e-8, 0.0):
        assert topo.corrupting_links(threshold) == naive_corrupting(
            topo, threshold
        )


#: The topology's API for putting a link into each state.
SET_STATE = {
    LinkState.ENABLED: Topology.enable_link,
    LinkState.DISABLED: Topology.disable_link,
    LinkState.DRAINED: Topology.drain_link,
}


@given(
    builder=st.sampled_from(sorted(BUILDERS)),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_counter_equals_naive_oracle_after_every_step(builder, seed):
    rng = random.Random(seed)
    topo = BUILDERS[builder](seed)
    counter = PathCounter(topo)
    hot = rng.sample(topo.tors(), k=2)
    constraint = CapacityConstraint(
        rng.choice([0.4, 0.5, 0.75]), {hot[0]: 0.9, hot[1]: 0.3}
    )
    checker = FastChecker(topo, constraint, counter=counter)
    links = list(topo.link_ids())
    for lid in rng.sample(links, k=len(links) // 4):
        # Rates on both sides of the 1e-8 candidate threshold.
        topo.set_corruption(lid, 10 ** rng.uniform(-10, -3))
    assert_matches_oracle(counter, topo, rng)
    assert_decisions_match_oracle(counter, topo, constraint, rng)
    for _step in range(25):
        links = list(topo.link_ids())
        lid = rng.choice(links)
        roll = rng.random()
        if roll < 0.25:
            topo.disable_link(lid)
        elif roll < 0.45:
            topo.enable_link(lid)
        elif roll < 0.55:
            topo.drain_link(lid)
        elif roll < 0.65:
            # Direct write: the counter answers for what it was told until
            # notified (asked in between, it must not take the new state).
            before = counts_of(counter)
            link = topo.link(lid)
            old, new = link.state, rng.choice(list(LinkState))
            link.state = new
            assert counts_of(counter) == before
            counter._on_admin_change(lid)
            # The same state through the API, so the topology's own indexes
            # agree again; the counter, told already, sees nothing flip.
            link.state = old
            SET_STATE[new](topo, lid)
        elif roll < 0.85:
            allowed, after = _naive_check(topo, constraint, lid)
            was_enabled = topo.link(lid).enabled
            if was_enabled:
                tors, fractions = counter.fractions_without(topo.link_row[lid])
                names = [topo.switch_names[tor] for tor in tors]
                assert dict(zip(names, fractions)) == after
                assert names == list(after)
            result = checker.check_and_disable(lid)
            assert result.allowed == allowed
            assert result.violated_tors == {
                tor: fraction
                for tor, fraction in after.items()
                if not constraint.satisfied_by(tor, fraction)
            }
            assert topo.link(lid).enabled == (was_enabled and not allowed)
        elif roll < 0.92:
            topo.set_corruption(lid, 10 ** rng.uniform(-10, -3))
            if topo.link(lid).enabled:
                topo.link(lid).lg_capable = True
                topo.protect_link(lid, 1e-9, rng.choice([0.5, 0.9]))
        else:
            _add_link_somewhere(topo, rng)
        assert_matches_oracle(counter, topo, rng)
        assert_decisions_match_oracle(counter, topo, constraint, rng)
    counter.detach()


def test_counter_attached_while_the_topology_grows_rebuilds_once():
    """400 ToRs + 400 links added under an attached counter used to cost
    two full DPs per add; now the adds only mark it stale."""
    topo = build_clos(1, 2, 2, 2)
    counter = PathCounter(topo)
    built = counter.stats.full_recounts
    for i in range(400):
        topo.add_switch(Switch(f"new{i}", stage=0, pod="pod0"))
        topo.add_link(f"new{i}", f"pod0/agg{i % 2}")
    assert counter.stats.full_recounts == built
    assert counter.tor_fractions() == naive_fractions(topo)
    assert counter.stats.full_recounts <= built + 2
    fresh = PathCounter(topo)
    assert counts_of(counter) == counts_of(fresh) == naive_counts(topo)
    assert baseline_of(counter) == baseline_of(fresh)
    assert counter.average_tor_fraction() == fresh.average_tor_fraction()
    assert counter.worst_tor_fraction() == fresh.worst_tor_fraction()
    # An admin change on a stale counter rebuilds first, then applies.
    topo.add_link("new0", "pod0/agg1")
    topo.disable_link(("new0", "pod0/agg0"))
    assert counts_of(counter) == naive_counts(topo)
    assert counter.stats.full_recounts <= built + 4


def test_enable_refreshes_the_told_state_column():
    """Disable then enable through the topology: the second notification
    must write the column back, or every later walk skips the link."""
    topo = build_clos(2, 2, 2, 4)
    counter = PathCounter(topo)
    lid = ("pod0/agg0", "spine0")
    topo.disable_link(lid)
    topo.enable_link(lid)
    assert counts_of(counter) == naive_counts(topo)
    assert counter.tor_fractions([("pod0/tor0", "pod0/agg1")]) == (
        naive_fractions(topo, {("pod0/tor0", "pod0/agg1")})
    )
    assert counter.affected_tors(lid) == {"pod0/tor0", "pod0/tor1"}


def test_walk_visits_the_dirty_region_and_nothing_else():
    """``links_visited`` is the paper's unit of cost (and a benchmark
    counter): a walk crosses each link a change enters by, then pushes the
    change through enabled downlinks only, never through a link that is
    itself named, and never below a switch whose count did not move."""
    topo = build_clos(2, 3, 2, 4)  # pod0/agg0 -> spine0, spine1
    counter = PathCounter(topo)
    topo.disable_link(("pod0/tor0", "pod0/agg0"))
    start = replace(counter.stats)

    def since(field):
        return getattr(counter.stats, field) - getattr(start, field)

    # agg0 loses spine0's path (1 link), pushed down to tor1 and tor2 (2);
    # the downlink to tor0 is off.
    counter.tor_fractions([("pod0/agg0", "spine0")])
    assert since("links_visited") == 1 + 2
    # Naming tor1's uplink as well: two links in (tor1 loses agg0's whole
    # live count of 2), and agg0's change reaches tor2 only (1).
    both = [("pod0/agg0", "spine0"), ("pod0/tor1", "pod0/agg0")]
    assert counts_of(counter, both)["pod0/tor1"] == 2
    assert since("links_visited") == 3 + 2 + 1
    # A link that is off already lets nothing in.
    counter.tor_fractions([("pod0/tor0", "pod0/agg0")])
    assert since("links_visited") == 6
    # Enabling tor0's uplink: the link itself, and a ToR has no downlinks.
    topo.enable_link(("pod0/tor0", "pod0/agg0"))
    assert since("links_visited") == 6 + 1
    # A notification where nothing flipped lets nothing in.
    counter._on_admin_change(("pod0/tor0", "pod0/agg0"))
    assert since("links_visited") == 7
    assert since("overlay_queries") == 3
    assert since("incremental_updates") == 2

    # spine -> core -> agg -> two ToRs, the core's uplink off: every count
    # below it is 0, so the agg's uplink carries nothing and moves nothing.
    topo = Topology(num_stages=4)
    for name, stage in (("s", 3), ("c", 2), ("a", 1), ("t0", 0), ("t1", 0)):
        topo.add_switch(Switch(name, stage=stage))
    for lower, upper in (("c", "s"), ("a", "c"), ("t0", "a"), ("t1", "a")):
        topo.add_link(lower, upper)
    counter = PathCounter(topo)
    topo.disable_link(("c", "s"))
    start = replace(counter.stats)
    topo.disable_link(("a", "c"))
    assert since("links_visited") == 1
    assert counts_of(counter) == naive_counts(topo)
    topo.enable_link(("a", "c"))
    assert counts_of(counter, [("a", "c")]) == naive_counts(topo, {("a", "c")})
    assert since("links_visited") == 1 + 1 + 1


def test_overlay_commit_updates_the_aggregates():
    """check_and_disable takes the checked overlay as the new state: the
    exact mean and the worst-fraction heap must follow it."""
    topo = build_clos(2, 3, 2, 4)
    counter = PathCounter(topo)
    checker = FastChecker(topo, CapacityConstraint(0.5), counter=counter)
    before = counter.stats.links_visited
    assert checker.check_and_disable(("pod0/agg0", "spine0")).allowed
    walked = counter.stats.links_visited - before
    assert counter.average_tor_fraction() == naive_average(topo)
    assert counter.worst_tor_fraction() == 0.75
    assert counts_of(counter) == naive_counts(topo)
    # One walk (the check), none for the commit.
    before = counter.stats.links_visited
    counter.tor_fractions([("pod1/agg0", "spine0")])
    assert counter.stats.links_visited - before == walked


def test_pickled_counter_rebuilds_without_touching_stats():
    import pickle

    topo = build_clos(2, 3, 2, 4)
    counter = PathCounter(topo)
    topo.disable_link(("pod0/agg0", "spine0"))
    counter.tor_fractions([("pod0/tor0", "pod0/agg1")])
    stats = pickle.loads(pickle.dumps(counter.stats))
    clone_topo, clone = pickle.loads(pickle.dumps((topo, counter)))
    assert clone.topo is clone_topo
    assert counts_of(clone) == counts_of(counter) == naive_counts(topo)
    assert clone.average_tor_fraction() == counter.average_tor_fraction()
    assert clone.stats == stats
    # The restored pair is live: the clone follows its own topology only.
    clone_topo.disable_link(("pod1/agg0", "spine0"))
    assert counts_of(clone) == naive_counts(clone_topo) != counts_of(counter)
    assert clone.stats.incremental_updates == stats.incremental_updates + 1

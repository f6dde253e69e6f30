"""``Topology.copy()``: a clone and its original share no state.

Random sequences of every mutator run on a clone and on its original,
each step also on an independently built twin of the side it targets.
A side that saw the other's changes would part from its twin: in its link
columns, its indexes, ``up_disabled``, its adjacency, or its bound
``PathCounter``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PathCounter
from repro.topology import Direction, LinkState, Switch, assign_breakout_groups
from repro.topology.clos import build_clos
from repro.topology.graph import LINK_COLUMNS
from tests.path_counts import counts_of


def build():
    topo = build_clos(num_pods=2, tors_per_pod=3, aggs_per_pod=2, num_spines=4)
    assign_breakout_groups(topo, fraction=0.5, links_per_cable=2)
    topo.assign_lg_capable(0.5)
    links = list(topo.link_ids())
    for lid in links[::5]:
        topo.set_corruption(lid, 1e-4, Direction.DOWN)
    topo.disable_link(links[3])
    topo.drain_link(links[7])
    return topo


def _protect(topo, lid, value):
    """Protect ``lid`` or, when it cannot be, an enabled LG-capable link."""
    view = topo.link(lid)
    if not (view.lg_capable and view.enabled):
        ready = [
            link.link_id for link in topo.links()
            if link.lg_capable and link.enabled
        ]
        if not ready:
            raise ValueError("no link can be protected")
        lid = ready[int(value * (len(ready) - 1))]
    topo.protect_link(lid, value / 1e4, 0.5 + value / 2)


def _write_rate(topo, lid, value):
    topo.set_corruption(lid, value, Direction.UP)


def _write_lg(topo, lid, value):
    view = topo.link(lid)
    view.lg_capable = not view.lg_capable
    view.lg_protected = value > 0.5
    view.lg_effective_loss = value / 1e6
    view.lg_capacity_fraction = value


def _write_plant(topo, lid, value):
    view = topo.link(lid)
    view.capacity_gbps = 100.0 * value
    view.breakout_group = f"g{value}"


def _grow(topo, lid, value):
    """A new switch below the upper end of ``lid`` (copies share their
    per-switch lists until one side grows)."""
    name = f"extra{topo.num_switches}"
    topo.add_switch(Switch(name, stage=topo.switch(lid[1]).stage - 1))
    topo.add_link(name, lid[1])


def _cross_link(topo, lid, value):
    """A new link from the lower end of ``lid`` to the first switch above
    it that it has no link to."""
    lower = lid[0]
    above = topo.stage(topo.switch(lower).stage + 1)
    free = [name for name in above if (lower, name) not in topo.link_row]
    if not free:
        raise ValueError("no free upper switch")
    topo.add_link(lower, free[int(value * (len(free) - 1))])


#: Every mutator, as ``(topo, link id, value in [0, 1])``.
MUTATORS = (
    lambda topo, lid, value: topo.disable_link(lid),
    lambda topo, lid, value: topo.enable_link(lid),
    lambda topo, lid, value: topo.drain_link(lid),
    lambda topo, lid, value: topo.set_corruption(lid, value, Direction.UP),
    lambda topo, lid, value: topo.set_corruption(lid, value, Direction.DOWN),
    lambda topo, lid, value: topo.clear_corruption(lid),
    _protect,
    lambda topo, lid, value: topo.unprotect_link(lid),
    lambda topo, lid, value: setattr(
        topo.link(lid), "lg_capable", value > 0.5
    ),
    lambda topo, lid, value: topo.assign_lg_capable(value, salt=7),
    # The view setters: they write columns and bypass the indexes.
    lambda topo, lid, value: setattr(
        topo.link(lid), "state", list(LinkState)[int(value * 2.999)]
    ),
    _write_rate,
    _write_lg,
    _write_plant,
    _grow,
    _cross_link,
)


def apply(topo, mutator, index, value):
    """Run one step; returns the error it raised, by type, or None."""
    links = list(topo.link_ids())
    try:
        MUTATORS[mutator](topo, links[index % len(links)], value)
    except ValueError as exc:
        return type(exc)
    return None


def snapshot(topo, counter):
    return (
        [getattr(topo, name) for name in LINK_COLUMNS],
        sorted(topo.links_with_corruption()),
        sorted(topo.disabled_links()),
        sorted(topo._lg_protected),
        topo.corrupting_links(),
        topo.up_disabled,
        topo.up_rows,
        topo.down_rows,
        [topo.stage(stage) for stage in range(topo.num_stages)],
        [topo.switch_links(name) for name in topo.switch_names],
        counts_of(counter),
        counter.effective_tor_fractions(),
        counter.stats.incremental_updates,
    )


steps = st.lists(
    st.tuples(
        st.booleans(),  # True: the clone, False: the original
        st.integers(0, len(MUTATORS) - 1),
        st.integers(0, 10_000),
        st.floats(0.0, 1.0),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(steps=steps)
def test_clone_and_original_never_see_each_others_changes(steps):
    original = build()
    original_counter = PathCounter(original)
    clone = original.copy()
    clone_counter = PathCounter(clone)
    twins = {False: build(), True: build()}
    twin_counters = {side: PathCounter(twin) for side, twin in twins.items()}
    sides = {False: original, True: clone}
    counters = {False: original_counter, True: clone_counter}
    for on_clone, mutator, index, value in steps:
        step = (mutator, index, value)
        assert apply(sides[on_clone], *step) == apply(twins[on_clone], *step)
        for side in (False, True):
            assert snapshot(sides[side], counters[side]) == snapshot(
                twins[side], twin_counters[side]
            )

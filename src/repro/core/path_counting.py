"""Valley-free ToR-to-spine path counting.

This implements the O(|E|) dynamic program at the heart of CorrOpt's fast
checker (§5.1): "for each switch v2 in the second-highest stage, we count
the active (one-hop) paths p1(v2) to the spine ... this process is iterated
until the ToR-stage is reached."  Conceptually O(1) work per link.

The *capacity fraction* of a ToR is its current path count divided by its
design path count (all links enabled) — the metric of §5.1, illustrated by
Figure 10 where ToR ``T`` retains "9 out of 25 paths".

The counter is **incremental**: it subscribes to the topology's
administrative-change notifications and, when a link flips, pushes the
count change down the *dirty region* — the switches whose up-path counts
flow through the changed link — instead of rerunning the full DP.
Hypothetical queries (``extra_disabled``) are answered the same way, as
an overlay delta on the live counts.  Changes note the ToRs they move,
and the worst / average fraction settle them on read: a snapshot costs
O(ToRs moved) rather than O(|ToRs| · |E|).  Passing ``incremental=False``
restores the original recount-per-query behaviour (used as the baseline
in ``benchmarks/test_runtime_incremental_counter.py``).

Everything below the public methods runs on the topology's interned rows
(:meth:`Topology._build_rows`): counts and baselines are lists by switch
row, hypothetical disables are sets of link rows, an overlay maps switch
row to count.  Names appear only in what the public methods take and
return; the fast checker, optimizer and repair scheduler use the row
methods (:meth:`PathCounter.violations` & co.) directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.penalty import ordered_sum
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.topology.elements import LinkId, LinkState
from repro.topology.graph import Topology

_EMPTY: FrozenSet[int] = frozenset()

#: ``PathCounter._stale`` after unpickling (as opposed to ``True`` after a
#: structure change): the rebuild must leave ``stats`` as saved.
_RESTORED = "restored"

#: Bound on the memoization caches (entries), to keep long replays from
#: accumulating unbounded closure keys.
_CACHE_LIMIT = 4096


@dataclass
class PathCounterStats:
    """Work accounting for one counter (primarily for benchmarks).

    Attributes:
        links_visited: Links the DP crosses (the paper's O(|E|) unit of
            cost): every uplink in a full pass; in a walk, each enabled
            ``extra`` link or the flipped one, plus each enabled downlink
            a change is pushed through.
        full_recounts: Full-topology DP passes executed.
        incremental_updates: Dirty-region updates triggered by admin
            changes.
        overlay_queries: Hypothetical (``extra_disabled``) region queries.
    """

    links_visited: int = 0
    full_recounts: int = 0
    incremental_updates: int = 0
    overlay_queries: int = 0

    def reset(self) -> None:
        self.links_visited = 0
        self.full_recounts = 0
        self.incremental_updates = 0
        self.overlay_queries = 0


class PathCounter:
    """Counts valley-free up-paths from every switch to the spine.

    The counter is bound to a topology and tracks its administrative state
    live (via :meth:`Topology.subscribe_admin_changes`); hypothetical
    disables are passed as ``extra_disabled`` sets so the optimizer can
    evaluate candidate subsets without mutating the topology.

    Args:
        topo: The topology to bind to.
        incremental: Maintain live counts and answer queries from the
            cached state (the default).  ``False`` recounts the topology
            on every query — the pre-incremental behaviour, kept as the
            benchmark baseline.

    Invalidation contract:
        * Administrative changes made through ``topo.disable_link`` /
          ``enable_link`` / ``drain_link`` are picked up automatically.
        * Code that flips ``Link.state`` directly bypasses the
          notification: the counter keeps answering for the state it was
          last told.
        * Structural changes (``add_switch`` / ``add_links``) mark the
          counter stale; the next query or change notification rebuilds it
          once, baseline included.

    Example:
        >>> from repro.topology import build_clos
        >>> topo = build_clos(2, 2, 2, 4)
        >>> counter = PathCounter(topo)
        >>> counter.tor_fractions()["pod0/tor0"]
        1.0
    """

    def __init__(
        self,
        topo: Topology,
        incremental: bool = True,
        obs: Recorder = NULL_RECORDER,
    ):
        self._topo = topo
        self._incremental = incremental
        self.obs = obs
        self.stats = PathCounterStats()
        # What the counter has been told about each link row (1 = carries
        # traffic): written in ``_on_admin_change`` from ``link.enabled``,
        # extended for new links on a rebuild, and the one column that is
        # pickled.
        self._enabled = bytearray()
        self._rebuild_structure()
        topo.subscribe_admin_changes(self._on_admin_change)
        topo.subscribe_structure_changes(self._on_structure_change)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def topo(self) -> Topology:
        """The topology this counter is bound to."""
        return self._topo

    def set_incremental(self, incremental: bool) -> None:
        """Switch between incremental and recount-per-query modes."""
        if incremental == self._incremental:
            return
        self._sync()
        self._incremental = incremental
        if incremental:
            self._rebuild_live_state()

    def detach(self) -> None:
        """Unsubscribe from the topology (for explicit lifecycle control)."""
        self._topo.unsubscribe_admin_changes(self._on_admin_change)
        self._topo.unsubscribe_structure_changes(self._on_structure_change)

    def __getstate__(self) -> dict:
        # Everything else is derived from the topology's rows.
        keep = ("_topo", "_incremental", "obs", "stats", "_enabled")
        return {name: self.__dict__[name] for name in keep}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # The topology pickles its listeners, this counter among them, so
        # it may still be an empty shell here: rebuild on first use.
        self._stale = _RESTORED

    def _sync(self) -> None:
        """Rebuild once if a structure change or an unpickle left the
        derived tables behind."""
        stale = self._stale
        if stale:
            saved = replace(self.stats)
            self._rebuild_structure()
            if stale is _RESTORED:
                # A resumed run reports what the uninterrupted one does.
                self.stats = saved

    def _rebuild_structure(self) -> None:
        topo = self._topo
        self._stale = False
        # The topology's append-only tables, held by reference.
        self._names = topo.switch_names
        self._stage = stage = topo.switch_stage
        self._up, self._down = topo.up_rows, topo.down_rows
        self._lower, self._upper = topo.lower_row, topo.upper_row
        self._top = topo.num_stages - 1
        # Switch rows in stage-descending order (spine first, insertion
        # order within a stage) so a single pass computes the DP.
        self._descending = sorted(range(len(stage)), key=lambda r: -stage[r])
        self._tor_rows = [r for r in range(len(stage)) if stage[r] == 0]
        self._num_tors = len(self._tor_rows)
        # Each switch row's position in name order (by_name, inverted).
        by_name = sorted(range(len(stage)), key=self._names.__getitem__)
        self._rank = sorted(range(len(stage)), key=by_name.__getitem__)
        carrying = LinkState.ENABLED
        self._enabled.extend(
            [
                state is carrying
                for state in topo.link_state[len(self._enabled) :]
            ]
        )
        self._baseline = self._count(ignore_admin_state=True)
        self._closure_cache: Dict[FrozenSet[int], Set[int]] = {}
        self._affected_cache: Dict[int, List[int]] = {}
        # (constraint, its floors column, the highest ToR floor in it)
        self._floors: Tuple[object, List[float], float] = (None, [], 0.0)
        self._state_version = 0
        self._full_cache: Optional[Tuple[int, List[int]]] = None
        self._effective_cache: Optional[
            Tuple[Tuple[int, int], List[float]]
        ] = None
        self._rebuild_live_state()

    def _rebuild_live_state(self) -> None:
        """(Re)compute the live counts and aggregates with one full DP."""
        self._counts: List[int] = self._count()
        # (state version, link row, overlay) of the latest single-link
        # overlay query on an enabled link.  Every admin change bumps the
        # version, so a record only ever matches the change right after
        # its query.
        self._checked: Tuple[int, int, Dict[int, int]] = (-1, -1, {})
        # The mean's numerators: the sum of the live counts of the ToRs
        # sharing each design count (exact; see average_tor_fraction).
        self._sums = self._tor_sums(self._counts)
        self._min_heap = [(self._frac(row), row) for row in self._tor_rows]
        heapq.heapify(self._min_heap)
        # ToR row -> its count when the aggregates last saw it (_settle).
        self._dirty: Dict[int, int] = {}

    def _tor_sums(self, counts: List[int]) -> Dict[int, int]:
        sums: Dict[int, int] = {}
        baseline = self._baseline
        for row in self._tor_rows:
            base = baseline[row]
            if base:
                sums[base] = sums.get(base, 0) + counts[row]
        return sums

    # ------------------------------------------------------------------ #
    # Change notifications
    # ------------------------------------------------------------------ #

    def _on_admin_change(self, link_id: LinkId) -> None:
        self._sync()
        row = self._topo.link_row[link_id]
        enabled = self._topo.link_state[row] is LinkState.ENABLED
        version, checked_row, overlay = self._checked
        just_checked = version == self._state_version
        self._state_version += 1
        # affected_rows depends on enabled downlinks; drop memoized entries.
        self._affected_cache.clear()
        flipped = enabled != self._enabled[row]
        self._enabled[row] = enabled
        if not self._incremental:
            return
        self.stats.incremental_updates += 1
        if not flipped:
            return
        if not just_checked or checked_row != row or enabled:
            overlay = self._walk(
                (row,), 1 if enabled else -1, _EMPTY, "incremental"
            )
        # Otherwise this is check_and_disable: the fast check walked this
        # very disable on this very state, so its overlay is the new state.
        counts, stage, dirty = self._counts, self._stage, self._dirty
        for switch, new in overlay.items():
            if stage[switch] == 0 and switch not in dirty:
                dirty[switch] = counts[switch]
            counts[switch] = new

    def _on_structure_change(self) -> None:
        if not self._stale:
            self._stale = True

    def _frac(self, tor: int) -> float:
        base = self._baseline[tor]
        return self._counts[tor] / base if base else 0.0

    def _settle(self) -> None:
        """Bring ``_sums`` and the heap up to the live counts: one update
        and one heap entry per ToR whose count moved since the last settle
        (a ToR with design count 0 never moves)."""
        counts, baseline, sums = self._counts, self._baseline, self._sums
        heap = self._min_heap
        for tor, old in self._dirty.items():
            new = counts[tor]
            if new != old:
                base = baseline[tor]
                sums[base] += new - old
                heapq.heappush(heap, (new / base, tor))
        self._dirty.clear()
        if len(heap) > 4 * self._num_tors + 64:
            self._min_heap = [(self._frac(t), t) for t in self._tor_rows]
            heapq.heapify(self._min_heap)

    # ------------------------------------------------------------------ #
    # DP kernels
    # ------------------------------------------------------------------ #

    def _count(
        self,
        extra: Collection[int] = _EMPTY,
        ignore_admin_state: bool = False,
        restrict: Optional[Set[int]] = None,
    ) -> List[int]:
        """Run the full DP; returns path counts by switch row.

        Args:
            extra: Link rows treated as disabled on top of the
                administrative state.
            ignore_admin_state: Count over the pristine design topology
                (used for the baseline denominator).
            restrict: If given, an *upstream-closed* set of switch rows;
                the DP only visits these (the rest read 0).  Used by the
                recount-per-query mode to evaluate candidate subsets on a
                pruned region.
        """
        up, upper, stage, top = self._up, self._upper, self._stage, self._top
        enabled = self._enabled
        counts = [0] * len(stage)
        visited = 0
        for row in self._descending:
            if restrict is not None and row not in restrict:
                continue
            if stage[row] == top:
                counts[row] = 1
                continue
            links = up[row]
            visited += len(links)
            total = 0
            for link in links:
                if (ignore_admin_state or enabled[link]) and link not in extra:
                    total += counts[upper[link]]
            counts[row] = total
        self.stats.links_visited += visited
        self.stats.full_recounts += 1
        return counts

    def _walk(
        self,
        seeds: Collection[int],
        sign: int,
        extra: Collection[int],
        kind: str,
    ) -> Dict[int, int]:
        """Dirty-region DP as count deltas pushed down from the link rows
        ``seeds``, each of which adds (``sign`` +1) or removes (-1) the
        live count of its upper endpoint at its lower endpoint.

        Returns switch row → new count for exactly the switches whose
        count differs from the live one with the ``extra`` link rows off.
        Switches are taken stage by stage, top down, so a switch's delta
        is complete when it is taken; a nonzero one goes on through every
        enabled downlink not in ``extra`` (an enabled ``extra`` link is a
        seed: its whole live contribution is gone already).
        """
        down, lower, upper = self._down, self._lower, self._upper
        enabled, counts, stage = self._enabled, self._counts, self._stage
        deltas: Dict[int, int] = {}
        # Pending switches by stage (a lower endpoint is never a spine).
        pending: List[List[int]] = [[] for _ in range(self._top)]
        for link in seeds:
            below = lower[link]
            if below in deltas:
                deltas[below] += sign * counts[upper[link]]
            else:
                deltas[below] = sign * counts[upper[link]]
                pending[stage[below]].append(below)
        overlay: Dict[int, int] = {}
        visited = len(seeds)
        for level in reversed(pending):
            for switch in level:
                delta = deltas[switch]
                if not delta:
                    continue
                overlay[switch] = counts[switch] + delta
                for link in down[switch]:
                    if enabled[link] and link not in extra:
                        visited += 1
                        below = lower[link]
                        if below in deltas:
                            deltas[below] += delta
                        else:
                            deltas[below] = delta
                            pending[stage[below]].append(below)
        self.stats.links_visited += visited
        if self.obs.enabled:
            self.obs.observe(
                "path_counter_dirty_region_links", visited, kind=kind
            )
        return overlay

    def _overlay_with_extra(self, extra: FrozenSet[int]) -> Dict[int, int]:
        """Counts that change under hypothetical ``extra`` disables."""
        self.stats.overlay_queries += 1
        if self.obs.enabled:
            self.obs.count("path_counter_overlay_queries_total")
        enabled = self._enabled
        seeds = [link for link in extra if enabled[link]]
        overlay = self._walk(seeds, -1, extra, "overlay")
        if len(extra) == 1 and seeds:
            (link,) = extra
            self._checked = (self._state_version, link, overlay)
        return overlay

    def _full_counts(self) -> List[int]:
        """Recount-per-query mode: full DP memoized per state version."""
        if self._full_cache is not None and (
            self._full_cache[0] == self._state_version
        ):
            return self._full_cache[1]
        counts = self._count()
        self._full_cache = (self._state_version, counts)
        return counts

    def _hypothetical(
        self, extra: FrozenSet[int], tors: Optional[Sequence[int]] = None
    ) -> Tuple[Dict[int, int], List[int]]:
        """``(overlay, counts)`` with the ``extra`` link rows also off:
        switch row ``r`` then counts ``overlay[r]`` if present, else
        ``counts[r]``.  Recount mode reruns the DP, pruned to the upstream
        closure of the ToR rows ``tors`` when given."""
        self._sync()
        if self._incremental:
            overlay = self._overlay_with_extra(extra) if extra else {}
            return overlay, self._counts
        if not extra:
            return {}, self._full_counts()
        restrict = None if tors is None else self._closure(tors)
        return {}, self._count(extra, restrict=restrict)

    def _link_rows(self, link_ids: Optional[Iterable[LinkId]]) -> FrozenSet[int]:
        if not link_ids:
            return _EMPTY
        return frozenset(map(self._topo.link_row.__getitem__, link_ids))

    # ------------------------------------------------------------------ #
    # Row API (fast checker, optimizer, repair scheduler)
    # ------------------------------------------------------------------ #

    def floors(self, constraint) -> List[float]:
        """``constraint``'s threshold column by switch row
        (:meth:`CapacityConstraint.floors`); the latest one is kept until
        the structure changes."""
        self._sync()
        if self._floors[0] is not constraint:
            floors = constraint.floors(self._names)
            self._floors = (constraint, floors, self._top_floor(floors))
        return self._floors[1]

    def _top_floor(self, floors: List[float]) -> float:
        return max((floors[tor] for tor in self._tor_rows), default=0.0)

    def fractions_at(
        self,
        tors: Optional[Sequence[int]] = None,
        extra: FrozenSet[int] = _EMPTY,
    ) -> List[float]:
        """Path fractions (current / design) of the ToR rows ``tors``, in
        order, with the ``extra`` link rows hypothetically off.  ``tors``
        defaults to every ToR, in ``topo.tors()`` order."""
        overlay, counts = self._hypothetical(extra, tors)
        baseline = self._baseline
        return [
            (overlay[tor] if tor in overlay else counts[tor]) / baseline[tor]
            if baseline[tor]
            else 0.0
            for tor in (self._tor_rows if tors is None else tors)
        ]

    def violations(
        self,
        floors: List[float],
        tors: Optional[Sequence[int]] = None,
        extra: FrozenSet[int] = _EMPTY,
    ) -> Dict[int, float]:
        """The ToR rows of :meth:`fractions_at` that fall below their
        floor, mapped to the fraction they would have: the fast checker's
        and optimizer's feasibility primitive.

        Over every ToR (``tors`` None), an incremental counter scans none:
        the answer is the overlay's ToRs below their floor plus the live
        ones already below theirs, read off the worst-fraction heap (and
        keyed in no particular order)."""
        if tors is not None or not self._incremental:
            fractions = self.fractions_at(tors, extra)
            return {
                tor: fraction
                for tor, fraction in zip(
                    self._tor_rows if tors is None else tors, fractions
                )
                if fraction < floors[tor]
            }
        overlay, _ = self._hypothetical(extra)
        self._settle()
        baseline, stage = self._baseline, self._stage
        found: Dict[int, float] = {}
        for row, count in overlay.items():
            if stage[row] == 0 and count / baseline[row] < floors[row]:
                found[row] = count / baseline[row]
        _, cached, top = self._floors
        if floors is not cached:
            top = self._top_floor(floors)
        # Every ToR's live fraction is in the heap, and no entry is below
        # its parent: only the entries under the highest floor are read.
        heap = self._min_heap
        stack = [0]
        while stack:
            index = stack.pop()
            if index >= len(heap) or heap[index][0] >= top:
                continue
            fraction, tor = heap[index]
            if (
                fraction < floors[tor]
                and tor not in overlay
                and fraction == self._frac(tor)
            ):
                found[tor] = fraction
            stack += (2 * index + 1, 2 * index + 2)
        return found

    def affected_rows(self, link: int) -> List[int]:
        """Rows of the ToRs whose path count could change if link row
        ``link`` were disabled, sorted by ToR name.

        These are exactly the ToRs downstream of the link's lower endpoint
        over currently enabled links (§5.1: "check the downstream of l").
        Memoized per administrative state; treat the result as read-only.
        """
        self._sync()
        cached = self._affected_cache.get(link)
        if cached is not None:
            return cached
        down, lower = self._down, self._lower
        enabled, stage = self._enabled, self._stage
        start = lower[link]
        seen = {start}
        frontier = [start]
        tors: List[int] = []
        while frontier:
            switch = frontier.pop()
            if stage[switch] == 0:
                tors.append(switch)
                continue
            for below in down[switch]:
                if enabled[below] and lower[below] not in seen:
                    seen.add(lower[below])
                    frontier.append(lower[below])
        tors.sort(key=self._rank.__getitem__)
        if len(self._affected_cache) >= _CACHE_LIMIT:
            self._affected_cache.clear()
        self._affected_cache[link] = tors
        return tors

    def fractions_without(self, link: int) -> Tuple[List[int], List[float]]:
        """:meth:`affected_rows` of link row ``link`` and their
        :meth:`fractions_at` with the link off, in one walk.

        With the link in service and live paths above it, the overlay walk
        pushes a negative delta to every switch below, so its ToRs are the
        affected ones; otherwise (or when recounting) this asks both."""
        self._sync()
        counts, upper = self._counts, self._upper
        if self._incremental and self._enabled[link] and counts[upper[link]]:
            overlay = self._overlay_with_extra(frozenset((link,)))
            stage, baseline = self._stage, self._baseline
            tors = [switch for switch in overlay if stage[switch] == 0]
            tors.sort(key=self._rank.__getitem__)
            return tors, [overlay[tor] / baseline[tor] for tor in tors]
        tors = self.affected_rows(link)
        if not tors:
            return tors, []
        return tors, self.fractions_at(tors, frozenset((link,)))

    def _closure(self, tors: Iterable[int]) -> Set[int]:
        """Upstream closure of the ToR rows ``tors``: every switch row on
        an up-path from them, themselves included.

        Memoized (the closure ignores administrative state, so entries
        stay valid until the structure changes).
        """
        self._sync()
        key = frozenset(tors)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        up, upper = self._up, self._upper
        seen: Set[int] = set(key)
        frontier = list(key)
        while frontier:
            for link in up[frontier.pop()]:
                above = upper[link]
                if above not in seen:
                    seen.add(above)
                    frontier.append(above)
        if len(self._closure_cache) >= _CACHE_LIMIT:
            self._closure_cache.clear()
        self._closure_cache[key] = seen
        return seen

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def tor_fractions(
        self,
        extra_disabled: Optional[Iterable[LinkId]] = None,
        tors: Optional[Iterable[str]] = None,
    ) -> Dict[str, float]:
        """Available path fraction for ToRs (current / design).

        Args:
            extra_disabled: Hypothetical additional disables.
            tors: Restrict to these ToRs (default: all).
        """
        rows = None
        if tors is not None:
            rows = list(map(self._topo.switch_row.__getitem__, tors))
        fractions = self.fractions_at(rows, self._link_rows(extra_disabled))
        names = self._names
        return {
            names[tor]: fraction
            for tor, fraction in zip(
                self._tor_rows if rows is None else rows, fractions
            )
        }

    def worst_tor_fraction(self) -> float:
        """Minimum ToR path fraction (the Figures 15–16 metric), O(log n).

        In incremental mode the value comes off a min-heap settled on read
        (:meth:`_settle`), so a simulation snapshot does not rescan every ToR.
        """
        self._sync()
        if not self._num_tors:
            return 1.0
        if not self._incremental:
            counts, baseline = self._full_counts(), self._baseline
            return min(
                counts[tor] / baseline[tor] if baseline[tor] else 0.0
                for tor in self._tor_rows
            )
        self._settle()
        heap = self._min_heap
        while heap:
            frac, tor = heap[0]
            if frac == self._frac(tor):
                return frac
            heapq.heappop(heap)
        # Every entry was stale (cannot normally happen): rebuild.
        self._min_heap = [(self._frac(t), t) for t in self._tor_rows]
        heapq.heapify(self._min_heap)
        return self._min_heap[0][0]

    def average_tor_fraction(self) -> float:
        """Mean ToR path fraction (§7.3 capacity-cost metric), O(1).

        ToRs sharing a design count share a denominator, so the mean is
        kept as one exact integer sum per distinct design count and only
        becomes rational here: bit-identical to summing every ToR's
        fraction exactly, incrementally or from scratch.
        """
        self._sync()
        if not self._num_tors:
            return 1.0
        if self._incremental:
            self._settle()
            sums = self._sums
        else:
            sums = self._tor_sums(self._full_counts())
        fracsum = Fraction(0)
        for base, total in sums.items():
            fracsum += Fraction(total, base)
        return float(fracsum / self._num_tors)

    # ------------------------------------------------------------------ #
    # Effective capacity (LinkGuardian-aware)
    # ------------------------------------------------------------------ #

    def _effective_counts(self) -> List[float]:
        """Float DP weighting each uplink by its effective capacity fraction.

        LinkGuardian-protected links stay ENABLED but deliver only
        ``lg_capacity_fraction`` of their bandwidth (retransmissions cost
        capacity), so penalty snapshots that account for LG need a
        fractional path count: ``eff[v] = Σ frac(l) · eff[upper(l)]`` over
        enabled uplinks, with ``eff[spine] = 1``.  With no protected links
        this reduces exactly to the integer DP and we reuse it.  Memoized
        against both the admin-state version and the topology's LG version.
        """
        key = (self._state_version, self._topo.lg_version)
        cached = self._effective_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        up, upper, stage, top = self._up, self._upper, self._stage, self._top
        topo = self._topo
        state, protected = topo.link_state, topo.lg_protected
        fraction, carrying = topo.lg_capacity_fraction, LinkState.ENABLED
        counts = [0.0] * len(stage)
        visited = 0
        for row in self._descending:
            if stage[row] == top:
                counts[row] = 1.0
                continue
            links = up[row]
            visited += len(links)
            total = 0.0
            for link in links:
                if state[link] is not carrying:
                    continue
                frac = fraction[link] if protected[link] else 1.0
                if frac:
                    total += frac * counts[upper[link]]
            counts[row] = total
        self.stats.links_visited += visited
        self._effective_cache = (key, counts)
        return counts

    def effective_tor_fractions(self) -> Dict[str, float]:
        """ToR capacity fractions with LG-protected links partially weighted.

        Identical to :meth:`tor_fractions` when no link is protected
        (the common case short-circuits to the exact integer counts).
        """
        if not self._topo.has_lg_protection():
            return self.tor_fractions()
        self._sync()
        counts = self._effective_counts()
        baseline, names = self._baseline, self._names
        return {
            names[tor]: counts[tor] / baseline[tor] if baseline[tor] else 0.0
            for tor in self._tor_rows
        }

    def effective_average_tor_fraction(self) -> float:
        """Mean effective ToR capacity fraction (LG-aware §7.3 metric)."""
        self._sync()
        if not self._num_tors:
            return 1.0
        if not self._topo.has_lg_protection():
            return self.average_tor_fraction()
        fractions = self.effective_tor_fractions()
        return ordered_sum(fractions.values()) / self._num_tors

    def affected_tors(self, link_id: LinkId) -> Set[str]:
        """ToRs whose path count could change if ``link_id`` were disabled
        (:meth:`affected_rows`, by name)."""
        rows = self.affected_rows(self._topo.link_row[link_id])
        names = self._names
        return {names[tor] for tor in rows}

"""Valley-free ToR-to-spine path counting.

This implements the O(|E|) dynamic program at the heart of CorrOpt's fast
checker (§5.1): "for each switch v2 in the second-highest stage, we count
the active (one-hop) paths p1(v2) to the spine ... this process is iterated
until the ToR-stage is reached."  Conceptually O(1) work per link.

The *capacity fraction* of a ToR is its current path count divided by its
design path count (all links enabled) — the metric of §5.1, illustrated by
Figure 10 where ToR ``T`` retains "9 out of 25 paths".

The counter is **incremental**: it subscribes to the topology's
administrative-change notifications and, when a link flips, recomputes only
the *dirty region* — the switches whose up-path counts flow through the
changed link — instead of rerunning the full-topology DP.  Hypothetical
queries (``extra_disabled``) are answered the same way, as an overlay delta
on the live counts.  Per-ToR fraction aggregates (worst / average) are
maintained alongside, so a simulation snapshot costs O(changed ToRs)
instead of O(|ToRs| · |E|).  Passing ``incremental=False`` restores the
original recount-per-query behaviour (used as the baseline in
``benchmarks/test_runtime_incremental_counter.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.topology.elements import LinkId
from repro.topology.graph import Topology

_EMPTY: FrozenSet[LinkId] = frozenset()

#: Bound on the memoization caches (entries), to keep long replays from
#: accumulating unbounded closure keys.
_CACHE_LIMIT = 4096


@dataclass
class PathCounterStats:
    """Work accounting for one counter (primarily for benchmarks).

    Attributes:
        links_visited: Uplinks examined across all DP work (the paper's
            O(|E|) unit of cost).
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
        * Code that flips ``Link.state`` directly must call
          :meth:`notify_link_change` afterwards.
        * Structural changes (``add_switch`` / ``add_link``) trigger a full
          rebuild, including the baseline.

    Example:
        >>> from repro.topology import build_clos
        >>> topo = build_clos(2, 2, 2, 4)
        >>> counter = PathCounter(topo)
        >>> counter.baseline()["pod0/tor0"]
        4
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

    @property
    def incremental(self) -> bool:
        return self._incremental

    def set_incremental(self, incremental: bool) -> None:
        """Switch between incremental and recount-per-query modes."""
        if incremental == self._incremental:
            return
        self._incremental = incremental
        if incremental:
            self._rebuild_live_state()

    def detach(self) -> None:
        """Unsubscribe from the topology (for explicit lifecycle control)."""
        self._topo.unsubscribe_admin_changes(self._on_admin_change)
        self._topo.unsubscribe_structure_changes(self._on_structure_change)

    def _rebuild_structure(self) -> None:
        topo = self._topo
        # Switches in stage-descending order (spine first) so a single pass
        # computes the DP.
        self._descending: List[str] = []
        for stage in range(topo.num_stages - 1, -1, -1):
            self._descending.extend(topo.stage(stage))
        self._stage_of: Dict[str, int] = {
            name: topo.switch(name).stage for name in self._descending
        }
        self._top = topo.num_stages - 1
        self._tor_list: List[str] = topo.tors()
        self._tor_set: Set[str] = set(self._tor_list)
        self._num_tors = len(self._tor_list)
        self._baseline = self._count(ignore_admin_state=True)
        self._closure_cache: Dict[FrozenSet[str], Set[str]] = {}
        self._affected_cache: Dict[LinkId, Set[str]] = {}
        self._state_version = 0
        self._full_cache: Optional[Tuple[int, Dict[str, int]]] = None
        self._effective_cache: Optional[
            Tuple[Tuple[int, int], Dict[str, float]]
        ] = None
        self._rebuild_live_state()

    def _rebuild_live_state(self) -> None:
        """(Re)compute the live counts and aggregates with one full DP."""
        self._counts: Dict[str, int] = self._count()
        # (state version, link, overlay) of the latest single-link overlay
        # query on an enabled link.  Every admin change bumps the version,
        # so a record only ever matches the change right after its query.
        self._checked: Tuple[int, Optional[LinkId], dict] = (-1, None, {})
        fracsum = Fraction(0)
        heap: List[Tuple[float, str]] = []
        for tor in self._tor_list:
            base = self._baseline[tor]
            if base:
                fracsum += Fraction(self._counts[tor], base)
                heap.append((self._counts[tor] / base, tor))
            else:
                heap.append((0.0, tor))
        heapq.heapify(heap)
        self._fracsum = fracsum
        self._min_heap = heap

    # ------------------------------------------------------------------ #
    # Change notifications
    # ------------------------------------------------------------------ #

    def notify_link_change(self, link_id: LinkId) -> None:
        """Tell the counter a link's effective state flipped.

        Only needed when ``Link.state`` was mutated directly; the topology's
        ``disable_link`` / ``enable_link`` / ``drain_link`` notify
        automatically.
        """
        self._on_admin_change(link_id)

    def _on_admin_change(self, link_id: LinkId) -> None:
        version, checked_link, overlay = self._checked
        just_checked = version == self._state_version
        self._state_version += 1
        # affected_tors depends on enabled downlinks; drop memoized entries.
        self._affected_cache.clear()
        if not self._incremental:
            return
        self.stats.incremental_updates += 1
        link = self._topo.link(link_id)
        if not just_checked or checked_link != link_id or link.enabled:
            self._propagate_from(link.lower)
            return
        # check_and_disable: the fast check walked this very disable on this
        # very state, so its overlay (in the walk's order) is the new state.
        counts = self._counts
        for name, new in overlay.items():
            old, counts[name] = counts[name], new
            if name in self._tor_set:
                self._record_tor_change(name, old, new)

    def _on_structure_change(self) -> None:
        self._rebuild_structure()

    def _frac(self, tor: str) -> float:
        base = self._baseline[tor]
        return self._counts[tor] / base if base else 0.0

    def _propagate_from(self, start: str) -> None:
        """Recompute the dirty region below ``start`` into the live state.

        Switches are visited in stage-descending order (a max-heap on
        stage), so each switch is finalized after every in-region switch
        above it; propagation stops along branches whose count did not
        change.
        """
        topo = self._topo
        counts = self._counts
        stage_of = self._stage_of
        heap: List[Tuple[int, str]] = [(-stage_of[start], start)]
        queued = {start}
        visited = 0
        while heap:
            _, name = heapq.heappop(heap)
            new = 0
            for lid in topo.uplinks(name):
                visited += 1
                link = topo.link(lid)
                if link.enabled:
                    new += counts[link.upper]
            if stage_of[name] == self._top:
                new = 1
            if new == counts[name]:
                continue
            old = counts[name]
            counts[name] = new
            if name in self._tor_set:
                self._record_tor_change(name, old, new)
                continue
            for lid in topo.downlinks(name):
                link = topo.link(lid)
                if not link.enabled:
                    continue
                below = link.lower
                if below not in queued:
                    queued.add(below)
                    heapq.heappush(heap, (-stage_of[below], below))
        self.stats.links_visited += visited
        if self.obs.enabled:
            self.obs.observe(
                "path_counter_dirty_region_links", visited, kind="incremental"
            )

    def _record_tor_change(self, tor: str, old: int, new: int) -> None:
        base = self._baseline[tor]
        if not base:
            return
        self._fracsum += Fraction(new - old, base)
        heapq.heappush(self._min_heap, (new / base, tor))
        if len(self._min_heap) > 4 * self._num_tors + 64:
            self._min_heap = [(self._frac(t), t) for t in self._tor_list]
            heapq.heapify(self._min_heap)

    # ------------------------------------------------------------------ #
    # DP kernels
    # ------------------------------------------------------------------ #

    def _count(
        self,
        extra_disabled: FrozenSet[LinkId] = _EMPTY,
        ignore_admin_state: bool = False,
        restrict: Optional[Set[str]] = None,
    ) -> Dict[str, int]:
        """Run the full DP; returns path counts for every (restricted) switch.

        Args:
            extra_disabled: Links treated as disabled on top of the
                topology's administrative state.
            ignore_admin_state: Count over the pristine design topology
                (used for the baseline denominator).
            restrict: If given, an *upstream-closed* set of switch names;
                the DP only visits these.  Used by the recount-per-query
                mode to evaluate candidate subsets on a pruned region.
        """
        topo = self._topo
        top = self._top
        counts: Dict[str, int] = {}
        visited = 0
        for name in self._descending:
            if restrict is not None and name not in restrict:
                continue
            if self._stage_of[name] == top:
                counts[name] = 1
                continue
            total = 0
            for lid in topo.uplinks(name):
                visited += 1
                if lid in extra_disabled:
                    continue
                if not ignore_admin_state and not topo.link(lid).enabled:
                    continue
                upper = topo.link(lid).upper
                # With a correct upstream-closed restriction the upper
                # endpoint is always present.
                total += counts[upper]
            counts[name] = total
        self.stats.links_visited += visited
        self.stats.full_recounts += 1
        return counts

    def _overlay_with_extra(
        self, extra: FrozenSet[LinkId]
    ) -> Dict[str, int]:
        """Counts that change under hypothetical ``extra`` disables.

        Returns only the *changed* switches; everything else keeps its live
        count.  Same dirty-region walk as :meth:`_propagate_from`, but into
        an overlay dict instead of the live state.
        """
        self.stats.overlay_queries += 1
        topo = self._topo
        counts = self._counts
        stage_of = self._stage_of
        overlay: Dict[str, int] = {}
        heap: List[Tuple[int, str]] = []
        queued: Set[str] = set()
        for lid in extra:
            link = topo.link(lid)
            if link.enabled and link.lower not in queued:
                queued.add(link.lower)
                heap.append((-stage_of[link.lower], link.lower))
        heapq.heapify(heap)
        if len(extra) == 1 and heap:
            self._checked = (self._state_version, lid, overlay)
        visited = 0
        while heap:
            _, name = heapq.heappop(heap)
            new = 0
            for lid in topo.uplinks(name):
                visited += 1
                if lid in extra:
                    continue
                link = topo.link(lid)
                if not link.enabled:
                    continue
                upper = link.upper
                new += overlay[upper] if upper in overlay else counts[upper]
            if new == counts[name]:
                continue
            overlay[name] = new
            for lid in topo.downlinks(name):
                if lid in extra:
                    continue
                link = topo.link(lid)
                if not link.enabled:
                    continue
                below = link.lower
                if below not in queued:
                    queued.add(below)
                    heapq.heappush(heap, (-stage_of[below], below))
        self.stats.links_visited += visited
        if self.obs.enabled:
            self.obs.count("path_counter_overlay_queries_total")
            self.obs.observe(
                "path_counter_dirty_region_links", visited, kind="overlay"
            )
        return overlay

    def _full_counts(self) -> Dict[str, int]:
        """Recount-per-query mode: full DP memoized per state version."""
        if self._full_cache is not None and (
            self._full_cache[0] == self._state_version
        ):
            return self._full_cache[1]
        counts = self._count()
        self._full_cache = (self._state_version, counts)
        return counts

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def baseline(self) -> Dict[str, int]:
        """Design path counts (all links enabled) for every switch."""
        return dict(self._baseline)

    def baseline_for(self, switch: str) -> int:
        return self._baseline[switch]

    def counts(
        self, extra_disabled: Optional[Iterable[LinkId]] = None
    ) -> Dict[str, int]:
        """Current path counts, optionally with extra hypothetical disables."""
        extra = frozenset(extra_disabled) if extra_disabled else _EMPTY
        if not self._incremental:
            if not extra:
                return dict(self._full_counts())
            return self._count(extra)
        if not extra:
            return dict(self._counts)
        result = dict(self._counts)
        result.update(self._overlay_with_extra(extra))
        return result

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
        extra = frozenset(extra_disabled) if extra_disabled else _EMPTY
        targets = list(tors) if tors is not None else self._tor_list
        if not self._incremental:
            counts = self._full_counts() if not extra else self._count(extra)
            return {
                tor: counts[tor] / self._baseline[tor]
                if self._baseline[tor]
                else 0.0
                for tor in targets
            }
        overlay = self._overlay_with_extra(extra) if extra else {}
        counts = self._counts
        baseline = self._baseline
        return {
            tor: (overlay[tor] if tor in overlay else counts[tor])
            / baseline[tor]
            if baseline[tor]
            else 0.0
            for tor in targets
        }

    def worst_tor_fraction(self) -> float:
        """Minimum ToR path fraction (the Figures 15–16 metric), O(log n).

        In incremental mode the value comes from a lazily-cleaned min-heap,
        so a simulation snapshot does not rescan every ToR.
        """
        if not self._num_tors:
            return 1.0
        if not self._incremental:
            counts = self._full_counts()
            return min(
                counts[tor] / self._baseline[tor] if self._baseline[tor] else 0.0
                for tor in self._tor_list
            )
        heap = self._min_heap
        while heap:
            frac, tor = heap[0]
            if frac == self._frac(tor):
                return frac
            heapq.heappop(heap)
        # Every entry was stale (cannot normally happen): rebuild.
        self._min_heap = [(self._frac(t), t) for t in self._tor_list]
        heapq.heapify(self._min_heap)
        return self._min_heap[0][0]

    def average_tor_fraction(self) -> float:
        """Mean ToR path fraction (§7.3 capacity-cost metric), O(1).

        The running sum is kept in exact rational arithmetic so the
        incremental value is bit-identical to a from-scratch recount.
        """
        if not self._num_tors:
            return 1.0
        if not self._incremental:
            counts = self._full_counts()
            fracsum = Fraction(0)
            for tor in self._tor_list:
                base = self._baseline[tor]
                if base:
                    fracsum += Fraction(counts[tor], base)
            return float(fracsum / self._num_tors)
        return float(self._fracsum / self._num_tors)

    def upstream_closure(self, tors: Iterable[str]) -> Set[str]:
        """All switches on any up-path from the given ToRs (inclusive).

        The returned set is upstream-closed and therefore a valid
        ``restrict`` argument for :meth:`restricted_fractions`.  Results are
        memoized (the closure ignores administrative state, so entries stay
        valid until the structure changes); treat the returned set as
        read-only.
        """
        key = frozenset(tors)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        topo = self._topo
        seen: Set[str] = set(key)
        frontier = list(key)
        while frontier:
            current = frontier.pop()
            for lid in topo.uplinks(current):
                upper = topo.link(lid).upper
                if upper not in seen:
                    seen.add(upper)
                    frontier.append(upper)
        if len(self._closure_cache) >= _CACHE_LIMIT:
            self._closure_cache.clear()
        self._closure_cache[key] = seen
        return seen

    def restricted_fractions(
        self,
        tors: List[str],
        closure: Set[str],
        extra_disabled: FrozenSet[LinkId] = _EMPTY,
    ) -> Dict[str, float]:
        """Path fractions for ``tors`` under hypothetical disables.

        ``closure`` must be (a superset of) ``upstream_closure(tors)``.  In
        incremental mode the query is answered from the live counts plus a
        dirty-region overlay (the closure argument is then unused); in
        recount mode the DP runs restricted to ``closure``.  This is the
        fast checker's and optimizer's feasibility primitive.
        """
        if self._incremental:
            overlay = (
                self._overlay_with_extra(frozenset(extra_disabled))
                if extra_disabled
                else {}
            )
            counts = self._counts
            return {
                tor: (overlay[tor] if tor in overlay else counts[tor])
                / self._baseline[tor]
                if self._baseline[tor]
                else 0.0
                for tor in tors
            }
        counts = self._count(extra_disabled, restrict=closure)
        return {
            tor: counts[tor] / self._baseline[tor]
            if self._baseline[tor]
            else 0.0
            for tor in tors
        }

    # ------------------------------------------------------------------ #
    # Effective capacity (LinkGuardian-aware)
    # ------------------------------------------------------------------ #

    def _effective_counts(self) -> Dict[str, float]:
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
        topo = self._topo
        top = self._top
        counts: Dict[str, float] = {}
        visited = 0
        for name in self._descending:
            if self._stage_of[name] == top:
                counts[name] = 1.0
                continue
            total = 0.0
            for lid in topo.uplinks(name):
                visited += 1
                link = topo.link(lid)
                frac = link.effective_capacity_fraction()
                if frac:
                    total += frac * counts[link.upper]
            counts[name] = total
        self.stats.links_visited += visited
        self._effective_cache = (key, counts)
        return counts

    def effective_tor_fractions(self) -> Dict[str, float]:
        """ToR capacity fractions with LG-protected links partially weighted.

        Identical to :meth:`tor_fractions` when no link is protected
        (the common case short-circuits to the exact integer counts).
        """
        if not self._topo.lg_protected_links():
            return self.tor_fractions()
        counts = self._effective_counts()
        baseline = self._baseline
        return {
            tor: counts[tor] / baseline[tor] if baseline[tor] else 0.0
            for tor in self._tor_list
        }

    def effective_average_tor_fraction(self) -> float:
        """Mean effective ToR capacity fraction (LG-aware §7.3 metric)."""
        if not self._num_tors:
            return 1.0
        if not self._topo.lg_protected_links():
            return self.average_tor_fraction()
        fractions = self.effective_tor_fractions()
        return sum(fractions.values()) / self._num_tors

    def effective_worst_tor_fraction(self) -> float:
        """Minimum effective ToR capacity fraction (LG-aware)."""
        if not self._num_tors:
            return 1.0
        if not self._topo.lg_protected_links():
            return self.worst_tor_fraction()
        return min(self.effective_tor_fractions().values())

    def affected_tors(self, link_id: LinkId) -> Set[str]:
        """ToRs whose path count could change if ``link_id`` were disabled.

        These are exactly the ToRs downstream of the link's lower endpoint
        over currently enabled links (§5.1: "check the downstream of l").
        Memoized per administrative state; treat the result as read-only.
        """
        cached = self._affected_cache.get(link_id)
        if cached is not None:
            return cached
        lower = self._topo.link(link_id).lower
        if self._stage_of[lower] == 0:
            affected: Set[str] = {lower}
        else:
            affected = self._topo.downstream_tors(lower)
        if len(self._affected_cache) >= _CACHE_LIMIT:
            self._affected_cache.clear()
        self._affected_cache[link_id] = affected
        return affected

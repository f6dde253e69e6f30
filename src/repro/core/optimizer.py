"""CorrOpt's global optimizer (§5.1).

When links are (re-)activated, CorrOpt solves the full problem: choose the
subset of active corrupting links to disable that minimizes total penalty
``sum_l (1 - d_l) * I(f_l)`` subject to every ToR keeping its required
fraction of valley-free spine paths.  Theorem 5.1 shows the decision version
is NP-complete, but two structural facts make production instances easy:

1. **Pruning** (Figure 11): under realistic constraints ~99% of ToRs cannot
   be violated even if *every* corrupting link is disabled.  Only links
   upstream of potentially-violated ToRs are "contested"; all other
   corrupting links are disabled outright.
2. **Reject cache**: feasibility is monotone — any superset of an
   infeasible disable-set is infeasible — so failed subsets prune the
   enumeration.

We implement the paper's exhaustive subset iteration with the reject cache,
plus two extensions: branch-and-bound search (same exact answer, usually far
fewer feasibility checks) and §8 topology segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import CapacityConstraint
from repro.core.path_counting import PathCounter
from repro.core.penalty import PenaltyFn, linear_penalty, ordered_sum
from repro.core.segmentation import Segment, segment_links
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.topology.elements import LinkId, LinkState
from repro.topology.graph import Topology

#: A plan's history: (floors column, kept links with a positive penalty,
#: chosen links).
_History = Tuple[List[float], FrozenSet[LinkId], Set[LinkId]]


@dataclass
class OptimizerStats:
    """Search-effort accounting for one optimizer run.

    Also used as an *aggregate* across runs (see :meth:`merge`): the
    controller, the strategies, and sweep aggregation accumulate every
    run's stats so search effort is visible end-to-end instead of being
    computed and dropped.
    """

    num_candidates: int = 0
    num_safe: int = 0
    num_contested: int = 0
    num_segments: int = 0
    subsets_evaluated: int = 0
    reject_cache_hits: int = 0
    feasibility_checks: int = 0
    runs: int = 0

    def merge(self, other: "OptimizerStats") -> "OptimizerStats":
        """Accumulate another run's stats into this aggregate."""
        self.num_candidates += other.num_candidates
        self.num_safe += other.num_safe
        self.num_contested += other.num_contested
        self.num_segments += other.num_segments
        self.subsets_evaluated += other.subsets_evaluated
        self.reject_cache_hits += other.reject_cache_hits
        self.feasibility_checks += other.feasibility_checks
        self.runs += other.runs
        return self

    def reject_cache_hit_rate(self) -> float:
        """Fraction of considered subsets skipped by the reject cache."""
        considered = self.reject_cache_hits + self.subsets_evaluated
        if considered == 0:
            return 0.0
        return self.reject_cache_hits / considered

    def as_dict(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "num_candidates": self.num_candidates,
            "num_safe": self.num_safe,
            "num_contested": self.num_contested,
            "num_segments": self.num_segments,
            "subsets_evaluated": self.subsets_evaluated,
            "reject_cache_hits": self.reject_cache_hits,
            "feasibility_checks": self.feasibility_checks,
        }

    def summary(self) -> str:
        """One-line human form for audit entries and CLI output."""
        return (
            f"{self.runs} runs, {self.num_candidates} candidates "
            f"({self.num_contested} contested, {self.num_segments} segments), "
            f"{self.subsets_evaluated} subsets, "
            f"{self.feasibility_checks} feasibility checks, "
            f"reject-cache hit rate {self.reject_cache_hit_rate():.1%}"
        )


@dataclass
class OptimizerResult:
    """Outcome of a global optimization run.

    Attributes:
        to_disable: Links the optimizer chose to disable.
        kept_active: Corrupting links that must stay up for capacity.
        residual_penalty: Total penalty per second of ``kept_active``.
        disabled_penalty: Penalty removed by disabling ``to_disable``.
        stats: Search statistics.
    """

    to_disable: Set[LinkId] = field(default_factory=set)
    kept_active: Set[LinkId] = field(default_factory=set)
    residual_penalty: float = 0.0
    disabled_penalty: float = 0.0
    stats: OptimizerStats = field(default_factory=OptimizerStats)


class GlobalOptimizer:
    """Exact optimizer over the set of active corrupting links.

    Args:
        topo: Live topology (administrative state is read at call time).
        constraint: Per-ToR capacity constraints.
        penalty_fn: Penalty function ``I(f)``; the paper uses the identity.
        counter: Optional shared :class:`PathCounter`.
        use_pruning: Apply the Figure-11 pruning step.
        use_reject_cache: Memoize infeasible subsets during search.
        use_segmentation: Split contested links into independent segments
            (§8 extension).
        method: ``"exhaustive"`` (paper), ``"branch_and_bound"``, or
            ``"auto"`` (exhaustive for small segments, B&B otherwise).
        exhaustive_limit: Segment size above which ``"auto"`` switches to
            branch-and-bound.
        obs: Observability recorder; each run emits an ``optimizer.plan``
            span and search-effort counters (no-op by default).

    A plan remembers what it kept and chose, and the next one searches
    only the candidates an activation since can have freed
    (:meth:`_searched`); the counter's ``risen`` and ``fallen`` sets say
    which ToRs gained or lost paths.  A counter serves one such optimizer.
    The history is not pickled: a restored optimizer searches everything
    once.
    """

    #: The last plan the next one may trust; None searches everything.
    _history: Optional[_History] = None

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        penalty_fn: PenaltyFn = linear_penalty,
        counter: Optional[PathCounter] = None,
        use_pruning: bool = True,
        use_reject_cache: bool = True,
        use_segmentation: bool = True,
        method: str = "auto",
        exhaustive_limit: int = 16,
        obs: Recorder = NULL_RECORDER,
    ):
        if method not in ("auto", "exhaustive", "branch_and_bound"):
            raise ValueError(f"unknown optimizer method {method!r}")
        self._topo = topo
        self.constraint = constraint
        self.penalty_fn = penalty_fn
        self.counter = counter or PathCounter(topo)
        self.use_pruning = use_pruning
        self.use_reject_cache = use_reject_cache
        self.use_segmentation = use_segmentation
        self.method = method
        self.exhaustive_limit = exhaustive_limit
        self.obs = obs

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_history", None)
        return state

    # ------------------------------------------------------------------ #

    def plan(
        self, candidates: Optional[Sequence[LinkId]] = None
    ) -> OptimizerResult:
        """Compute the optimal disable-set without mutating the topology.

        Args:
            candidates: Links to consider; defaults to all enabled
                corrupting links.

        Returns:
            The optimal plan.  Links already disabled are ignored.
        """
        with self.obs.span("optimizer.plan", cat="optimizer") as span:
            result = self._plan(candidates)
            if self.obs.enabled:
                stats = result.stats
                span.set(
                    candidates=stats.num_candidates,
                    contested=stats.num_contested,
                    segments=stats.num_segments,
                    disabled=len(result.to_disable),
                )
                self.obs.count("optimizer_runs_total")
                self.obs.count(
                    "optimizer_subsets_evaluated_total",
                    stats.subsets_evaluated,
                )
                self.obs.count(
                    "optimizer_reject_cache_hits_total",
                    stats.reject_cache_hits,
                )
                self.obs.count(
                    "optimizer_feasibility_checks_total",
                    stats.feasibility_checks,
                )
                self.obs.count(
                    "optimizer_segments_total", stats.num_segments
                )
                self.obs.observe(
                    "optimizer_contested_links", stats.num_contested
                )
        return result

    def _plan(
        self, candidates: Optional[Sequence[LinkId]] = None
    ) -> OptimizerResult:
        topo, counter = self._topo, self.counter
        if candidates is None:
            candidates = topo.corrupting_links()
        link_row, state = topo.link_row, topo.link_state
        enabled = LinkState.ENABLED
        candidates = [lid for lid in candidates if state[link_row[lid]] is enabled]
        stats = OptimizerStats(num_candidates=len(candidates), runs=1)
        if not candidates:
            return OptimizerResult(stats=stats)

        all_candidates = frozenset(candidates)
        penalty = {
            lid: self.penalty_fn(topo.max_rate(link_row[lid]))
            for lid in all_candidates
        }
        floors = counter.floors(self.constraint)
        # A ToR already below its floor blocks its whole segment, links
        # that cannot reach it included: while one exists, plans search
        # everything and leave no history.
        history, self._history = self._history, None
        searched = candidates
        if history is not None and history[0] is floors:
            # The last plan left no ToR below its floor, so only one that
            # lost paths since can be below it now.
            risen, counter.risen = counter.risen, set()
            fallen, counter.fallen = counter.fallen, set()
            calm = not counter.violations(floors, list(fallen))
            if calm:
                searched = self._searched(candidates, history, penalty, risen)
        else:
            calm = not counter.violations(floors)

        # ---- Pruning step (Figure 11) --------------------------------- #
        # Disable everything searched hypothetically; ToRs below it that
        # survive can never be violated by any subset (path counts are
        # monotone in the set of enabled links).
        below, lower = topo.tor_rows_below, topo.lower_row
        cones = {lid: below(lower[link_row[lid]]) for lid in searched}
        violated = counter.violations(
            floors,
            list(set().union(*cones.values())),
            frozenset(map(link_row.__getitem__, searched)),
        )

        if self.use_pruning or not violated:
            # A candidate is upstream of an at-risk ToR exactly when that
            # ToR sits (structurally) below the candidate's lower endpoint.
            contested = sorted(
                lid
                for lid in searched
                if not violated.keys().isdisjoint(cones[lid])
            )
            safe = frozenset(searched).difference(contested)
            at_risk = {topo.switch_names[tor] for tor in violated}
        else:
            contested = sorted(searched)
            safe = frozenset()
            # Without pruning, every ToR is treated as at risk.
            at_risk = set(topo.tors())

        stats.num_safe = len(safe)
        stats.num_contested = len(contested)

        # ---- Segment and search --------------------------------------- #
        if not violated:
            segments = []
        elif self.use_segmentation:
            segments = segment_links(topo, contested, at_risk)
        else:
            reachable = set().union(*map(counter.affected_tors, contested))
            segments = [
                Segment(frozenset(contested), frozenset(at_risk & reachable))
            ]
        stats.num_segments = len(segments)

        chosen: Set[LinkId] = set(safe)
        base_disabled = frozenset(map(link_row.__getitem__, safe))
        for segment in segments:
            chosen.update(
                self._search_segment(
                    segment, base_disabled, floors, penalty, stats
                )
            )

        kept = set(all_candidates) - chosen
        if calm:
            held = frozenset(lid for lid in kept if penalty[lid] > 0)
            self._history = (floors, held, chosen)
        return OptimizerResult(
            to_disable=chosen,
            kept_active=kept,
            residual_penalty=ordered_sum((penalty[lid] for lid in kept), 0.0),
            disabled_penalty=ordered_sum(penalty[lid] for lid in chosen),
            stats=stats,
        )

    def _searched(
        self,
        candidates: List[LinkId],
        history: _History,
        penalty: Dict[LinkId, float],
        risen: Set[int],
    ) -> List[LinkId]:
        """The candidates this plan searches; every other one stays up.

        The last plan kept each link of ``held`` because disabling it with
        that plan's choice left some ToR below it under its floor (its
        penalty is positive, so the search would have taken it otherwise).
        Disabling more links never raises a count, so while no ToR below
        the link has gained paths since (and every link chosen then is
        still off, or its ToRs count as having gained), the link cannot
        join any feasible set now.  Equal or zero penalties among the
        searched links could break a tie otherwise than the full search
        does: then everything is searched.  ``risen`` holds the ToR rows
        whose count rose since the last plan.
        """
        _, held, chosen = history
        topo = self._topo
        below, lower = topo.tor_rows_below, topo.lower_row
        link_row, state = topo.link_row, topo.link_state
        for lid in chosen:
            row = link_row[lid]
            if state[row] is LinkState.ENABLED:
                risen |= below(lower[row])
        searched = [
            lid
            for lid in candidates
            if lid not in held
            or not risen.isdisjoint(below(lower[link_row[lid]]))
        ]
        values = {penalty[lid] for lid in searched}
        if len(values) < len(searched) or min(values, default=1.0) <= 0:
            return candidates
        return searched

    def optimize(
        self, candidates: Optional[Sequence[LinkId]] = None
    ) -> OptimizerResult:
        """Run :meth:`plan` and apply it (disable the chosen links)."""
        result = self.plan(candidates)
        for lid in result.to_disable:
            self._topo.disable_link(lid)
        return result

    # ------------------------------------------------------------------ #
    # Subset search
    # ------------------------------------------------------------------ #

    def _search_segment(
        self,
        segment: Segment,
        base_disabled: FrozenSet[int],
        floors: List[float],
        penalty: Dict[LinkId, float],
        stats: OptimizerStats,
    ) -> Set[LinkId]:
        """Find the optimal subset of one segment's links to disable.

        The search itself runs on link rows (``base_disabled`` included);
        ids come back out.
        """
        # Tie-break equal penalties by link id: a stable sort over frozenset
        # iteration order would leak hash randomisation into which optimal
        # subset wins (visible with step penalties, where everything ties).
        links = sorted(segment.links, key=lambda lid: (-penalty[lid], lid))
        if not links:
            return set()
        if not segment.tors:
            # No at-risk ToR depends on these links: all can go.
            return set(links)
        topo, violations = self._topo, self.counter.violations
        tors = [topo.switch_row[tor] for tor in sorted(segment.tors)]
        rows = [topo.link_row[lid] for lid in links]

        def feasible(subset: FrozenSet[int]) -> bool:
            stats.feasibility_checks += 1
            return not violations(floors, tors, base_disabled | subset)

        method = self.method
        if method == "auto":
            method = (
                "exhaustive"
                if len(links) <= self.exhaustive_limit
                else "branch_and_bound"
            )
        search = (
            self._exhaustive
            if method == "exhaustive"
            else self._branch_and_bound
        )
        best = search(rows, [penalty[lid] for lid in links], feasible, stats)
        return {lid for lid, row in zip(links, rows) if row in best}

    def _exhaustive(
        self,
        links: List[int],
        penalties: List[float],
        feasible,
        stats: OptimizerStats,
    ) -> Set[int]:
        """The paper's search: iterate subsets, skip supersets of failures.

        Masks 1 … 2ⁿ−1 are visited in numeric order, bit ``i`` standing
        for ``links[i]`` (largest penalty first).  Only a strictly larger
        value replaces the best, so of the feasible subsets with the top
        value the smallest mask wins.  Exactness comes from full
        enumeration; the reject cache only skips provably infeasible sets.
        """
        n = len(links)
        rejected: List[int] = []
        best_mask = 0
        best_value = -1.0

        for mask in range(1, 1 << n):
            value = ordered_sum(
                penalties[i] for i in range(n) if mask >> i & 1
            )
            if value <= best_value:
                continue
            if self.use_reject_cache and any(
                mask & rej == rej for rej in rejected
            ):
                stats.reject_cache_hits += 1
                continue
            stats.subsets_evaluated += 1
            subset = frozenset(links[i] for i in range(n) if mask >> i & 1)
            if feasible(subset):
                best_mask, best_value = mask, value
            elif self.use_reject_cache:
                rejected.append(mask)

        return {links[i] for i in range(n) if best_mask >> i & 1}

    def _branch_and_bound(
        self,
        links: List[int],
        penalties: List[float],
        feasible,
        stats: OptimizerStats,
    ) -> Set[int]:
        """Exact DFS: include/exclude each link, bounding by suffix sums.

        Feasibility is monotone (supersets of infeasible sets are
        infeasible), so a branch dies as soon as its current set fails.
        """
        n = len(links)
        suffix = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + penalties[i]

        best_set: Set[int] = set()
        best_value = 0.0

        def dfs(index: int, current: FrozenSet[int], value: float) -> None:
            nonlocal best_set, best_value
            if value > best_value:
                best_value, best_set = value, set(current)
            if index >= n or value + suffix[index] <= best_value:
                return
            # Include links[index] when feasible.
            with_link = current | {links[index]}
            stats.subsets_evaluated += 1
            if feasible(with_link):
                dfs(index + 1, with_link, value + penalties[index])
            dfs(index + 1, current, value)

        dfs(0, frozenset(), 0.0)
        return best_set


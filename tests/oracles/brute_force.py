"""The optimizer's exhaustive reference: every subset, no pruning, no cache.

Exponential, so tests run it on instances with a handful of candidates to
check that :class:`~repro.core.GlobalOptimizer` is exact.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Set, Tuple

from repro.core import CapacityConstraint, PathCounter
from repro.core.penalty import PenaltyFn, linear_penalty, ordered_sum
from repro.topology.elements import LinkId, LinkState
from repro.topology.graph import Topology


def brute_force_optimal(
    topo: Topology,
    constraint: CapacityConstraint,
    candidates: Optional[Sequence[LinkId]] = None,
    penalty_fn: PenaltyFn = linear_penalty,
) -> Tuple[Set[LinkId], float]:
    """The feasible subset of the enabled ``candidates`` (default: every
    corrupting link) with the largest penalty, by full enumeration.

    Returns:
        ``(best_disable_set, residual_penalty)``.
    """
    if candidates is None:
        candidates = topo.corrupting_links()
    link_row, state, enabled = topo.link_row, topo.link_state, LinkState.ENABLED
    candidates = [lid for lid in candidates if state[link_row[lid]] is enabled]
    counter = PathCounter(topo)
    penalty = {
        lid: penalty_fn(topo.max_rate(link_row[lid])) for lid in candidates
    }
    total = ordered_sum(penalty[lid] for lid in candidates)
    best: Set[LinkId] = set()
    best_value = -1.0
    for size in range(len(candidates), -1, -1):
        for combo in itertools.combinations(candidates, size):
            fractions = counter.tor_fractions(frozenset(combo))
            if constraint.violations(fractions):
                continue
            value = ordered_sum(penalty[lid] for lid in combo)
            if value > best_value:
                best_value = value
                best = set(combo)
    counter.detach()
    return best, total - max(best_value, 0.0)

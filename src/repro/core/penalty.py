"""Penalty functions ``I(f)`` for corruption loss rates.

§5.1: each enabled link ``l`` with corruption rate ``f_l`` incurs a penalty
``I(f_l)`` per second, where ``I`` is a monotonically increasing function
reflecting how loss rate degrades application performance.  The paper's
evaluation uses the identity ``I(f) = f`` ("results in this paper use
I(f_l) = f_l"), making total penalty proportional to corruption losses under
equal utilization.

We also provide two alternatives called out by the paper's citations:

- a TCP-throughput penalty derived from the Padhye et al. model
  (throughput ∝ 1/sqrt(p), so the *damage* grows like sqrt(p));
- a step penalty capturing SLO-style thresholds (e.g. RDMA loses 25%
  throughput above 0.1% loss; §1).
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Callable, Iterable

from repro.topology.graph import Topology

#: A penalty function maps a corruption loss rate in [0, 1] to a
#: non-negative penalty per second.
PenaltyFn = Callable[[float], float]


def linear_penalty(rate: float) -> float:
    """The paper's evaluation penalty: ``I(f) = f``."""
    return rate


def tcp_throughput_penalty(rate: float, rtt_s: float = 0.001) -> float:
    """Penalty as fractional TCP throughput loss (Padhye et al. model).

    The steady-state TCP throughput is approximately
    ``MSS / (RTT * sqrt(2p/3))``; we normalize against a reference loss rate
    of 1e-8 (the IEEE 802.3 floor) and return ``1 - T(p)/T(p0)``, clamped to
    [0, 1].  The ``rtt_s`` parameter cancels in the ratio but is kept for
    interface parity with extended variants.
    """
    del rtt_s
    floor = 1e-8
    if rate <= floor:
        return 0.0
    return min(1.0, 1.0 - math.sqrt(floor / rate))

def step_penalty(rate: float, threshold: float = 1e-3, weight: float = 1.0) -> float:
    """SLO-style step penalty: ``weight`` once loss exceeds ``threshold``."""
    return weight if rate >= threshold else 0.0


#: Canonical name → penalty-function registry.  The single lookup shared
#: by the parallel worker, scenarios and the CLI, so penalty names mean
#: the same thing everywhere (mirrors ``STRATEGY_NAMES`` for strategies).
PENALTY_BY_NAME = {
    "linear": linear_penalty,
    "tcp-throughput": tcp_throughput_penalty,
    "step": step_penalty,
}

#: Recognized penalty names, in presentation order.
PENALTY_NAMES = tuple(PENALTY_BY_NAME)


def penalty_by_name(name: str) -> PenaltyFn:
    """Look up a penalty function by canonical name; loud on unknowns."""
    try:
        return PENALTY_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown penalty {name!r}; choose from {list(PENALTY_BY_NAME)}"
        ) from None


def ordered_sum(values: Iterable[float], start: float = 0) -> float:
    """``sum(values, start)`` added strictly left to right.

    From Python 3.12 the builtin ``sum`` of floats compensates rounding
    (``sum([1.0, 1e-16, 1e-16])`` is ``1.0000000000000002`` there, ``1.0``
    before), so every float sum that a golden pins goes through here.
    """
    return reduce(add, values, start)


def total_penalty(
    topo: Topology,
    penalty_fn: PenaltyFn = linear_penalty,
    threshold: float = 1e-8,
) -> float:
    """Total penalty per second over *enabled* corrupting links.

    §5.1: ``sum_l (1 - d_l) * I(f_l)`` where ``d_l = 1`` for disabled links.
    Summed over the topology's live corrupting index, which lists the same
    links in the same order a walk over every link would.
    """
    return ordered_sum(
        penalty_fn(topo.link(lid).max_corruption_rate())
        for lid in topo.corrupting_links(threshold)
    )

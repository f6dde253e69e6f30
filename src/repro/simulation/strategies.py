"""Mitigation strategies: the policies §7.1 compares.

A strategy answers two questions against a live topology:

- ``on_onset(link_id)`` — a link just started corrupting; disable it?
- ``on_activation()`` — a link just came back; which previously
  kept-active corrupting links can be disabled now?

Implementations (the interface and the first two live in
:mod:`repro.core.controller`, CorrOpt's one decision core):

- :class:`CorrOptStrategy` — fast checker on onset, global optimizer on
  activation (the paper's system);
- :class:`FastCheckerOnlyStrategy` — fast checker for both (the Figure-18
  ablation);
- :class:`SwitchLocalStrategy` — the production baseline;
- :class:`NoMitigationStrategy` — never disables (scale reference);
- :class:`DrainStrategy` — §8 extension: drains traffic instead of hard
  disable (same decisions as CorrOpt; drained links keep monitoring alive);
- :class:`LinkGuardianStrategy` — rival from SIGCOMM'23 "LinkGuardian:
  Mitigating the impact of packet corruption loss": link-local
  retransmission keeps a corrupting link *up* at a tiny residual loss rate
  and slightly reduced capacity, instead of disabling it;
- :class:`LinkGuardianCorrOptStrategy` — the combined policy: LG where the
  port hardware supports it, CorrOpt's fast check / optimizer elsewhere.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.constraints import CapacityConstraint
from repro.core.controller import (
    CorrOptStrategy, FastCheckerOnlyStrategy, MitigationStrategy,
)
from repro.core.path_counting import PathCounter
from repro.core.penalty import PenaltyFn, linear_penalty
from repro.core.switch_local import SwitchLocalChecker
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.topology.elements import LinkId
from repro.topology.graph import Topology


class SwitchLocalStrategy(MitigationStrategy):
    """Today's practice: local uplink-count thresholds (§5.1)."""

    name = "switch-local"

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        sc: Optional[float] = None,
    ):
        self.topo = topo
        self.checker = SwitchLocalChecker(topo, constraint, sc=sc)

    def on_onset(self, link_id: LinkId) -> bool:
        return self.checker.check_and_disable(link_id).allowed

    def on_activation(self) -> List[LinkId]:
        return self.checker.reevaluate()


class NoMitigationStrategy(MitigationStrategy):
    """Never disable anything; corruption accumulates unchecked.

    §2 estimates that without the existing mitigation system, corruption
    losses "would be two orders of magnitude higher" — this strategy is
    the reference point for that claim.
    """

    name = "none"

    def __init__(self, topo: Topology):
        self.topo = topo

    def on_onset(self, link_id: LinkId) -> bool:
        return False

    def on_activation(self) -> List[LinkId]:
        return []


# --------------------------------------------------------------------- #
# LinkGuardian performance model
# --------------------------------------------------------------------- #

#: Loss-rate → (effective loss rate, effective capacity fraction) anchor
#: points for LinkGuardian's link-local retransmission (SIGCOMM'23).  The
#: paper reports near-lossless operation (residual loss ~1e-9..1e-8) with
#: ≥93% effective link speed up to ~1e-2 loss; retransmission overhead —
#: and hence both residual loss and capacity cost — grows with the raw
#: loss rate.  Rows must be sorted by loss rate, with effective loss
#: non-decreasing and effective capacity non-increasing.
LG_PERFORMANCE_TABLE: Tuple[Tuple[float, float, float], ...] = (
    (1e-6, 1e-9, 0.999),
    (1e-5, 2e-9, 0.998),
    (1e-4, 5e-9, 0.995),
    (1e-3, 1e-8, 0.985),
    (1e-2, 1e-7, 0.930),
)

#: Above this raw loss rate LinkGuardian cannot keep up (retransmissions
#: would collapse goodput) and the link must be handled conventionally.
LG_MAX_LOSS_RATE = 1e-2


def _validate_lg_table(
    table: Tuple[Tuple[float, float, float], ...]
) -> None:
    if not table:
        raise ValueError("LG performance table must not be empty")
    prev = None
    for row in table:
        rate, eff_loss, eff_cap = row
        if rate <= 0.0 or not 0.0 <= eff_loss <= rate or not 0.0 < eff_cap <= 1.0:
            raise ValueError(f"invalid LG table row {row}")
        if prev is not None:
            if rate <= prev[0]:
                raise ValueError("LG table loss rates must increase")
            if eff_loss < prev[1]:
                raise ValueError("LG table effective loss must be monotone")
            if eff_cap > prev[2]:
                raise ValueError("LG table capacity must be non-increasing")
        prev = row


_validate_lg_table(LG_PERFORMANCE_TABLE)


def lg_performance(
    rate: float,
    table: Tuple[Tuple[float, float, float], ...] = LG_PERFORMANCE_TABLE,
) -> Tuple[float, float]:
    """Effective (loss rate, capacity fraction) under LG at raw ``rate``.

    Log-space interpolation between table anchors: effective loss is
    interpolated in log-log (both axes span decades), capacity linearly
    against log10(rate).  Outside the table the end rows clamp.  The
    result is monotone in ``rate`` — non-decreasing residual loss,
    non-increasing capacity — because the table rows are and the
    interpolation preserves order between anchors.
    """
    if rate <= 0.0:
        return (0.0, 1.0)
    if rate <= table[0][0]:
        return (min(table[0][1], rate), table[0][2])
    if rate >= table[-1][0]:
        return (table[-1][1], table[-1][2])
    log_rate = math.log10(rate)
    for i in range(len(table) - 1):
        lo, hi = table[i], table[i + 1]
        if lo[0] <= rate <= hi[0]:
            span = math.log10(hi[0]) - math.log10(lo[0])
            t = (log_rate - math.log10(lo[0])) / span
            log_loss = (
                math.log10(lo[1]) + t * (math.log10(hi[1]) - math.log10(lo[1]))
            )
            eff_loss = 10.0 ** log_loss
            eff_cap = lo[2] + t * (hi[2] - lo[2])
            return (min(eff_loss, rate), eff_cap)
    raise AssertionError("unreachable: table scan failed")  # pragma: no cover


class LinkGuardianStrategy(MitigationStrategy):
    """Pure LinkGuardian: protect where capable, never disable.

    A corrupting link on an LG-capable port is placed under link-local
    retransmission: it stays ENABLED at the performance table's residual
    loss and reduced capacity, and — since the loss is masked rather than
    repaired — no repair is ever scheduled for it.  Links on non-capable
    ports (or corrupting beyond ``max_loss_rate``) are left alone, like
    :class:`NoMitigationStrategy`; that is the honest standalone-LG
    baseline the tournament compares against.
    """

    name = "linkguardian"

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        obs: Recorder = NULL_RECORDER,
        max_loss_rate: float = LG_MAX_LOSS_RATE,
    ):
        self.topo = topo
        self.counter = PathCounter(topo, obs=obs)
        self.max_loss_rate = max_loss_rate
        self.protections = 0

    def _try_protect(self, link_id: LinkId) -> bool:
        link = self.topo.link(link_id)
        if not link.lg_capable or link.lg_protected:
            return link.lg_protected
        rate = link.max_corruption_rate()
        if rate > self.max_loss_rate:
            return False
        eff_loss, eff_cap = lg_performance(rate)
        self.topo.protect_link(link_id, eff_loss, eff_cap)
        self.protections += 1
        return True

    def on_onset(self, link_id: LinkId) -> bool:
        self._try_protect(link_id)
        # Never disable: either the link is now protected (loss masked) or
        # LG cannot help and the link stays up corrupting.
        return False

    def on_activation(self) -> List[LinkId]:
        return []


class LinkGuardianCorrOptStrategy(CorrOptStrategy):
    """Combined policy: LG where capable, CorrOpt everywhere else.

    Onset: protect the link if its port is LG-capable and the loss rate is
    within LG's operating range; otherwise fall through to CorrOpt's fast
    check.  Activation: run the global optimizer over the corrupting links
    that are *not* under protection (a protected link is already
    mitigated; disabling it would waste a repair on masked loss).
    """

    name = "lg+corropt"

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        penalty_fn: PenaltyFn = linear_penalty,
        obs: Recorder = NULL_RECORDER,
        max_loss_rate: float = LG_MAX_LOSS_RATE,
    ):
        super().__init__(topo, constraint, penalty_fn=penalty_fn, obs=obs)
        self.max_loss_rate = max_loss_rate
        self.protections = 0

    _try_protect = LinkGuardianStrategy._try_protect

    def on_onset(self, link_id: LinkId) -> bool:
        if self._try_protect(link_id):
            return False
        return super().on_onset(link_id)

    def on_activation(self) -> List[LinkId]:
        return super().on_activation([
            lid
            for lid in self.topo.corrupting_links()
            if not self.topo.link(lid).lg_protected
        ])


class DrainStrategy(CorrOptStrategy):
    """§8 extension: remove traffic instead of hard-disabling.

    Decision logic is identical to CorrOpt (a drained link provides no
    capacity either), but links are put in the DRAINED state so optical
    monitoring keeps flowing and repairs can be verified with test traffic
    before re-admitting production traffic.
    """

    name = "drain"

    def on_onset(self, link_id: LinkId) -> bool:
        allowed = self.fast_checker.check(link_id).allowed
        if allowed:
            self.topo.drain_link(link_id)
        return allowed

    def on_activation(self) -> List[LinkId]:
        to_drain = sorted(self.plan().to_disable)
        for lid in to_drain:
            self.topo.drain_link(lid)
        return to_drain


#: Every constructible strategy name, in the paper's presentation order
#: (paper strategies first, then the §8 / rival extensions).
STRATEGY_NAMES = (
    "corropt",
    "fast-checker-only",
    "switch-local",
    "none",
    "drain",
    "linkguardian",
    "lg+corropt",
)

#: Per-strategy tuning knobs accepted by :func:`build_strategy`.  A knob
#: passed for a strategy that does not consume it is rejected loudly —
#: silently dropping configuration was the bug this registry fixes.
STRATEGY_KNOBS: Dict[str, FrozenSet[str]] = {
    "corropt": frozenset(),
    "fast-checker-only": frozenset(),
    "switch-local": frozenset({"sc"}),
    "none": frozenset(),
    "drain": frozenset(),
    "linkguardian": frozenset({"max_loss_rate"}),
    "lg+corropt": frozenset({"max_loss_rate"}),
}


def build_strategy(
    name: str,
    topo: Topology,
    constraint: CapacityConstraint,
    penalty_fn: PenaltyFn = linear_penalty,
    obs: Recorder = NULL_RECORDER,
    knobs: Optional[Mapping[str, float]] = None,
) -> MitigationStrategy:
    """Construct a strategy by name on a live topology.

    The single switch point shared by scenarios, the parallel worker and
    the CLI, so strategy names mean the same thing everywhere.

    Args:
        name: One of :data:`STRATEGY_NAMES`.
        topo: Live topology the strategy mutates.
        constraint: Capacity constraint for checkers/optimizer.
        penalty_fn: Penalty function; consumed by the strategies that run
            the global optimizer (corropt, drain, lg+corropt).  The
            penalty *integration* in the kernel uses its own penalty
            function, configured on the simulation.
        obs: Observability recorder.
        knobs: Optional per-strategy tuning values (see
            :data:`STRATEGY_KNOBS`).  Unknown or inapplicable knobs raise
            ``ValueError`` instead of being silently ignored.
    """
    if name not in STRATEGY_NAMES:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {list(STRATEGY_NAMES)}"
        )
    knobs = dict(knobs) if knobs else {}
    allowed = STRATEGY_KNOBS[name]
    bad = sorted(set(knobs) - allowed)
    if bad:
        raise ValueError(
            f"knobs {bad} not applicable to strategy {name!r}; "
            f"applicable knobs: {sorted(allowed) or 'none'}"
        )
    if name == "corropt":
        return CorrOptStrategy(topo, constraint, penalty_fn=penalty_fn, obs=obs)
    if name == "fast-checker-only":
        return FastCheckerOnlyStrategy(topo, constraint, obs=obs)
    if name == "switch-local":
        return SwitchLocalStrategy(topo, constraint, sc=knobs.get("sc"))
    if name == "none":
        return NoMitigationStrategy(topo)
    if name == "drain":
        return DrainStrategy(topo, constraint, penalty_fn=penalty_fn, obs=obs)
    if name == "linkguardian":
        return LinkGuardianStrategy(
            topo,
            constraint,
            obs=obs,
            max_loss_rate=knobs.get("max_loss_rate", LG_MAX_LOSS_RATE),
        )
    if name == "lg+corropt":
        return LinkGuardianCorrOptStrategy(
            topo,
            constraint,
            penalty_fn=penalty_fn,
            obs=obs,
            max_loss_rate=knobs.get("max_loss_rate", LG_MAX_LOSS_RATE),
        )
    raise AssertionError("unreachable")  # pragma: no cover

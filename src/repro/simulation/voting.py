"""007-style flow-voting sensing: localize by path blame, not counters.

007 (NSDI'18; see PAPERS.md) localizes lossy links *without trusting
per-link counters*: every flow that suffers drops votes for the links on
its path, and the tally concentrates on the culprit because healthy
links appear on failed and successful paths alike.  That makes voting
the natural cross-check for the two failure modes counter-driven
sensing cannot see past — miswired attribution (the counters describe a
different cable) and congestion-only loss (drops with no FCS
signature).

:class:`FlowVotingSensing` rides the same kernel contract as
:class:`~repro.simulation.kernel.TelemetrySensing` and feeds its blame
through the same :class:`~repro.core.diagnosis.LinkDiagnosis` boundary:

1. each poll, a fixed seeded flow population is routed by live ECMP
   (disabled links drop out automatically, so mitigation reshapes the
   electorate exactly as §8 describes);
2. each routed flow fails with the path's ground-truth loss probability
   (corruption follows the physical cable; queue loss comes from the
   congestion channel of the telemetry store);
3. failed flows split one vote evenly over their path links;
4. accused links (tally ≥ quorum) are cross-checked against counters:
   counter-confirmed blame goes through the ordinary cause classifier,
   counter-*denied* blame becomes a vote-sourced report carrying the
   path-measured rate (this is what survives a wrong inventory map),
   and blame explained by congestion alone is ledgered but never acted
   on.

Everything is seeded arithmetic (``vote_seed`` + poll index), so runs
are byte-identical across worker counts and checkpoint/resume.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.diagnosis import (
    CAUSE_CONGESTION,
    CAUSE_CORRUPTION,
    CAUSE_MISWIRED,
)
from repro.routing.ecmp import EcmpRouter
from repro.simulation.kernel import (
    CLASSIFIER,
    DETECTION_THRESHOLD,
    SimulationKernel,
    TelemetrySensing,
)
from repro.topology.elements import Direction, LinkId
from repro.workloads.flows import sample_flow_population

__all__ = ["FlowVotingSensing"]


#: Flows sourced at each ToR: the electorate.
FLOWS_PER_TOR = 16
#: Packets a flow sends per poll: a link losing ``1 / PACKETS_PER_FLOW``
#: fails ~63% of its flows.
PACKETS_PER_FLOW = 1_000_000
#: Vote tally that accuses a link (a failed flow splits one vote).
VOTE_QUORUM = 1.0
#: Accused links cross-checked per poll, in descending-tally order.
MAX_CANDIDATES = 16


class FlowVotingSensing(TelemetrySensing):
    """Telemetry sensing whose detector is a flow-voting localizer.

    Args:
        vote_seed: Seeds both the flow population and the per-poll
            failure draws (``vote_seed`` + poll index).

    Remaining arguments match :class:`TelemetrySensing`.
    """

    def __init__(self, *args, vote_seed: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.vote_seed = vote_seed

    def _diagnosis_active(self) -> bool:
        # The localizer's whole output is diagnoses; always keep the
        # accuracy ledger.
        return True

    def attach(self, kernel: SimulationKernel) -> None:
        super().attach(kernel)
        self._flows = sample_flow_population(
            kernel.topo, FLOWS_PER_TOR, seed=self.vote_seed
        )
        self._router = EcmpRouter(kernel.topo)

    # -- the voting detector -------------------------------------------- #

    def _path_loss(self, link_id: LinkId, now: float) -> float:
        """Ground-truth loss a packet sees crossing ``link_id`` upward.

        Corruption follows the physical cable (flows do not consult the
        inventory map), so voting localizes correctly even when counter
        attribution is miswired.  Queue loss comes from the store's
        congestion channel — the sanitized estimate an operator could
        subtract, keeping the model honest about what 007 can know.
        """
        link = self.kernel.topo.link(link_id)
        loss = link.corruption_rate[Direction.UP]
        if self._congestion_model is not None:
            sample = self.store.last_sample(link.direction_id(Direction.UP))
            if sample is not None and sample[0] == now:
                loss += sample[2]
        return loss

    def _tally_votes(self, now: float) -> Dict[LinkId, float]:
        """Route the electorate; failed flows split a vote over their path."""
        rng = random.Random((self.vote_seed << 20) + int(now))
        votes: Dict[LinkId, float] = {}
        for flow in self._flows:
            path = self._router.up_path(flow)
            if not path:
                continue
            p_ok = 1.0
            for lid in path:
                loss = min(1.0, self._path_loss(lid, now))
                if loss > 0.0:
                    p_ok *= (1.0 - loss) ** PACKETS_PER_FLOW
            # One draw per routed flow, loss or not, so the RNG stream
            # never depends on float comparisons against thresholds.
            if rng.random() < p_ok:
                continue
            share = 1.0 / len(path)
            for lid in path:
                votes[lid] = votes.get(lid, 0.0) + share
        return votes

    def _detect_and_report(self, now: float) -> None:
        topo = self.kernel.topo
        votes = self._tally_votes(now)
        candidates = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
        examined = 0
        for link_id, tally in candidates:
            if tally < VOTE_QUORUM or examined >= MAX_CANDIDATES:
                break
            link = topo.link(link_id)
            if not link.enabled:
                continue
            examined += 1
            # Counter cross-check: the freshest, worst FCS evidence.
            best_direction: Optional[Direction] = None
            best_rate = 0.0
            for direction in (Direction.UP, Direction.DOWN):
                sample = self.store.last_sample(link.direction_id(direction))
                if sample is None or sample[0] != now:
                    continue
                if best_direction is None or sample[1] > best_rate:
                    best_direction = direction
                    best_rate = sample[1]
            true_rate = link.max_corruption_rate()
            if (
                best_direction is not None
                and best_rate >= DETECTION_THRESHOLD
            ):
                # Counters confirm the accusation: the ordinary
                # classifier decides (congestion/miswire evidence may
                # still veto mitigation).
                did = link.direction_id(best_direction)
                diagnosis = self._diagnose(
                    link,
                    best_direction,
                    did,
                    self.store.last_sample(did),
                    now,
                )
                self._note_diagnosis(link_id, did, diagnosis)
                if not diagnosis.actionable():
                    continue
                self._report_and_account(now, link_id, best_direction, best_rate)
            elif true_rate >= DETECTION_THRESHOLD:
                # Counters deny what the flows experienced — the A3
                # regime (or dead counters).  Vote-sourced blame carries
                # the path-measured rate, so the physical culprit is
                # mitigated despite the wrong map.
                up = link.corruption_rate[Direction.UP]
                down = link.corruption_rate[Direction.DOWN]
                direction = Direction.UP if up >= down else Direction.DOWN
                diagnosed = (
                    CAUSE_MISWIRED
                    if self._miswiring is not None
                    and self._miswiring.affects(link_id)
                    else CAUSE_CORRUPTION
                )
                key = ("vote", link_id)
                if key not in self._diagnosis_noted:
                    self._diagnosis_noted.add(key)
                    self.diagnosis.note(self._true_cause(link_id), diagnosed)
                self._report_and_account(now, link_id, direction, true_rate)
            else:
                # Blame fully explained by congestion: ledger it (when
                # the link's own drops channel corroborates), never
                # mitigate (the discrimination guarantee).  Accusations
                # with neither FCS nor drop evidence are bystanders on a
                # failed path — dropped without a verdict.
                drops = 0.0
                for direction in (Direction.UP, Direction.DOWN):
                    sample = self.store.last_sample(
                        link.direction_id(direction)
                    )
                    if sample is not None and sample[0] == now:
                        drops = max(drops, sample[2])
                if drops < CLASSIFIER.congestion_threshold:
                    continue
                key = ("vote", link_id)
                if key not in self._diagnosis_noted:
                    self._diagnosis_noted.add(key)
                    self.diagnosis.note(
                        self._true_cause(link_id), CAUSE_CONGESTION
                    )

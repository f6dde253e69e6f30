"""Bounded work queues with explicit backpressure accounting.

The service's ingestion loop never blocks a producer and never grows
without limit: a :class:`BoundedWorkQueue` holds at most ``capacity``
items, and a push against a full queue resolves *explicitly* — the item
is either **deferred** (parked in an overflow buffer and re-admitted as
the consumer drains, the default) or **dropped** (discarded on the
spot).  Every outcome is counted, and the counts obey a conservation
law checked by :meth:`accounting_ok`: nothing is ever lost silently.

Everything is simulated-time / in-process — the queue is a data
structure, not a thread primitive — so service runs stay deterministic
and checkpointable (plain deques pickle exactly).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.obs.recorder import NULL_RECORDER, Recorder

#: Push outcomes.
ACCEPTED, DEFERRED, DROPPED = "accepted", "deferred", "dropped"

#: Backpressure policies.
POLICIES = ("defer", "drop")


@dataclass
class QueueStats:
    """Exact push/drain accounting for one queue.

    Conservation: ``offered == accepted + deferred + dropped`` and
    ``drained + queued == accepted + requeued`` at every instant.
    """

    offered: int = 0      #: push() calls
    accepted: int = 0     #: entered the ring directly
    deferred: int = 0     #: parked in the overflow buffer (defer policy)
    requeued: int = 0     #: overflow items later admitted to the ring
    dropped: int = 0      #: discarded (drop policy)
    drained: int = 0      #: handed to the consumer
    high_watermark: int = 0  #: max ring + overflow depth ever seen

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "deferred": self.deferred,
            "requeued": self.requeued,
            "dropped": self.dropped,
            "drained": self.drained,
            "high_watermark": self.high_watermark,
        }


class BoundedWorkQueue:
    """FIFO ring of at most ``capacity`` items with overflow accounting.

    Args:
        capacity: Maximum items in the ring.
        policy: ``"defer"`` parks overflow in a side buffer that is
            re-admitted (oldest first) as the consumer drains; ``"drop"``
            discards overflow immediately.  Either way the push is
            counted — backpressure is explicit, never silent.
        obs: Observability recorder; push outcomes become labeled
            counters and the depth a gauge (no-op by default).
        name: Queue label on the exported metrics.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "defer",
        obs: Recorder = NULL_RECORDER,
        name: str = "ingest",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.obs = obs
        self.name = name
        self.stats = QueueStats()
        self._ring: Deque[object] = deque()
        self._overflow: Deque[object] = deque()

    # ------------------------------------------------------------------ #

    def pending(self) -> int:
        """Items awaiting the consumer (ring + overflow)."""
        return len(self._ring) + len(self._overflow)

    def _note_depth(self) -> None:
        depth = self.pending()
        if depth > self.stats.high_watermark:
            self.stats.high_watermark = depth

    def push(self, item: object) -> str:
        """Offer one item; returns ``accepted``/``deferred``/``dropped``."""
        stats = self.stats
        stats.offered += 1
        if len(self._ring) < self.capacity:
            self._ring.append(item)
            stats.accepted += 1
            outcome = ACCEPTED
        elif self.policy == "defer":
            self._overflow.append(item)
            stats.deferred += 1
            outcome = DEFERRED
        else:
            stats.dropped += 1
            outcome = DROPPED
        self._note_depth()
        obs = self.obs
        if obs.enabled:
            obs.count(
                "service_queue_pushes_total", queue=self.name, outcome=outcome
            )
            obs.gauge(
                "service_queue_depth", self.pending(), queue=self.name
            )
        return outcome

    def _admit_overflow(self) -> None:
        while self._overflow and len(self._ring) < self.capacity:
            self._ring.append(self._overflow.popleft())
            self.stats.requeued += 1

    def drain(self, budget: Optional[int] = None) -> List[object]:
        """Pop up to ``budget`` items (all, when ``None``), oldest first.

        Deferred overflow is re-admitted before and after popping, so a
        consumer that keeps up eventually sees every deferred item in
        FIFO order.
        """
        self._admit_overflow()
        out: List[object] = []
        while self._ring and (budget is None or len(out) < budget):
            out.append(self._ring.popleft())
            self.stats.drained += 1
            if not self._ring:
                # Keep pulling parked overflow through the ring so an
                # unbudgeted drain really empties the queue.
                self._admit_overflow()
        self._admit_overflow()
        obs = self.obs
        if obs.enabled and out:
            obs.count(
                "service_queue_drained_total",
                float(len(out)),
                queue=self.name,
            )
            obs.gauge("service_queue_depth", self.pending(), queue=self.name)
        return out

    def accounting_ok(self) -> bool:
        """Conservation check: every offered item is accounted for."""
        s = self.stats
        return (
            s.offered == s.accepted + s.deferred + s.dropped
            and s.drained + len(self._ring) == s.accepted + s.requeued
            and len(self._overflow) == s.deferred - s.requeued
            and s.requeued <= s.deferred
        )

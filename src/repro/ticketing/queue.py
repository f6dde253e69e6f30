"""The FIFO ticket queue and service-time models.

§5.2: "Generated tickets are placed in a FIFO queue ... on average, it
takes two days for technicians to resolve a ticket; this means, each failed
repair attempt adds two more days during which the link must be disabled."

:class:`TechnicianPoolQueue` — ``k`` technicians each work one ticket at a
time (an extension that makes queueing delay grow with backlog).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional, Tuple

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.ticketing.ticket import Ticket, TicketStatus

TWO_DAYS_S = 2 * 86_400.0


class TechnicianPoolQueue:
    """A FIFO queue drained by ``k`` technicians (extension).

    Each ticket occupies one technician for ``service_time_s``; waiting
    time therefore grows with backlog, as the paper observes in production
    ("the exact time needed for a fix depends on the number of tickets in
    the queue").
    """

    def __init__(
        self,
        num_technicians: int = 4,
        service_time_s: float = TWO_DAYS_S,
        obs: Recorder = NULL_RECORDER,
    ):
        if num_technicians < 1:
            raise ValueError("need at least one technician")
        self.num_technicians = num_technicians
        self.service_time_s = service_time_s
        self.obs = obs
        self._waiting: deque = deque()
        self._in_service: List[Tuple[float, int, Ticket]] = []

    def submit(self, ticket: Ticket, now_s: float) -> None:
        """Enqueue a ticket (it starts service when a technician frees up)."""
        self._waiting.append(ticket)
        self._dispatch(now_s)
        if self.obs.enabled:
            self.obs.count("ticket_submissions_total", queue="pool")
            self.obs.gauge("ticket_queue_depth", len(self), queue="pool")
            self.obs.gauge(
                "ticket_queue_backlog", len(self._waiting), queue="pool"
            )

    def _dispatch(self, now_s: float) -> None:
        while self._waiting and len(self._in_service) < self.num_technicians:
            ticket = self._waiting.popleft()
            ticket.status = TicketStatus.IN_SERVICE
            heapq.heappush(
                self._in_service,
                (now_s + self.service_time_s, ticket.ticket_id, ticket),
            )

    def pop_due(self, now_s: float) -> List[Ticket]:
        """Tickets finishing service by ``now_s`` (frees technicians)."""
        due = []
        while self._in_service and self._in_service[0][0] <= now_s:
            due.append(heapq.heappop(self._in_service)[2])
        self._dispatch(now_s)
        if self.obs.enabled and due:
            for ticket in due:
                self.obs.observe(
                    "ticket_wait_seconds",
                    now_s - ticket.created_s,
                    queue="pool",
                )
            self.obs.gauge("ticket_queue_depth", len(self), queue="pool")
            self.obs.gauge(
                "ticket_queue_backlog", len(self._waiting), queue="pool"
            )
        return due

    def next_completion(self) -> Optional[float]:
        return self._in_service[0][0] if self._in_service else None

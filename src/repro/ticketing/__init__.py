"""Ticketing substrate: tickets, FIFO queues, technicians, repair campaigns.

Models the human repair loop of §5.2/§7.2: disabled links become tickets,
tickets wait ~two days in a FIFO queue, technicians attempt repairs that
succeed only when the action matches the root cause, and failed attempts
cycle the link back through disable → ticket → repair (Figure 12).
"""

from repro.ticketing.queue import TWO_DAYS_S, TechnicianPoolQueue
from repro.ticketing.repair import (
    MAX_ATTEMPTS,
    CampaignResult,
    run_repair_campaign,
)
from repro.ticketing.technician import (
    LEGACY_SEQUENCE,
    AttemptResult,
    LegacyTechnician,
    RecommendationFollowingTechnician,
)
from repro.ticketing.ticket import (
    RepairAttempt,
    Ticket,
    TicketStatus,
)

__all__ = [
    "AttemptResult",
    "CampaignResult",
    "LEGACY_SEQUENCE",
    "LegacyTechnician",
    "MAX_ATTEMPTS",
    "RecommendationFollowingTechnician",
    "RepairAttempt",
    "TWO_DAYS_S",
    "TechnicianPoolQueue",
    "Ticket",
    "TicketStatus",
    "run_repair_campaign",
]

"""Tests for tickets, queues, and technician models."""

import pytest

from repro.core import RepairAction
from repro.faults import FiberDamageFault, SharedComponentFault, TransceiverFault
from repro.ticketing import (
    LegacyTechnician,
    RecommendationFollowingTechnician,
    RepairAttempt,
    TechnicianPoolQueue,
    Ticket,
    TicketStatus,
    TWO_DAYS_S,
)


def make_ticket(fault=None, recommendation=None) -> Ticket:
    return Ticket(
        link_id=("a", "b"),
        created_s=0.0,
        fault=fault,
        recommendation=recommendation,
    )


class TestTicket:
    def test_ids_monotonic(self):
        a, b = make_ticket(), make_ticket()
        assert b.ticket_id > a.ticket_id

    def test_attempt_resolution(self):
        ticket = make_ticket()
        ticket.record_attempt(
            RepairAttempt(0.0, RepairAction.CLEAN_FIBER, False, False)
        )
        assert ticket.status is TicketStatus.OPEN
        ticket.record_attempt(
            RepairAttempt(1.0, RepairAction.REPLACE_CABLE, False, True)
        )
        assert ticket.status is TicketStatus.RESOLVED
        assert not ticket.first_attempt_succeeded()

    def test_recently_reseated(self):
        ticket = make_ticket()
        assert not ticket.recently_reseated()
        ticket.record_attempt(
            RepairAttempt(0.0, RepairAction.RESEAT_TRANSCEIVER, True, False)
        )
        assert ticket.recently_reseated()


class TestQueues:
    def test_fixed_delay_completion(self):
        """With a technician free, a ticket completes ``service_time_s``
        after it is submitted."""
        queue = TechnicianPoolQueue(num_technicians=1, service_time_s=100.0)
        ticket = make_ticket()
        queue.submit(ticket, now_s=0.0)
        assert queue.next_completion() == 100.0
        assert queue.pop_due(99.0) == []
        assert queue.pop_due(100.0) == [ticket]
        assert queue.next_completion() is None

    def test_fixed_delay_fifo_order(self):
        queue = TechnicianPoolQueue(num_technicians=2, service_time_s=10.0)
        first, second = make_ticket(), make_ticket()
        queue.submit(first, 0.0)
        queue.submit(second, 0.0)
        assert queue.pop_due(10.0) == [first, second]

    def test_default_service_is_two_days(self):
        assert TechnicianPoolQueue().service_time_s == TWO_DAYS_S

    def test_pool_queue_backlog(self):
        queue = TechnicianPoolQueue(num_technicians=1, service_time_s=10.0)
        tickets = [make_ticket() for _ in range(3)]
        for t in tickets:
            queue.submit(t, 0.0)
        assert queue.pop_due(10.0) == [tickets[0]]
        # Next ticket entered service at t=10.
        assert queue.pop_due(20.0) == [tickets[1]]
        assert queue.pop_due(30.0) == [tickets[2]]

    def test_pool_parallelism(self):
        queue = TechnicianPoolQueue(num_technicians=3, service_time_s=10.0)
        tickets = [make_ticket() for _ in range(3)]
        for t in tickets:
            queue.submit(t, 0.0)
        assert set(t.ticket_id for t in queue.pop_due(10.0)) == {
            t.ticket_id for t in tickets
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            TechnicianPoolQueue(num_technicians=0)


class TestLegacyTechnician:
    def test_follows_escalation_ladder(self):
        technician = LegacyTechnician(seed=0)
        fault = TransceiverFault(target_rate=1e-3, loose=False)
        ticket = make_ticket(fault=fault)
        actions = []
        for i in range(4):
            outcome = technician.attempt(ticket)
            actions.append(outcome.action)
            ticket.record_attempt(
                RepairAttempt(i, outcome.action, False, outcome.success)
            )
            if outcome.success:
                break
        # A bad transceiver is only fixed by replacement (third rung) —
        # unless the first-visit visual inspection shortcut fired, which it
        # cannot for a non-loose fault.
        assert RepairAction.REPLACE_TRANSCEIVER in actions
        assert ticket.status is TicketStatus.RESOLVED

    def test_aggregate_accuracy_near_half(self):
        """Calibration: legacy first-attempt success ~50% (§5.2)."""
        from repro.ticketing import run_repair_campaign

        result = run_repair_campaign(800, policy="legacy", seed=0)
        assert 0.42 <= result.first_attempt_accuracy <= 0.58

    def test_never_reports_following_recommendation(self):
        technician = LegacyTechnician(seed=1)
        ticket = make_ticket(fault=FiberDamageFault(target_rate=1e-3))
        assert not technician.attempt(ticket).followed_recommendation


class TestRecommendationFollowing:
    def test_full_compliance_follows(self):
        technician = RecommendationFollowingTechnician(compliance=1.0, seed=0)
        fault = SharedComponentFault(target_rate=1e-3)
        ticket = make_ticket(fault=fault)
        outcome = technician.attempt(
            ticket,
            recommendation_action=RepairAction.REPLACE_SHARED_COMPONENT,
        )
        assert outcome.followed_recommendation
        assert outcome.success

    def test_zero_compliance_falls_back_to_legacy(self):
        technician = RecommendationFollowingTechnician(compliance=0.0, seed=0)
        fault = SharedComponentFault(target_rate=1e-3)
        ticket = make_ticket(fault=fault)
        outcome = technician.attempt(
            ticket,
            recommendation_action=RepairAction.REPLACE_SHARED_COMPONENT,
        )
        assert not outcome.followed_recommendation

    def test_invalid_compliance_rejected(self):
        with pytest.raises(ValueError):
            RecommendationFollowingTechnician(compliance=1.5)

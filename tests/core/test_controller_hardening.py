"""Hardened-controller tests: fail-safe rule, debounce, breaker fallback,
and the bounded decision ring buffer."""

import pytest

from repro.core import (
    CapacityConstraint,
    CircuitBreaker,
    CorrOptController,
    OnsetDebouncer,
)

LID = ("pod0/tor0", "pod0/agg0")


def make_controller(topo, **kwargs):
    return CorrOptController(topo, CapacityConstraint(0.5), **kwargs)


class TestFailSafeRule:
    def test_never_disables_quarantined_link(self, medium_clos):
        controller = make_controller(
            medium_clos, quarantine_fn=lambda lid: True
        )
        decision = controller.report_corruption(LID, 1e-3, time_s=900.0)
        assert not decision.disabled
        assert decision.degraded
        assert decision.reason == "quarantined-report"
        assert medium_clos.link(LID).enabled
        # The untrusted rate must not leak into ground-truth state.
        assert LID not in medium_clos.corrupting_links()
        assert controller.log.fail_safe_keeps == 1
        assert controller.audit.counts["quarantined-report"] == 1

    def test_quarantine_lift_restores_normal_path(self, medium_clos):
        quarantined = {LID}
        controller = make_controller(
            medium_clos, quarantine_fn=lambda lid: lid in quarantined
        )
        assert not controller.report_corruption(LID, 1e-3).disabled
        quarantined.clear()
        assert controller.report_corruption(LID, 1e-3).disabled

    def test_optimizer_excludes_quarantined_candidates(self, medium_clos):
        quarantined = set()
        controller = make_controller(
            medium_clos, quarantine_fn=lambda lid: lid in quarantined
        )
        # Register corruption on two links while trusted; the first gets
        # disabled, the second kept (we force it by disabling the checker's
        # room: use low rates so the optimizer has active candidates).
        other = ("pod1/tor0", "pod1/agg0")
        controller.report_corruption(LID, 1e-3)
        medium_clos.set_corruption(other, 1e-3)
        quarantined.add(other)
        result = controller.activate_link(LID, repaired=True, time_s=900.0)
        assert other not in result.to_disable
        assert medium_clos.link(other).enabled

    def test_checker_error_fails_safe(self, medium_clos, monkeypatch):
        controller = make_controller(medium_clos)

        def boom(link_id):
            raise RuntimeError("checker exploded")

        monkeypatch.setattr(
            controller.fast_checker, "check_and_disable", boom
        )
        decision = controller.report_corruption(LID, 1e-3, time_s=900.0)
        assert not decision.disabled and decision.degraded
        assert medium_clos.link(LID).enabled
        assert controller.audit.counts["fast-check-error"] == 1


class TestDebounce:
    def test_single_report_does_not_disable(self, medium_clos):
        controller = make_controller(
            medium_clos, debouncer=OnsetDebouncer(confirm=2)
        )
        first = controller.report_corruption(LID, 1e-3, time_s=0.0)
        assert not first.disabled
        assert first.reason == "debounce-pending"
        second = controller.report_corruption(LID, 1e-3, time_s=900.0)
        assert second.disabled
        assert controller.log.debounced == 1

    def test_repair_clears_debounce_state(self, medium_clos):
        debouncer = OnsetDebouncer(confirm=2)
        controller = make_controller(medium_clos, debouncer=debouncer)
        controller.report_corruption(LID, 1e-3, time_s=0.0)
        controller.report_corruption(LID, 1e-3, time_s=900.0)
        controller.activate_link(LID, repaired=True, time_s=1800.0)
        assert debouncer.confirmed_count() == 0
        # After repair a fresh onset must be re-confirmed from scratch.
        assert not controller.report_corruption(
            LID, 1e-3, time_s=2700.0
        ).disabled


class TestOptimizerProtection:
    def test_optimizer_failure_falls_back_to_sweep(self, medium_clos, monkeypatch):
        controller = make_controller(medium_clos)
        controller.report_corruption(LID, 1e-3)

        def boom(candidates):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(controller.optimizer, "plan", boom)
        other = ("pod1/tor0", "pod1/agg0")
        medium_clos.set_corruption(other, 1e-3)
        result = controller.activate_link(LID, repaired=True, time_s=900.0)
        assert controller.log.optimizer_failures == 1
        assert controller.log.optimizer_fallbacks == 1
        assert controller.audit.counts["optimizer-error"] == 1
        # The fallback sweep still mitigates what it safely can.
        assert other in result.to_disable
        assert not medium_clos.link(other).enabled

    def test_breaker_trips_then_fast_checker_only(self, medium_clos, monkeypatch):
        breaker = CircuitBreaker(failure_threshold=2, recovery_s=7200.0)
        controller = make_controller(medium_clos, optimizer_breaker=breaker)
        monkeypatch.setattr(
            controller.optimizer,
            "plan",
            lambda candidates: (_ for _ in ()).throw(RuntimeError("down")),
        )
        controller.activate_link(LID, repaired=True, time_s=0.0)
        controller.activate_link(LID, repaired=True, time_s=900.0)
        assert breaker.trips == 1
        # Breaker open: the optimizer is not even attempted.
        controller.activate_link(LID, repaired=True, time_s=1800.0)
        assert controller.log.optimizer_failures == 2  # unchanged
        assert controller.log.optimizer_fallbacks == 3
        assert controller.audit.counts["optimizer-breaker-open"] == 1

    def test_retry_masks_transient_failure(self, medium_clos, monkeypatch):
        controller = make_controller(medium_clos, optimizer_attempts=2)
        real_plan = controller.optimizer.plan
        calls = []

        def flaky(candidates):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return real_plan(candidates)

        monkeypatch.setattr(controller.optimizer, "plan", flaky)
        controller.activate_link(LID, repaired=True, time_s=0.0)
        assert len(calls) == 2
        assert controller.log.optimizer_failures == 0
        assert controller.log.optimizer_fallbacks == 0


class TestDecisionRingBuffer:
    def test_bounded_ring_keeps_exact_totals(self, medium_clos):
        # A never-confirming debouncer makes every report a recorded
        # keep-active decision without touching link state.
        controller = make_controller(
            medium_clos,
            max_decisions=16,
            debouncer=OnsetDebouncer(confirm=100),
        )
        for i in range(50):
            controller.report_corruption(LID, 1e-3, time_s=900.0 * i)
        assert len(controller.log.decisions) == 16
        assert controller.log.total_decisions == 50
        assert controller.log.reports == 50

    def test_unbounded_by_default(self, medium_clos):
        controller = make_controller(
            medium_clos, debouncer=OnsetDebouncer(confirm=100)
        )
        for i in range(50):
            controller.report_corruption(LID, 1e-3, time_s=900.0 * i)
        assert len(controller.log.decisions) == 50

    def test_max_decisions_validated(self, medium_clos):
        with pytest.raises(ValueError):
            make_controller(medium_clos, max_decisions=0)

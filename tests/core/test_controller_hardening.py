"""Hardened-controller tests: fail-safe rule, debounce, breaker fallback,
and the bounded decision ring buffer."""

import pytest

from repro.core import (
    CapacityConstraint,
    CircuitBreaker,
    CorrOptController,
    OnsetDebouncer,
)
from repro.core.controller import FastCheckerOnlyStrategy
from repro.topology import build_clos

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

    def test_quarantine_tripped_during_plan_keeps_chosen_link(
        self, medium_clos, monkeypatch
    ):
        """The third fail-safe point (DESIGN.md §8): plan application
        re-checks quarantine before each disable."""
        quarantined = set()
        announced = []
        controller = make_controller(
            medium_clos,
            quarantine_fn=lambda lid: lid in quarantined,
            on_disable=lambda lid, rec: announced.append(lid),
        )
        victim, other = ("pod1/tor0", "pod1/agg0"), ("pod2/tor0", "pod2/agg0")
        for lid in (victim, other):
            medium_clos.set_corruption(lid, 1e-3)
        real_plan = controller.optimizer.plan

        def plan_then_quarantine(candidates):
            result = real_plan(candidates)
            assert {victim, other} <= result.to_disable
            quarantined.add(victim)
            return result

        monkeypatch.setattr(controller.optimizer, "plan", plan_then_quarantine)
        keeps = controller.log.fail_safe_keeps
        controller.activate_link(LID, repaired=True, time_s=900.0)
        assert medium_clos.link(victim).enabled
        assert not medium_clos.link(other).enabled
        assert controller.log.fail_safe_keeps == keeps + 1
        records = [
            (r.link_id, r.time_s)
            for r in controller.audit.records()
            if r.event == "quarantined-optimizer-choice"
        ]
        assert records == [(victim, 900.0)]
        assert victim not in announced
        assert announced == [other]


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

    def test_failed_fallback_sweep_audited_at_activation_time(
        self, medium_clos, monkeypatch
    ):
        """A degraded sweep that raises disables nothing and is audited
        at the activation's time, not at t = 0."""
        controller = make_controller(medium_clos)

        def boom(*args):
            raise RuntimeError("down")

        monkeypatch.setattr(controller.optimizer, "plan", boom)
        monkeypatch.setattr(controller.fast_checker, "sweep", boom)
        controller.activate_link(LID, repaired=True, time_s=900.0)
        [record] = [
            r
            for r in controller.audit.records()
            if r.event == "fallback-sweep-error"
        ]
        assert record.time_s == 900.0
        assert record.fail_safe
        assert controller.log.disabled_by_optimizer == 0


def _recording_disables(topo, monkeypatch):
    """Record the order in which ``topo`` disables links."""
    order = []
    disable = topo.disable_link

    def recording(link_id):
        order.append(link_id)
        disable(link_id)

    monkeypatch.setattr(topo, "disable_link", recording)
    return order


def test_degraded_mode_is_the_fast_checker_only_baseline(monkeypatch):
    """With its breaker open, the controller's activation is Figure 18's
    fast-checker-only activation over the trusted candidates: the same
    disables, in the same sweep order."""
    quarantined = {("pod2/tor1", "pod2/agg2")}
    back = ("pod3/tor3", "pod3/agg3")
    rates = {}
    for pod in range(4):
        # Every uplink of one ToR per pod, and one agg-spine link each:
        # the greedy order decides which of a ToR's uplinks goes.
        for agg in range(4):
            rates[(f"pod{pod}/tor1", f"pod{pod}/agg{agg}")] = (
                10.0 ** -(2 + (agg + pod) % 4)
            )
        rates[(f"pod{pod}/agg{pod}", f"spine{4 * pod}")] = 10.0 ** -(3 + pod)
    topos = []
    for _ in range(2):
        topo = build_clos(4, 4, 4, 16)
        for lid, rate in rates.items():
            topo.set_corruption(lid, rate)
        topo.disable_link(back)
        topos.append(topo)
    constraint = CapacityConstraint(0.75)

    breaker = CircuitBreaker(failure_threshold=1)
    breaker.record_failure(0.0)
    controller = CorrOptController(
        topos[0],
        constraint,
        quarantine_fn=lambda lid: lid in quarantined,
        optimizer_breaker=breaker,
    )
    controller_order = _recording_disables(topos[0], monkeypatch)
    result = controller.activate_link(back, repaired=True, time_s=900.0)
    assert controller.log.optimizer_fallbacks == 1

    baseline = FastCheckerOnlyStrategy(topos[1], constraint)
    topos[1].enable_link(back)
    trusted = [
        lid for lid in topos[1].corrupting_links() if lid not in quarantined
    ]
    baseline_order = _recording_disables(topos[1], monkeypatch)
    swept = baseline.on_activation(trusted)

    assert 0 < len(swept) < len(trusted)
    assert controller_order == baseline_order == swept
    assert result.to_disable == set(swept)
    assert result.kept_active == set(trusted) - set(swept)
    assert topos[0].disabled_links() == topos[1].disabled_links()


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

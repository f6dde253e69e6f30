"""Integration tests: full pipelines across modules."""

import numpy as np
import pytest

from repro.core import (
    CapacityConstraint,
    CorrOptController,
    PathCounter,
    RepairAction,
)
from repro.faults import FaultInjector, observation_from_condition
from repro.simulation import make_scenario, run_scenario
from repro.telemetry import SnmpPoller, TelemetrySanitizer, TelemetryStore
from repro.telemetry.poller import ConstantTraffic
from repro.ticketing import TechnicianPoolQueue, Ticket
from repro.topology import Direction, build_clos
from repro.workloads import sample_corruption_rate
from repro.workloads.dcn_profiles import DCNProfile
from tests.telemetry.stored import WINDOW, column


class TestMonitorToControllerPipeline:
    """Fault models -> telemetry -> controller -> tickets, end to end."""

    def test_full_loop(self):
        topo = build_clos(2, 4, 4, 16)
        injector = FaultInjector(
            topo, seed=0, rate_sampler=sample_corruption_rate
        )
        tickets = []

        # Wire the observation provider to the latest fault conditions.
        conditions = {}

        def observe(link_id):
            return observation_from_condition(
                link_id, conditions[link_id], tech=injector.tech
            )

        controller = CorrOptController(
            topo,
            CapacityConstraint(0.5),
            observation_provider=observe,
            on_disable=lambda lid, rec: tickets.append(
                Ticket(link_id=lid, created_s=0.0, recommendation=rec)
            ),
        )

        # Inject 10 faults through the controller.
        for _ in range(10):
            event = injector.sample_fault()
            for lid, cond in zip(event.link_ids, event.conditions):
                if not topo.link(lid).enabled:
                    continue
                conditions[lid] = cond
                controller.report_corruption(lid, cond.fwd_rate)

        assert controller.log.reports >= 10
        assert tickets, "disabling must generate tickets"
        queue = TechnicianPoolQueue(num_technicians=len(tickets))
        for ticket in tickets:
            assert ticket.recommendation is not None
            queue.submit(ticket, 0.0)

        # Service all tickets and re-activate.
        for ticket in queue.pop_due(queue.service_time_s):
            controller.activate_link(ticket.link_id, repaired=True)
        assert controller.current_penalty() == pytest.approx(0.0, abs=1e-6)

    def test_telemetry_sees_corruption_the_controller_acts_on(self):
        topo = build_clos(1, 2, 2, 4)
        store = TelemetryStore(WINDOW)
        poller = SnmpPoller(
            topo, store, traffic_fn=ConstantTraffic(10_000_000),
            sanitizer=TelemetrySanitizer(),
        )
        lid = ("pod0/tor0", "pod0/agg0")
        topo.set_corruption(lid, 1e-3, Direction.UP)
        poller.run(3)
        observed = float(np.mean(column(store, lid, "corruption")))
        assert observed == pytest.approx(1e-3, rel=0.05)

        controller = CorrOptController(topo, CapacityConstraint(0.5))
        decision = controller.report_corruption(lid, observed)
        assert decision.disabled
        # Disabled links drop out of subsequent polls.
        before = len(list(store.directions()))
        poller.poll_once()
        assert len(list(store.directions())) == before


class TestScenarioReproducibility:
    def test_same_seed_same_everything(self):
        profile = DCNProfile("repro-check", 6, 6, 6, 36)
        a = make_scenario(profile=profile, scale=1.0, duration_days=20, seed=5)
        b = make_scenario(profile=profile, scale=1.0, duration_days=20, seed=5)
        ra = run_scenario(a, "corropt")
        rb = run_scenario(b, "corropt")
        assert ra.penalty_integral == rb.penalty_integral
        assert (
            ra.metrics.disabled_on_onset == rb.metrics.disabled_on_onset
        )

    def test_topology_factory_isolation(self):
        scenario = make_scenario(
            profile=DCNProfile("iso", 4, 4, 4, 16),
            scale=1.0,
            duration_days=10,
            seed=6,
            events_per_10k_links_per_day=40,
        )
        run_scenario(scenario, "corropt")
        fresh = scenario.topo_factory()
        assert not fresh.disabled_links()
        assert not fresh.corrupting_links()


class TestCapacityAccounting:
    def test_disable_decisions_sum_up(self):
        """onsets == disabled_on_onset + kept_active_on_onset."""
        scenario = make_scenario(
            profile=DCNProfile("acct", 6, 6, 6, 36),
            scale=1.0,
            duration_days=30,
            seed=7,
            events_per_10k_links_per_day=30,
        )
        result = run_scenario(scenario, "corropt")
        assert result.metrics.onsets == (
            result.metrics.disabled_on_onset
            + result.metrics.kept_active_on_onset
        )

    def test_worst_tor_consistent_with_path_counter(self):
        scenario = make_scenario(
            profile=DCNProfile("consist", 4, 4, 4, 16),
            scale=1.0,
            duration_days=10,
            seed=8,
            events_per_10k_links_per_day=40,
        )
        topo = scenario.topo_factory()
        from repro.simulation import (
            CorrOptStrategy,
            OracleSensing,
            SimulationKernel,
        )

        strategy = CorrOptStrategy(topo, scenario.constraint())
        result = SimulationKernel(
            topo,
            scenario.trace.duration_days * 86_400.0,
            OracleSensing(scenario.trace, strategy),
        ).run()
        final = min(PathCounter(topo).tor_fractions().values())
        recorded = result.metrics.worst_tor_fraction.value_at(
            scenario.trace.duration_days * 86_400.0
        )
        assert final == pytest.approx(recorded)

"""Drain-vs-disable consistency (§8): a drained link must cost exactly
what a disabled link costs, everywhere capacity or penalty is computed.

DRAINED differs from DISABLED only operationally (optics stay lit, test
traffic can verify repairs); both report ``enabled == False``, so path
counting, the capacity constraint, penalty accounting, and the optimizer
must treat them identically.  These regression tests pin that audit.
"""

from __future__ import annotations

import pytest

from repro.core.path_counting import PathCounter
from repro.simulation import make_scenario, run_scenario
from repro.topology.elements import LinkState


def _scenario():
    return make_scenario(
        scale=0.12,
        duration_days=10.0,
        seed=0,
        capacity=0.75,
        events_per_10k_links_per_day=15.0,
    )


def test_drain_and_disable_count_identically(figure10_topology):
    """Path counting sees one 'down' link either way."""
    topo = figure10_topology
    counter = PathCounter(topo)
    drained = topo.copy()
    drained_counter = PathCounter(drained)

    topo.disable_link(("T", "A"))
    drained.drain_link(("T", "A"))
    assert counter.tor_fractions() == drained_counter.tor_fractions()
    assert counter.effective_tor_fractions() == (
        drained_counter.effective_tor_fractions()
    )
    assert not drained.link(("T", "A")).enabled
    assert drained.link(("T", "A")).state is LinkState.DRAINED


def test_drained_link_has_zero_effective_capacity(figure10_topology):
    topo = figure10_topology
    before = PathCounter(topo).effective_tor_fractions()["T"]
    topo.drain_link(("T", "A"))
    assert PathCounter(topo).effective_tor_fractions()["T"] < before


def test_drain_strategy_matches_corropt_penalty_exactly():
    """Same decisions, different admin state -> identical metric series.

    DrainStrategy reuses CorrOpt's decision logic and only swaps
    ``disable_link`` for ``drain_link``; if any capacity/penalty surface
    distinguished the two states, these fingerprints would diverge.
    """
    scenario = _scenario()
    corropt = run_scenario(scenario, "corropt")
    drain = run_scenario(scenario, "drain")
    assert drain.fingerprint() == corropt.fingerprint()
    assert drain.penalty_integral == pytest.approx(corropt.penalty_integral)


def test_drain_equivalence_survives_lg_coverage():
    """LG capability flags must not skew the drain/disable equivalence:
    neither strategy protects, so effective accounting is untouched."""
    scenario = _scenario()
    corropt = run_scenario(scenario, "corropt", lg_coverage=0.9)
    drain = run_scenario(scenario, "drain", lg_coverage=0.9)
    assert drain.fingerprint() == corropt.fingerprint()
    assert corropt.metrics.lg_protections == 0
    assert drain.metrics.lg_protections == 0

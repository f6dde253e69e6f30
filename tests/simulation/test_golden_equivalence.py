"""Golden equivalence suite: the kernel refactor must not move a bit.

The unified event-driven kernel (:mod:`repro.simulation.kernel`) replaced
two independent loops — an event-driven oracle loop and a tick-based chaos
loop.  This suite pins their observable behavior, through today's two
builders (:func:`run_scenario` and :class:`ChaosSimulation`), with SHA-256
digests computed *before* the refactor (commit 329298e), so any drift in
event ordering, RNG consumption, repair scheduling, or snapshot
bookkeeping fails loudly.

Regenerate (only when a behavior change is intended and understood)::

    PYTHONPATH=src python tests/simulation/test_golden_equivalence.py --regen
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.simulation import (
    CHAOS_PRESETS,
    ChaosSimulation,
    chaos_preset,
    chaos_scenario,
    make_scenario,
    run_scenario,
)
from repro.simulation.strategies import STRATEGY_NAMES
from repro.workloads.dcn_profiles import MEDIUM_DCN

GOLDEN_PATH = Path(__file__).parent / "golden_kernel_equivalence.json"


def _digest(payload) -> str:
    """SHA-256 over a canonical-JSON rendering (tuples become lists)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def engine_digest(result) -> str:
    """Exact identity of one oracle-sensing (engine) run."""
    metrics = result.metrics
    return _digest(
        {
            "penalty": metrics.penalty.changes(),
            "worst": metrics.worst_tor_fraction.changes(),
            "average": metrics.average_tor_fraction.changes(),
            "counts": [
                metrics.onsets,
                metrics.disabled_on_onset,
                metrics.kept_active_on_onset,
                metrics.disabled_on_activation,
                metrics.repairs_completed,
                metrics.failed_repairs,
            ],
        }
    )


def chaos_digest(result) -> str:
    """Exact identity of one telemetry-sensing (chaos) run."""
    chaos = result.chaos
    return _digest(
        {
            "fingerprint": result.fingerprint(),
            "chaos": [
                chaos.polls,
                chaos.missed_polls,
                chaos.degraded_samples,
                chaos.false_disables,
                chaos.missed_mitigations,
                chaos.detections,
                chaos.detection_delay_polls,
                chaos.decisions_in_degraded_mode,
                chaos.quarantined_peak,
                chaos.quarantine_violations,
                chaos.capacity_violations,
            ],
        }
    )


# ---------------------------------------------------------------------- #
# Scenario builders (small but decision-rich; shared by test and regen)
# ---------------------------------------------------------------------- #


def _engine_scenario():
    return make_scenario(
        profile=MEDIUM_DCN,
        scale=0.12,
        duration_days=12.0,
        seed=7,
        capacity=0.75,
        events_per_10k_links_per_day=250.0,
    )


def _chaos_case():
    return chaos_scenario(scale=0.06, duration_days=1.0, seed=3)


def _run_engine(scenario, strategy_name, **kwargs):
    return run_scenario(scenario, strategy_name, seed=5, **kwargs)


def compute_all():
    """Every pinned digest, as {case-name: digest}."""
    digests = {}
    engine_scenario = _engine_scenario()
    for name in STRATEGY_NAMES:
        result = _run_engine(engine_scenario, name)
        digests[f"engine/{name}"] = engine_digest(result)
    digests["engine/corropt+pool2"] = engine_digest(
        _run_engine(engine_scenario, "corropt", technician_pool=2)
    )
    digests["engine/corropt+full-cycles"] = engine_digest(
        _run_engine(
            engine_scenario, "corropt",
            full_repair_cycles=True, repair_accuracy=0.6,
        )
    )

    scenario = _chaos_case()
    for name in sorted(CHAOS_PRESETS):
        result = ChaosSimulation(
            scenario, chaos_preset(name, seed=11), seed=3
        ).kernel.run()
        digests[f"chaos/{name}"] = chaos_digest(result)
    digests["chaos/fault-free"] = chaos_digest(
        ChaosSimulation(scenario, None, seed=3).kernel.run()
    )
    return digests


def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
# Tests
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def computed():
    return compute_all()


def test_golden_file_is_complete(computed):
    assert set(golden()) == set(computed)


@pytest.mark.parametrize("case", sorted(json.loads(
    GOLDEN_PATH.read_text(encoding="utf-8")
)) if GOLDEN_PATH.exists() else [])
def test_digest_unchanged(case, computed):
    assert computed[case] == golden()[case], (
        f"{case}: kernel behavior drifted from the pre-refactor pin; "
        "if intentional, regenerate with "
        "`python tests/simulation/test_golden_equivalence.py --regen`"
    )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to overwrite golden data without --regen")
    GOLDEN_PATH.write_text(
        json.dumps(compute_all(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")

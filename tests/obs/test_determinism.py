"""The determinism contract: instrumentation must not perturb a run.

An instrumented simulation (live :class:`ObsRecorder`) must produce
bit-identical results to the same simulation with the default
:data:`NULL_RECORDER` — same metric series, same decisions, same repair
outcomes.  Wall clock may flow out into trace files but never back in.
"""

from repro.obs import ObsRecorder, build_manifest
from repro.simulation.chaos import ChaosSimulation, chaos_preset
from repro.simulation.scenarios import chaos_scenario, run_scenario


def small_chaos(preset, obs=None):
    scenario = chaos_scenario(scale=0.06, duration_days=1.0, seed=3)
    kwargs = {"fault_config": chaos_preset(preset), "seed": 3}
    if obs is not None:
        kwargs["obs"] = obs
    return ChaosSimulation(scenario, **kwargs)


class TestChaosDeterminism:
    """Under the ``mild`` preset; :class:`TestHarshChaosDeterminism` runs
    the same tests under ``harsh``, whose quarantines the recorder
    reports."""

    preset = "mild"

    def test_instrumented_run_bit_identical(self):
        baseline = small_chaos(self.preset).kernel.run()
        obs = ObsRecorder(manifest=build_manifest("test", with_git=False))
        instrumented = small_chaos(self.preset, obs=obs).kernel.run()

        assert instrumented.fingerprint() == baseline.fingerprint()
        assert instrumented.chaos.polls == baseline.chaos.polls
        assert (
            instrumented.audit.counts == baseline.audit.counts
        ), "audit decisions diverged under instrumentation"
        # The recorder actually recorded something — the equality above is
        # meaningless if instrumentation silently no-opped.
        assert len(obs.registry) > 0
        assert len(obs.tracer.spans) > 0

    def test_two_instrumented_runs_identical(self):
        first = small_chaos(self.preset, obs=ObsRecorder()).kernel.run()
        second = small_chaos(self.preset, obs=ObsRecorder()).kernel.run()
        assert first.fingerprint() == second.fingerprint()


class TestHarshChaosDeterminism(TestChaosDeterminism):
    preset = "harsh"


class TestEngineDeterminism:
    def test_run_scenario_unperturbed(self):
        scenario = chaos_scenario(scale=0.06, duration_days=1.0, seed=5)
        baseline = run_scenario(scenario, "corropt", seed=5)
        obs = ObsRecorder()
        instrumented = run_scenario(scenario, "corropt", seed=5, obs=obs)

        assert (
            instrumented.penalty_integral == baseline.penalty_integral
        )
        assert list(instrumented.metrics.penalty.changes()) == list(
            baseline.metrics.penalty.changes()
        )
        assert instrumented.metrics.repairs_completed == (
            baseline.metrics.repairs_completed
        )
        assert len(obs.tracer.spans) > 0

"""Registry-pinning tests: the single name registry vs the live sources.

:mod:`repro.registry` is deliberately import-light, which means every
tuple in it is a *copy* of names that really live elsewhere (strategy
dict, penalty dict, preset dicts, CLI choices).  These tests pin each
copy against its defining module so a name added or removed in one place
cannot silently go missing from another, and exercise the shared
loud-rejection path every consumer routes unknown names through.
"""

import pytest

from repro import registry
from repro.registry import GROUPS, require


# --------------------------------------------------------------------- #
# Pins against the defining modules
# --------------------------------------------------------------------- #


def test_strategies_pin_strategy_names():
    from repro.simulation.strategies import STRATEGY_NAMES

    assert registry.STRATEGIES == tuple(STRATEGY_NAMES)


def test_strategy_knobs_pin_build_strategy_knobs():
    from repro.simulation.strategies import STRATEGY_KNOBS

    assert set(registry.STRATEGY_KNOBS) == set(registry.STRATEGIES)
    for name, knobs in registry.STRATEGY_KNOBS.items():
        assert knobs == frozenset(STRATEGY_KNOBS.get(name, ())), name


def test_penalties_pin_penalty_registry():
    from repro.core.penalty import PENALTY_BY_NAME

    assert registry.PENALTIES == tuple(PENALTY_BY_NAME)


def test_chaos_presets_pin_fault_presets():
    from repro.simulation.chaos import CHAOS_PRESETS

    assert registry.CHAOS_PRESETS == tuple(CHAOS_PRESETS)


def test_congestion_presets_pin_congestion_models():
    from repro.congestion.presets import CONGESTION_PRESETS

    assert registry.CONGESTION_PRESETS == tuple(CONGESTION_PRESETS)


def test_scenario_presets_pin_worker_profiles():
    from repro.parallel.worker import PRESET_PROFILES

    assert registry.SCENARIO_PRESETS == tuple(PRESET_PROFILES)


def test_sensing_pipelines_cover_chaos_dispatch():
    """Every registered pipeline must construct through ChaosSimulation."""
    from repro.simulation.chaos import ChaosSimulation
    from repro.simulation.scenarios import chaos_scenario

    scenario = chaos_scenario(scale=0.05, duration_days=0.1, seed=0)
    for name in registry.SENSING_PIPELINES:
        sim = ChaosSimulation(scenario, sensing=name)
        assert sim.pipeline is not None, name


# --------------------------------------------------------------------- #
# Pins against the downstream aliases
# --------------------------------------------------------------------- #


def test_spec_known_names_alias_registry():
    from repro.parallel import spec

    assert spec.KNOWN_STRATEGIES is registry.STRATEGIES
    assert spec.KNOWN_PENALTIES is registry.PENALTIES
    assert spec.KNOWN_PRESETS is registry.SCENARIO_PRESETS
    assert spec.KNOWN_CHAOS_PRESETS is registry.CHAOS_PRESETS
    assert spec.KNOWN_CONGESTION_PRESETS is registry.CONGESTION_PRESETS
    assert spec.KNOWN_SENSING is registry.SENSING_PIPELINES
    assert spec.KNOWN_TOPO_KINDS is registry.TOPO_KINDS
    assert spec.KNOWN_KINDS is registry.JOB_KINDS
    assert spec.KNOWN_STRATEGY_KNOBS is registry.STRATEGY_KNOBS


def test_cli_choices_alias_registry():
    from repro import cli

    assert cli.STRATEGY_CHOICES is registry.STRATEGIES
    assert cli.PENALTY_CHOICES is registry.PENALTIES
    assert cli.CONGESTION_CHOICES is registry.CONGESTION_PRESETS
    assert cli.SENSING_CHOICES is registry.SENSING_PIPELINES


def test_cli_chaos_and_topology_choices_alias_registry():
    import argparse

    from repro import cli

    assert cli.CHAOS_CHOICES is registry.CHAOS_PRESETS
    assert cli.TOPO_CHOICES is registry.TOPO_KINDS
    commands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices

    def choices(command, dest):
        (found,) = [
            action.choices for action in commands[command]._actions
            if action.dest == dest
        ]
        return found

    for command, dest in (
        ("chaos", "preset"),
        ("localize", "chaos_preset"),
        ("serve", "chaos_preset"),
    ):
        assert choices(command, dest) == list(registry.CHAOS_PRESETS)
    assert choices("topology", "kind") == list(registry.TOPO_KINDS)


def test_schema_strategy_names_alias_registry():
    from repro.obs import schema

    assert schema.SWEEP_STRATEGY_NAMES is registry.STRATEGIES


def test_schema_fleet_topo_kinds_are_the_registry():
    from repro.obs import schema

    assert schema._FLEET_DCN["topo_kind"].choices == registry.TOPO_KINDS


# --------------------------------------------------------------------- #
# Loud rejection of unknown names
# --------------------------------------------------------------------- #


def test_require_accepts_every_registered_name():
    for group, names in GROUPS.items():
        for name in names:
            assert require(group, name) == name


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_require_rejects_unknown_name(group):
    with pytest.raises(ValueError, match=f"unknown {group}"):
        require(group, "definitely-not-registered")


def test_require_rejects_unknown_group():
    with pytest.raises(ValueError, match="unknown registry group"):
        require("nonsense-group", "anything")


def test_chaos_simulation_rejects_unknown_sensing():
    from repro.simulation.chaos import ChaosSimulation
    from repro.simulation.scenarios import chaos_scenario

    scenario = chaos_scenario(scale=0.05, duration_days=0.1, seed=0)
    with pytest.raises(ValueError, match="unknown sensing"):
        ChaosSimulation(scenario, sensing="psychic")


def test_jobspec_rejects_unknown_diagnosis_axes():
    from repro.parallel.spec import JobSpec

    with pytest.raises(ValueError, match="congestion"):
        JobSpec(
            kind="chaos", chaos_preset="mild", congestion_preset="tsunami"
        ).validate()
    with pytest.raises(ValueError, match="sensing"):
        JobSpec(
            kind="chaos", chaos_preset="mild", sensing="psychic"
        ).validate()
    with pytest.raises(ValueError, match="miswire_pairs"):
        JobSpec(
            kind="chaos", chaos_preset="mild", miswire_pairs=-1
        ).validate()


def test_jobspec_rejects_diagnosis_axes_outside_chaos():
    from repro.parallel.spec import JobSpec

    with pytest.raises(ValueError, match="diagnosis axes"):
        JobSpec(kind="simulate", sensing="voting").validate()
    with pytest.raises(ValueError, match="diagnosis axes"):
        JobSpec(kind="simulate", congestion_preset="hotspots").validate()
    with pytest.raises(ValueError, match="diagnosis axes"):
        JobSpec(kind="simulate", miswire_pairs=2).validate()

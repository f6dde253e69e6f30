"""JobSpec: validation, serialisation, scenario keying."""

import dataclasses
import json
import pickle

import pytest

from repro.parallel import JobSpec
from repro.parallel.grid import GridSpec, calibration_grid, parse_int_list
from tests.specs import spec_from_dict


def test_roundtrip_through_dict_and_pickle():
    spec = JobSpec(
        preset="large",
        profile_shape=("pool-bench", 10, 10, 8, 64),
        scale=0.5,
        trace_seed=31,
        dedup_trace=False,
        strategy="drain",
        repair_seed=7,
        technician_pool=4,
        knobs=(("sleep_ms", 5.0),),
    )
    clone = spec_from_dict(spec.to_dict())
    assert clone == spec
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert json.loads(spec.canonical_json()) == json.loads(
        clone.canonical_json()
    )


@pytest.mark.parametrize(
    "bad",
    [
        dict(strategy="nope"),
        dict(penalty="nope"),
        dict(preset="tiny"),
        dict(capacity=1.5),
        dict(scale=0.0),
        dict(repair_accuracy=-0.1),
        dict(kind="nope"),
    ],
)
def test_validate_rejects_bad_fields(bad):
    with pytest.raises(ValueError):
        JobSpec(**bad).validate()


@pytest.mark.parametrize("kind", ["simulate", "chaos"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["scale", "duration_days", "events_per_10k"])
def test_validate_rejects_non_finite_run_numbers(name, value, kind):
    """NaN passes every ``<`` / ``<=`` test, and an infinite horizon or
    rate never ends a run: both are refused with the field's message."""
    preset = "mild" if kind == "chaos" else None
    spec = JobSpec(kind=kind, chaos_preset=preset, **{name: value})
    word = "events_per_10k" if name == "events_per_10k" else name.split("_")[0]
    with pytest.raises(ValueError, match=f"{word} must be .* finite"):
        spec.validate()
    JobSpec(kind=kind, chaos_preset=preset, **{name: 1.0}).validate()


def test_scenario_key_ignores_non_scenario_axes():
    """Capacity/strategy/repair knobs share one cached scenario build."""
    base = JobSpec(trace_seed=3)
    same = dataclasses.replace(
        base, capacity=0.5, strategy="none", repair_accuracy=0.5, repair_seed=9
    )
    other = dataclasses.replace(base, trace_seed=4)
    assert same.scenario_key() == base.scenario_key()
    assert other.scenario_key() != base.scenario_key()


def test_grid_expand_order_is_stable():
    grid = GridSpec(
        strategies=["corropt", "none"],
        capacities=[0.5, 0.75],
        trace_seeds=[0, 1],
    )
    specs = grid.expand()
    assert len(specs) == 8
    key = [(s.capacity, s.strategy, s.trace_seed) for s in specs]
    assert key == sorted(key, key=lambda k: (k[0], k[1] != "corropt", k[2]))
    assert specs == GridSpec.from_dict(grid.to_dict()).expand()


def test_grid_repair_seeds_must_align():
    with pytest.raises(ValueError, match="align"):
        GridSpec(trace_seeds=[0, 1], repair_seeds=[5])


def test_parse_int_list_range_and_commas():
    assert parse_int_list("0:4") == [0, 1, 2, 3]
    assert parse_int_list("3,1,7") == [3, 1, 7]


def test_calibration_grid_specs_are_distinct():
    specs = calibration_grid(4, sleep_ms=2.0)
    assert len({s.job_seed() for s in specs}) == 4

"""Properties of spec-derived job seeds (repro.parallel.spec).

The whole determinism story rests on :func:`job_seed` being a pure
function of the spec's canonical JSON — independent of worker count,
submission order, process boundaries, dict ordering, and the
interpreter's hash randomisation.  Golden values pin the derivation so an
accidental change to the canonical form (field rename, float formatting,
digest truncation) fails loudly instead of silently invalidating every
recorded sweep.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.spec import JobSpec, job_seed
from tests.specs import spec_from_dict

SPEC_STRATEGY = st.builds(
    JobSpec,
    preset=st.sampled_from(["medium", "large"]),
    scale=st.floats(0.05, 1.0, allow_nan=False),
    duration_days=st.floats(1.0, 90.0, allow_nan=False),
    trace_seed=st.integers(0, 2**31 - 1),
    events_per_10k=st.floats(0.1, 500.0, allow_nan=False),
    capacity=st.floats(0.0, 1.0, allow_nan=False),
    strategy=st.sampled_from(
        ["corropt", "fast-checker-only", "switch-local", "none", "drain"]
    ),
    repair_accuracy=st.floats(0.0, 1.0, allow_nan=False),
    track_capacity=st.booleans(),
)


@given(spec=SPEC_STRATEGY)
@settings(max_examples=200, deadline=None)
def test_seed_is_pure_function_of_spec(spec):
    assert job_seed(spec) == job_seed(spec)
    clone = spec_from_dict(spec.to_dict())
    assert job_seed(clone) == job_seed(spec)
    assert spec.job_seed() == job_seed(spec)


@given(spec=SPEC_STRATEGY)
@settings(max_examples=200, deadline=None)
def test_seed_fits_in_63_bits(spec):
    assert 0 <= job_seed(spec) < 2**63


@given(spec=SPEC_STRATEGY, data=st.data())
@settings(max_examples=200, deadline=None)
def test_distinct_specs_get_distinct_seeds(spec, data):
    """Changing any swept axis changes the seed (no seed collisions along
    grid axes, so 'same seed' can never silently alias two cells)."""
    other = dataclasses.replace(
        spec,
        trace_seed=data.draw(
            st.integers(0, 2**31 - 1).filter(lambda s: s != spec.trace_seed)
        ),
    )
    assert job_seed(other) != job_seed(spec)
    flipped = dataclasses.replace(spec, track_capacity=not spec.track_capacity)
    assert job_seed(flipped) != job_seed(spec)


def test_explicit_repair_seed_wins():
    spec = JobSpec(trace_seed=7)
    assert spec.seed_used() == job_seed(spec)
    pinned = dataclasses.replace(spec, repair_seed=123)
    assert pinned.seed_used() == 123
    # ...but the derived identity still differs (repair_seed is spec'd).
    assert job_seed(pinned) != job_seed(spec)


def test_golden_seed_values():
    """Pinned derivations: stable across Python versions and sessions.

    These values are SHA-256-derived, so they must never change unless
    the canonical JSON form changes — which is exactly the regression
    this guards against.
    """
    default = JobSpec()
    assert default.canonical_json().startswith('{"capacity":0.75')
    assert job_seed(default) == 3675713796393732532
    assert job_seed(JobSpec(trace_seed=1)) == 1694773496825475794
    assert (
        job_seed(JobSpec(preset="large", strategy="drain"))
        == 8223871942713001510
    )
    calibrate = JobSpec(kind="calibrate", knobs=(("sleep_ms", 5.0),))
    assert job_seed(calibrate) == 3333131335351139051

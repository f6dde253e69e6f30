"""Rebuild a :class:`~repro.parallel.JobSpec` from its ``to_dict`` form.

No production path reads specs back from JSON; tests use this inverse to
check that ``to_dict`` (the hashing preimage) loses nothing.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.parallel import JobSpec


def spec_from_dict(data: Dict[str, Any]) -> JobSpec:
    """Inverse of ``JobSpec.to_dict``: its lists become tuples again."""
    kwargs = dict(data)
    if kwargs.get("profile_shape") is not None:
        kwargs["profile_shape"] = tuple(kwargs["profile_shape"])
    kwargs["knobs"] = tuple(tuple(pair) for pair in kwargs.get("knobs", ()))
    return JobSpec(**kwargs)

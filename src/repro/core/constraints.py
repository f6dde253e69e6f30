"""Per-ToR capacity constraints.

§5.1: the capacity metric is "the fraction of available valley-free paths
from a top-of-rack switch to the highest stage of the network", and
"because traffic demand can differ across ToRs, we allow per-ToR
thresholds".  Realistic configurations place every ToR between 50–75%.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


class CapacityConstraint:
    """Minimum available-path fraction per ToR.

    Args:
        default: Fraction in [0, 1] required for any ToR without an explicit
            entry.
        per_tor: Optional per-ToR overrides (§5.1 heterogeneous demand).

    Example:
        >>> c = CapacityConstraint(0.75, {"hot-tor": 0.9})
        >>> c.threshold("hot-tor"), c.threshold("other")
        (0.9, 0.75)
    """

    def __init__(
        self,
        default: float = 0.75,
        per_tor: Optional[Mapping[str, float]] = None,
    ):
        if not 0.0 <= default <= 1.0:
            raise ValueError(f"default constraint {default} outside [0, 1]")
        self.default = default
        self.per_tor: Dict[str, float] = dict(per_tor or {})
        for tor, value in self.per_tor.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"constraint for {tor!r} is {value}, outside [0, 1]"
                )

    def threshold(self, tor: str) -> float:
        """The required path fraction for ``tor``."""
        return self.per_tor.get(tor, self.default)

    def satisfied_by(self, tor: str, fraction: float) -> bool:
        """Whether ``fraction`` meets ``tor``'s requirement.

        Uses a tiny epsilon so exact-boundary fractions (e.g. 0.75 against a
        75% constraint) count as satisfied despite float rounding.
        """
        return fraction >= self.threshold(tor) - 1e-12

    def floors(self, names: Sequence[str]) -> List[float]:
        """The column form of :meth:`satisfied_by`: per name, the smallest
        fraction that still satisfies it (threshold minus the epsilon)."""
        if not self.per_tor:
            return [self.default - 1e-12] * len(names)
        return [self.threshold(name) - 1e-12 for name in names]

    def violations(self, fractions: Mapping[str, float]) -> Dict[str, float]:
        """ToRs whose fraction falls below their threshold.

        Returns:
            Mapping from violating ToR to its (insufficient) fraction.
        """
        return {
            tor: frac
            for tor, frac in fractions.items()
            if not self.satisfied_by(tor, frac)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f", per_tor={len(self.per_tor)} overrides" if self.per_tor else ""
        return f"CapacityConstraint({self.default}{extra})"


def connectivity_constraint() -> CapacityConstraint:
    """A constraint requiring only that each ToR keeps *some* spine path.

    Used by the Appendix-A reduction experiments, where the requirement is
    valley-free connectivity rather than a capacity fraction.  Any positive
    path count yields a fraction strictly above zero, so an epsilon
    threshold encodes connectivity.
    """
    return CapacityConstraint(default=1e-9)

"""A3-style cable-miswiring faults: the *map* is wrong, not the link.

A3 ("Taking the Blame Game out of Data Centers Operations with
NetPoirot"-adjacent work on wiring audits; see PAPERS.md) observes that
inventory databases drift from physical reality: a patch-panel swap or a
mislabeled port leaves monitoring attributing one cable's counters to
another link.  The data plane still forwards correctly — switches do not
consult the inventory — but every counter-driven decision about an
affected link is actually about some *other* link.

:class:`MiswiringFault` models this as a seeded set of disjoint link
pairs whose telemetry attribution is swapped.  The poller reads the FCS
signature of ``physical(link)`` when it believes it is reading ``link``;
control actions (disable, repair) still hit the link they name, because
the data plane is correct.  The observable failure mode is therefore the
A3 one: corruption on link Y surfaces as counters on link X → X is
falsely disabled while Y corrupts unnoticed — unless the active-probe
cross-check in the sensing pipeline catches the disagreement and flags
both ends ``miswired``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.topology.elements import LinkId
from repro.topology.graph import Topology


@dataclass
class MiswiringFault:
    """A seeded attribution swap over disjoint link pairs.

    Attributes:
        pairs: The swapped link pairs, in sampling order.
    """

    pairs: List[Tuple[LinkId, LinkId]] = field(default_factory=list)

    def __post_init__(self):
        self._map: Dict[LinkId, LinkId] = {}
        for a, b in self.pairs:
            if a in self._map or b in self._map or a == b:
                raise ValueError(f"miswire pairs must be disjoint: {a} {b}")
            self._map[a] = b
            self._map[b] = a

    @classmethod
    def sample(
        cls, topo: Topology, num_pairs: int, seed: int = 0
    ) -> "MiswiringFault":
        """Draw ``num_pairs`` disjoint swapped pairs from the topology.

        Sampling is over the sorted link list with a dedicated
        ``random.Random(seed)``, so the fault is a pure function of
        (topology, num_pairs, seed) — byte-identical across workers.
        """
        if num_pairs < 0:
            raise ValueError("num_pairs must be non-negative")
        links = sorted(link.link_id for link in topo.links())
        if 2 * num_pairs > len(links):
            raise ValueError(
                f"{num_pairs} pairs need {2 * num_pairs} links; "
                f"topology has {len(links)}"
            )
        rng = random.Random(seed)
        chosen = rng.sample(links, 2 * num_pairs)
        pairs = [
            (chosen[2 * i], chosen[2 * i + 1]) for i in range(num_pairs)
        ]
        return cls(pairs=pairs)

    def physical(self, link_id: LinkId) -> LinkId:
        """The link whose cable is actually attached to ``link_id``'s
        monitored port (identity for unaffected links)."""
        return self._map.get(link_id, link_id)

    def affects(self, link_id: LinkId) -> bool:
        return link_id in self._map

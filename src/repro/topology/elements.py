"""Basic elements of a staged data center network topology.

The paper studies multi-tier Clos networks (§5): switches are arranged in
*stages*, with stage 0 being the top-of-rack (ToR) layer and the highest
stage being the *spine*.  Every inter-switch link connects a switch at some
stage ``s`` to a switch at stage ``s + 1``; valley-free routing goes up from
a ToR to the spine and back down.

Links are physically bidirectional but corruption is *asymmetric* (§3): the
two directions of a link corrupt independently, and mitigation disables both
directions together because "current hardware and software does not allow
unidirectional links" (§3, footnote 3).  We therefore model a link as one
row of the topology's link columns with two :class:`Direction` channels.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

#: Canonical identifier of a link: ``(lower_switch_name, upper_switch_name)``
#: where *lower* is the endpoint at the smaller stage number.
LinkId = Tuple[str, str]

#: Identifier of one direction of a link: ``(src_switch, dst_switch)``.
DirectionId = Tuple[str, str]


class Direction(enum.Enum):
    """One of the two directions of a physical link.

    ``UP`` carries traffic from the lower-stage switch toward the spine;
    ``DOWN`` carries traffic toward the ToRs.
    """

    UP = "up"
    DOWN = "down"

    def reverse(self) -> "Direction":
        """Return the opposite direction."""
        return Direction.DOWN if self is Direction.UP else Direction.UP


class LinkState(enum.Enum):
    """Administrative state of a link.

    ``ENABLED``  — carrying traffic.
    ``DISABLED`` — turned off by the mitigation system, awaiting repair.
    ``DRAINED``  — §8 extension: traffic removed (high routing cost) but the
    link stays up so optical monitoring continues and test traffic can verify
    a repair.
    """

    ENABLED = "enabled"
    DISABLED = "disabled"
    DRAINED = "drained"


@dataclass
class Switch:
    """A switch in the DCN.

    Attributes:
        name: Globally unique switch name (e.g. ``"pod0/agg2"``).
        stage: Stage index; 0 is the ToR layer, the maximum is the spine.
        pod: Optional pod label for pod-structured topologies.
        deep_buffer: Whether the switch has deep buffers.  §3 notes stages
            built from deep-buffer switches see far fewer congestion losses;
            the congestion substrate honours this flag.
        num_ports: Optional port-count bound used by validation.
    """

    name: str
    stage: int
    pod: Optional[str] = None
    deep_buffer: bool = False
    num_ports: Optional[int] = None


#: The topology column that holds each direction's corruption rate.
_RATE_COLUMNS = {Direction.UP: "rate_up", Direction.DOWN: "rate_down"}


class _Rates(Mapping):
    """``link.corruption_rate``: one row of the topology's ``rate_up`` /
    ``rate_down`` columns, keyed by :class:`Direction` (``UP`` first)."""

    __slots__ = ("_topo", "_row")

    def __init__(self, topo, row: int):
        self._topo, self._row = topo, row

    def __getitem__(self, direction: Direction) -> float:
        return getattr(self._topo, _RATE_COLUMNS[direction])[self._row]

    def __iter__(self) -> Iterator[Direction]:
        return iter(_RATE_COLUMNS)

    def __len__(self) -> int:
        return 2


def _column(name: str) -> property:
    """A :class:`Link` attribute stored in the topology column ``name``."""

    def get(self):
        return getattr(self._topo, name)[self._row]

    def set(self, value) -> None:
        getattr(self._topo, name)[self._row] = value

    return property(get, set)


class Link:
    """A physical, optical switch-to-switch link.

    A view of one row of a :class:`~repro.topology.graph.Topology`'s link
    columns, made on demand by ``topo.link()``, ``find_link()`` and
    ``links()``.  It holds no state: reading an attribute reads the
    column, setting one writes it.  A direct write bypasses the
    topology's indexes and fires no listener; the topology's mutators
    (``disable_link``, ``set_corruption``, ``protect_link``, ...) keep
    both.  Views compare by identity.

    The canonical identity orders the endpoints by stage:
    ``lower`` is at stage ``s``, ``upper`` at stage ``s + 1``.

    Attributes:
        lower: Name of the lower-stage endpoint (read-only).
        upper: Name of the upper-stage endpoint (read-only).
        state: Administrative state (see :class:`LinkState`).
        capacity_gbps: Nominal speed, used by the congestion substrate.
        breakout_group: Optional identifier of the breakout cable this link
            belongs to (§4, root cause 5: a faulty breakout cable corrupts
            all of its member links together).
        corruption_rate: Per-direction corruption loss rate, keyed by
            :class:`Direction`.  Zero when the direction is healthy.  §3:
            corruption is stable over time, so a scalar per direction is the
            natural representation; time variation comes from the fault and
            telemetry layers.
        lg_capable: Whether the port pair supports LinkGuardian-style
            link-local retransmission (SIGCOMM'23).  Capability is a
            hardware property of the port, set per scenario via
            :meth:`~repro.topology.graph.Topology.assign_lg_capable`.
        lg_protected: Whether link-local protection is currently active.
            A protected link stays ENABLED — it keeps carrying traffic —
            but corrupts at ``lg_effective_loss`` instead of its raw rate
            and delivers only ``lg_capacity_fraction`` of its capacity
            (retransmissions consume bandwidth).
        lg_effective_loss: Post-retransmission loss rate while protected.
        lg_capacity_fraction: Fraction of nominal capacity delivered
            while protected (1.0 when unprotected).
    """

    __slots__ = ("_topo", "_row")

    def __init__(self, topo, row: int):
        self._topo, self._row = topo, row

    state = _column("link_state")
    capacity_gbps = _column("capacity_gbps")
    breakout_group = _column("breakout_group")
    lg_capable = _column("lg_capable")
    lg_protected = _column("lg_protected")
    lg_effective_loss = _column("lg_effective_loss")
    lg_capacity_fraction = _column("lg_capacity_fraction")

    @property
    def lower(self) -> str:
        return self._topo.switch_names[self._topo.lower_row[self._row]]

    @property
    def upper(self) -> str:
        return self._topo.switch_names[self._topo.upper_row[self._row]]

    @property
    def corruption_rate(self) -> _Rates:
        return _Rates(self._topo, self._row)

    @property
    def link_id(self) -> LinkId:
        """Canonical ``(lower, upper)`` identifier."""
        return (self.lower, self.upper)

    @property
    def enabled(self) -> bool:
        """Whether the link carries regular traffic."""
        return self._topo.link_state[self._row] is LinkState.ENABLED

    def max_corruption_rate(self) -> float:
        """Worst corruption rate across the two directions.

        Mitigation decisions key off the worse direction because disabling
        is all-or-nothing (§3 footnote 3).
        """
        return self._topo.max_rate(self._row)

    def direction_id(self, direction: Direction) -> DirectionId:
        """The ``(src, dst)`` pair for ``direction``."""
        if direction is Direction.UP:
            return (self.lower, self.upper)
        return (self.upper, self.lower)

    def __repr__(self) -> str:
        return f"Link({self.lower!r}, {self.upper!r}, {self.state.name})"


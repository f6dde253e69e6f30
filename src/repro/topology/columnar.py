"""Columnar (numpy) topology representation and vectorized path counting.

The paper's study spans ~350K optical links across 15 DCNs (§2).  The
object :class:`~repro.topology.graph.Topology` is the right substrate for
the mitigation algorithms — per-link-row Python lists, observer hooks, an
incremental DP — but it is the wrong substrate for fleet-scale footprints:
building and recounting 350K links one Python call at a time takes
seconds to minutes.

:class:`ColumnarTopology` stores the same information as parallel numpy
arrays: switch and link identities are interned to ``int32`` indexes
(index == insertion order, so the object round-trip reproduces iteration
order exactly, which is what keeps simulations byte-identical), and every
per-element attribute (stage, pod, state, capacity, corruption rates, the
LinkGuardian fields) is one array.  The representation is

- **lossless**: ``from_topology`` → ``to_topology`` reproduces the object
  graph exactly, administrative state and LG protection included (each
  converts the topology's link columns whole, no per-link object);
- **flat**: :meth:`ColumnarTopology.arrays` exposes the whole topology as
  a dict of contiguous arrays (string tables become UTF-8 blobs plus
  offset arrays), which is the basis of the ``.npz`` binary format
  (:mod:`repro.topology.serialization`);
- **fast to build**: :meth:`ColumnarTopology.build_clos` constructs the
  paper's plane-wired Clos directly in array space — a 350K-link fleet
  member builds in well under a second instead of tens of seconds.

:class:`ColumnarPathCounter` is the valley-free DP of §5.1 as array ops:
one segment sum per stage over links pre-sorted by lower endpoint, so a
*full* recount of a 350K-link DCN costs a millisecond or two.  It answers the same queries as
:class:`~repro.core.path_counting.PathCounter` (counts, ToR fractions,
worst/average aggregates — the average in exact rational arithmetic, so
the two agree bit-for-bit) and can be bound live to an object topology
for drop-in use.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.topology.elements import LinkId, LinkState, Switch
from repro.topology.graph import Topology

#: Bumped when the array layout changes incompatibly.
COLUMNAR_FORMAT_VERSION = 1

#: ``LinkState`` interning for the ``link_state`` int8 column.
_STATE_TO_CODE = {
    LinkState.ENABLED: 0,
    LinkState.DISABLED: 1,
    LinkState.DRAINED: 2,
}
_CODE_TO_STATE = {code: state for state, code in _STATE_TO_CODE.items()}

#: The link columns a :class:`Topology` and the arrays hold alike:
#: topology column → (array field, dtype).
_SAME_COLUMNS = {
    "capacity_gbps": ("link_capacity", np.float64),
    "rate_up": ("corruption_up", np.float64),
    "rate_down": ("corruption_down", np.float64),
    "lg_capable": ("lg_capable", np.bool_),
    "lg_protected": ("lg_protected", np.bool_),
    "lg_effective_loss": ("lg_effective_loss", np.float64),
    "lg_capacity_fraction": ("lg_capacity_fraction", np.float64),
}

#: Field order of :meth:`ColumnarTopology.arrays` — fixed so digests are
#: stable.
ARRAY_FIELDS = (
    "switch_blob",
    "switch_offsets",
    "switch_stage",
    "switch_pod",
    "switch_deep_buffer",
    "switch_num_ports",
    "pod_blob",
    "pod_offsets",
    "link_lower",
    "link_upper",
    "link_state",
    "link_capacity",
    "link_breakout",
    "breakout_blob",
    "breakout_offsets",
    "corruption_up",
    "corruption_down",
    "lg_capable",
    "lg_protected",
    "lg_effective_loss",
    "lg_capacity_fraction",
)


def _encode_strings(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """UTF-8 blob + offsets encoding of a string table.

    ``offsets`` has ``len(strings) + 1`` entries; string ``i`` occupies
    ``blob[offsets[i]:offsets[i + 1]]``.
    """
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(b) for b in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def _decode_strings(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    """Inverse of :func:`_encode_strings`."""
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [
        raw[bounds[i] : bounds[i + 1]].decode("utf-8")
        for i in range(len(bounds) - 1)
    ]


class ColumnarTopology:
    """A staged DCN as parallel numpy arrays.

    Switches and links keep their object-topology insertion order: switch
    ``i`` of the arrays is the ``i``-th switch ever added, and likewise
    for links.  ``switch_pod`` / ``link_breakout`` intern their string
    labels into side tables (``-1`` means "none"); ``switch_num_ports``
    uses ``-1`` for "unspecified".

    Instances are cheap views over their arrays — construction from
    :meth:`from_arrays` (the npz load path) copies nothing.
    Treat the arrays as immutable unless you own them.
    """

    def __init__(
        self,
        name: str,
        num_stages: int,
        switch_names: List[str],
        switch_stage: np.ndarray,
        switch_pod: np.ndarray,
        switch_deep_buffer: np.ndarray,
        switch_num_ports: np.ndarray,
        pod_names: List[str],
        link_lower: np.ndarray,
        link_upper: np.ndarray,
        link_state: np.ndarray,
        link_capacity: np.ndarray,
        link_breakout: np.ndarray,
        breakout_names: List[str],
        corruption_up: np.ndarray,
        corruption_down: np.ndarray,
        lg_capable: np.ndarray,
        lg_protected: np.ndarray,
        lg_effective_loss: np.ndarray,
        lg_capacity_fraction: np.ndarray,
    ):
        self.name = name
        self.num_stages = num_stages
        self.switch_names = switch_names
        self.switch_stage = switch_stage
        self.switch_pod = switch_pod
        self.switch_deep_buffer = switch_deep_buffer
        self.switch_num_ports = switch_num_ports
        self.pod_names = pod_names
        self.link_lower = link_lower
        self.link_upper = link_upper
        self.link_state = link_state
        self.link_capacity = link_capacity
        self.link_breakout = link_breakout
        self.breakout_names = breakout_names
        self.corruption_up = corruption_up
        self.corruption_down = corruption_down
        self.lg_capable = lg_capable
        self.lg_protected = lg_protected
        self.lg_effective_loss = lg_effective_loss
        self.lg_capacity_fraction = lg_capacity_fraction
        self._link_index: Optional[Dict[LinkId, int]] = None
        self._switch_index: Optional[Dict[str, int]] = None
        self._link_keys: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def num_switches(self) -> int:
        return len(self.switch_names)

    @property
    def num_links(self) -> int:
        return int(self.link_lower.shape[0])

    def switch_index(self) -> Dict[str, int]:
        """Switch name → array index (lazily built, then memoized)."""
        if self._switch_index is None:
            self._switch_index = {
                name: i for i, name in enumerate(self.switch_names)
            }
        return self._switch_index

    def link_index(self) -> Dict[LinkId, int]:
        """Canonical link id → array index (lazily built, then memoized)."""
        if self._link_index is None:
            names = self.switch_names
            lower = self.link_lower.tolist()
            upper = self.link_upper.tolist()
            self._link_index = {
                (names[lo], names[up]): i
                for i, (lo, up) in enumerate(zip(lower, upper))
            }
        return self._link_index

    def link_rows(self, link_ids: Iterable[LinkId]) -> np.ndarray:
        """Array indexes of the given canonical link ids, in order.

        Looked up through :meth:`switch_index` and a sorted key column
        (``lower * (num_switches + 1) + upper``, one ``searchsorted`` per
        call) instead of a dict of every link id.  Raises ``KeyError``
        naming the first id that is not a link.
        """
        ids = list(link_ids)
        base = self.num_switches + 1
        if self._link_keys is None:
            keys = self.link_lower.astype(np.int64) * base + self.link_upper
            order = np.argsort(keys, kind="stable")
            # A last key no id maps to keeps every search slot readable.
            self._link_keys = (
                np.append(keys[order], base * base),
                order.astype(np.int32),
            )
        sorted_keys, order = self._link_keys
        # An unknown switch reads as index ``base - 1``, which no link has.
        switch, unknown = self.switch_index().get, base - 1
        wanted = np.array(
            [switch(lo, unknown) * base + switch(up, unknown) for lo, up in ids],
            dtype=np.int64,
        )
        slots = np.searchsorted(sorted_keys, wanted)
        missing = np.nonzero(sorted_keys[slots] != wanted)[0]
        if len(missing):
            raise KeyError(ids[int(missing[0])])
        return order[slots]

    def link_ids(self) -> List[LinkId]:
        """Canonical link ids in insertion order."""
        names = np.array(self.switch_names, dtype=object)
        return list(
            zip(
                names[self.link_lower].tolist(),
                names[self.link_upper].tolist(),
            )
        )

    def enabled_mask(self) -> np.ndarray:
        """Boolean mask of links currently carrying traffic."""
        return self.link_state == 0

    # ------------------------------------------------------------------ #
    # Object-topology round trip
    # ------------------------------------------------------------------ #

    @classmethod
    def from_topology(cls, topo: Topology) -> "ColumnarTopology":
        """Intern an object topology into arrays (lossless): its link
        columns, converted."""
        switches = list(topo.switches())
        pods = [p for p in dict.fromkeys(s.pod for s in switches) if p is not None]
        groups = [g for g in dict.fromkeys(topo.breakout_group) if g is not None]
        pod_code = {None: -1, **{pod: i for i, pod in enumerate(pods)}}
        group_code = {None: -1, **{group: i for i, group in enumerate(groups)}}
        return cls(
            name=topo.name,
            num_stages=topo.num_stages,
            switch_names=list(topo.switch_names),
            switch_stage=np.array(topo.switch_stage, dtype=np.int32),
            switch_pod=np.array(
                [pod_code[sw.pod] for sw in switches], dtype=np.int32
            ),
            switch_deep_buffer=np.array(
                [sw.deep_buffer for sw in switches], dtype=np.bool_
            ),
            switch_num_ports=np.array(
                [-1 if sw.num_ports is None else sw.num_ports for sw in switches],
                dtype=np.int32,
            ),
            pod_names=pods,
            link_lower=np.array(topo.lower_row, dtype=np.int32),
            link_upper=np.array(topo.upper_row, dtype=np.int32),
            link_state=np.array(
                list(map(_STATE_TO_CODE.__getitem__, topo.link_state)),
                dtype=np.int8,
            ),
            link_breakout=np.array(
                list(map(group_code.__getitem__, topo.breakout_group)),
                dtype=np.int32,
            ),
            breakout_names=groups,
            **{
                field: np.array(getattr(topo, column), dtype=dtype)
                for column, (field, dtype) in _SAME_COLUMNS.items()
            },
        )

    def to_topology(self) -> Topology:
        """Materialize the object topology (inverse of ``from_topology``).

        Switches and links keep their array order, so the rebuilt topology
        iterates identically to the original — the property the
        byte-identical simulation guarantees rest on.
        """
        topo = Topology(num_stages=self.num_stages, name=self.name)
        pods = self.pod_names
        for name, stage, pod, deep, ports in zip(
            self.switch_names,
            self.switch_stage.tolist(),
            self.switch_pod.tolist(),
            self.switch_deep_buffer.tolist(),
            self.switch_num_ports.tolist(),
        ):
            topo.add_switch(
                Switch(
                    name=name,
                    stage=stage,
                    pod=None if pod < 0 else pods[pod],
                    deep_buffer=deep,
                    num_ports=None if ports < 0 else ports,
                )
            )
        columns = {
            column: getattr(self, field).tolist()
            for column, (field, _dtype) in _SAME_COLUMNS.items()
        }
        columns["link_state"] = list(
            map(_CODE_TO_STATE.__getitem__, self.link_state.tolist())
        )
        groups = [None] + self.breakout_names  # code -1 reads slot 0
        columns["breakout_group"] = [
            groups[code + 1] for code in self.link_breakout.tolist()
        ]
        topo._restore_links(self.link_ids(), columns)
        return topo

    # ------------------------------------------------------------------ #
    # Direct construction (array-space Clos)
    # ------------------------------------------------------------------ #

    @classmethod
    def build_clos(
        cls,
        num_pods: int,
        tors_per_pod: int,
        aggs_per_pod: int,
        num_spines: int,
        name: str = "clos",
    ) -> "ColumnarTopology":
        """Plane-wired Clos built directly in array space.

        Produces arrays identical to
        ``from_topology(build_clos(...))`` (same switch/link order, same
        names) without materializing the object graph — the fleet-scale
        fast path: a 350K-link DCN builds in well under a second.
        """
        if min(num_pods, tors_per_pod, aggs_per_pod, num_spines) < 1:
            raise ValueError("all Clos dimensions must be >= 1")
        if num_spines % aggs_per_pod != 0:
            raise ValueError(
                f"num_spines={num_spines} must be divisible by "
                f"aggs_per_pod={aggs_per_pod} for plane wiring"
            )
        group = num_spines // aggs_per_pod
        per_pod_switches = aggs_per_pod + tors_per_pod
        num_switches = num_spines + num_pods * per_pod_switches
        per_pod_links = tors_per_pod * aggs_per_pod + aggs_per_pod * group
        num_links = num_pods * per_pod_links

        switch_names: List[str] = [f"spine{s}" for s in range(num_spines)]
        switch_stage = np.empty(num_switches, dtype=np.int32)
        switch_pod = np.empty(num_switches, dtype=np.int32)
        switch_stage[:num_spines] = 2
        switch_pod[:num_spines] = -1
        pod_names = [f"pod{p}" for p in range(num_pods)]

        lower = np.empty(num_links, dtype=np.int32)
        upper = np.empty(num_links, dtype=np.int32)

        # Per-pod wiring mirrors topology.clos.build_clos: aggs are added
        # first, then each ToR with its agg links, then agg→spine links.
        tor_agg = tors_per_pod * aggs_per_pod
        aggs = np.arange(aggs_per_pod, dtype=np.int32)
        tors = np.arange(tors_per_pod, dtype=np.int32)
        spine_targets = np.arange(num_spines, dtype=np.int32).reshape(
            aggs_per_pod, group
        )
        pod_tor_lower = np.repeat(tors, aggs_per_pod)
        pod_tor_upper = np.tile(aggs, tors_per_pod)
        pod_agg_lower = np.repeat(aggs, group)
        pod_agg_upper = spine_targets.reshape(-1)
        for pod in range(num_pods):
            base = num_spines + pod * per_pod_switches
            switch_stage[base : base + aggs_per_pod] = 1
            switch_stage[base + aggs_per_pod : base + per_pod_switches] = 0
            switch_pod[base : base + per_pod_switches] = pod
            label = pod_names[pod]
            switch_names.extend(
                f"{label}/agg{a}" for a in range(aggs_per_pod)
            )
            switch_names.extend(
                f"{label}/tor{t}" for t in range(tors_per_pod)
            )
            off = pod * per_pod_links
            lower[off : off + tor_agg] = base + aggs_per_pod + pod_tor_lower
            upper[off : off + tor_agg] = base + pod_tor_upper
            lower[off + tor_agg : off + per_pod_links] = base + pod_agg_lower
            upper[off + tor_agg : off + per_pod_links] = pod_agg_upper

        return cls(
            name=name,
            num_stages=3,
            switch_names=switch_names,
            switch_stage=switch_stage,
            switch_pod=switch_pod,
            switch_deep_buffer=np.zeros(num_switches, dtype=np.bool_),
            switch_num_ports=np.full(num_switches, -1, dtype=np.int32),
            pod_names=pod_names,
            link_lower=lower,
            link_upper=upper,
            link_state=np.zeros(num_links, dtype=np.int8),
            link_capacity=np.full(num_links, 40.0, dtype=np.float64),
            link_breakout=np.full(num_links, -1, dtype=np.int32),
            breakout_names=[],
            corruption_up=np.zeros(num_links, dtype=np.float64),
            corruption_down=np.zeros(num_links, dtype=np.float64),
            lg_capable=np.zeros(num_links, dtype=np.bool_),
            lg_protected=np.zeros(num_links, dtype=np.bool_),
            lg_effective_loss=np.zeros(num_links, dtype=np.float64),
            lg_capacity_fraction=np.ones(num_links, dtype=np.float64),
        )

    # ------------------------------------------------------------------ #
    # Flat-array form (npz)
    # ------------------------------------------------------------------ #

    def arrays(self) -> Dict[str, np.ndarray]:
        """The whole topology as contiguous arrays, :data:`ARRAY_FIELDS` order.

        String tables become UTF-8 blobs + int64 offsets; scalars
        (``name``, ``num_stages``) are *not* included — callers carry them
        in their own metadata (the npz ``meta`` entry).
        """
        switch_blob, switch_offsets = _encode_strings(self.switch_names)
        pod_blob, pod_offsets = _encode_strings(self.pod_names)
        breakout_blob, breakout_offsets = _encode_strings(self.breakout_names)
        out = {
            "switch_blob": switch_blob,
            "switch_offsets": switch_offsets,
            "switch_stage": self.switch_stage,
            "switch_pod": self.switch_pod,
            "switch_deep_buffer": self.switch_deep_buffer,
            "switch_num_ports": self.switch_num_ports,
            "pod_blob": pod_blob,
            "pod_offsets": pod_offsets,
            "link_lower": self.link_lower,
            "link_upper": self.link_upper,
            "link_state": self.link_state,
            "link_capacity": self.link_capacity,
            "link_breakout": self.link_breakout,
            "breakout_blob": breakout_blob,
            "breakout_offsets": breakout_offsets,
            "corruption_up": self.corruption_up,
            "corruption_down": self.corruption_down,
            "lg_capable": self.lg_capable,
            "lg_protected": self.lg_protected,
            "lg_effective_loss": self.lg_effective_loss,
            "lg_capacity_fraction": self.lg_capacity_fraction,
        }
        return {field: out[field] for field in ARRAY_FIELDS}

    @classmethod
    def from_arrays(
        cls, name: str, num_stages: int, arrays: Dict[str, np.ndarray]
    ) -> "ColumnarTopology":
        """Rebuild from :meth:`arrays` output (zero-copy where possible)."""
        missing = [f for f in ARRAY_FIELDS if f not in arrays]
        if missing:
            raise ValueError(f"missing columnar fields: {missing}")
        return cls(
            name=name,
            num_stages=num_stages,
            switch_names=_decode_strings(
                arrays["switch_blob"], arrays["switch_offsets"]
            ),
            switch_stage=np.asarray(arrays["switch_stage"], dtype=np.int32),
            switch_pod=np.asarray(arrays["switch_pod"], dtype=np.int32),
            switch_deep_buffer=np.asarray(
                arrays["switch_deep_buffer"], dtype=np.bool_
            ),
            switch_num_ports=np.asarray(
                arrays["switch_num_ports"], dtype=np.int32
            ),
            pod_names=_decode_strings(
                arrays["pod_blob"], arrays["pod_offsets"]
            ),
            link_lower=np.asarray(arrays["link_lower"], dtype=np.int32),
            link_upper=np.asarray(arrays["link_upper"], dtype=np.int32),
            link_state=np.asarray(arrays["link_state"], dtype=np.int8),
            link_capacity=np.asarray(
                arrays["link_capacity"], dtype=np.float64
            ),
            link_breakout=np.asarray(arrays["link_breakout"], dtype=np.int32),
            breakout_names=_decode_strings(
                arrays["breakout_blob"], arrays["breakout_offsets"]
            ),
            corruption_up=np.asarray(
                arrays["corruption_up"], dtype=np.float64
            ),
            corruption_down=np.asarray(
                arrays["corruption_down"], dtype=np.float64
            ),
            lg_capable=np.asarray(arrays["lg_capable"], dtype=np.bool_),
            lg_protected=np.asarray(arrays["lg_protected"], dtype=np.bool_),
            lg_effective_loss=np.asarray(
                arrays["lg_effective_loss"], dtype=np.float64
            ),
            lg_capacity_fraction=np.asarray(
                arrays["lg_capacity_fraction"], dtype=np.float64
            ),
        )

    def digest(self) -> str:
        """SHA-256 over the canonical array encoding (content identity).

        Two columnar topologies with equal digests decode to identical
        object topologies.
        """
        h = hashlib.sha256()
        h.update(
            f"columnar:{COLUMNAR_FORMAT_VERSION}:{self.name}:"
            f"{self.num_stages}".encode("utf-8")
        )
        for field, array in self.arrays().items():
            h.update(field.encode("utf-8"))
            h.update(np.ascontiguousarray(array).tobytes())
        return "sha256:" + h.hexdigest()


class ColumnarPathCounter:
    """Valley-free ToR-to-spine path counting as vectorized array ops.

    The same DP as :class:`~repro.core.path_counting.PathCounter` (§5.1),
    but one segment sum per stage over int64 arrays: a full recount of a
    350K-link Clos is a millisecond or two, so fleet-scale consumers
    recount instead of maintaining dirty regions.

    Construct from a :class:`ColumnarTopology` (the fleet path), or
    bind live to an object topology with :meth:`for_topology` — the
    counter then tracks administrative flips by updating its state column
    in place, which is what lets the object-counter equivalence suites
    run both implementations side by side.
    """

    def __init__(self, col: ColumnarTopology):
        self._col = col
        self._state = col.link_state.copy()
        self._topo: Optional[Topology] = None
        self._rebuild_structure()

    @classmethod
    def for_topology(cls, topo: Topology) -> "ColumnarPathCounter":
        """Bind to a live object topology (admin changes tracked)."""
        counter = cls(ColumnarTopology.from_topology(topo))
        counter._topo = topo
        topo.subscribe_admin_changes(counter._on_admin_change)
        topo.subscribe_structure_changes(counter._on_structure_change)
        return counter

    def detach(self) -> None:
        """Unsubscribe from a live topology (no-op for array-only use)."""
        if self._topo is not None:
            self._topo.unsubscribe_admin_changes(self._on_admin_change)
            self._topo.unsubscribe_structure_changes(
                self._on_structure_change
            )
            self._topo = None

    # ------------------------------------------------------------------ #
    # Live-binding notifications
    # ------------------------------------------------------------------ #

    def _on_admin_change(self, link_id: LinkId) -> None:
        # Bound columns keep the topology's link rows (a structure change
        # re-interns them).
        row = self._topo.link_row[link_id]
        self._state[row] = _STATE_TO_CODE[self._topo.link_state[row]]
        self._live_cache = None

    def notify_link_change(self, link_id: LinkId) -> None:
        """Tell a live-bound counter a link's state was mutated directly."""
        if self._topo is not None:
            self._on_admin_change(link_id)

    def _on_structure_change(self) -> None:
        topo = self._topo
        self._col = ColumnarTopology.from_topology(topo)
        self._state = self._col.link_state.copy()
        self._rebuild_structure()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def _rebuild_structure(self) -> None:
        col = self._col
        top = col.num_stages - 1
        self._top = top
        # Links sorted by the stage of their lower endpoint, then by that
        # endpoint: pass ``s`` of the DP folds stage-``s+1`` counts down into
        # stage ``s`` with one segment sum per lower endpoint.  A link's
        # slot is its place in that order; per stage: (first slot, upper
        # endpoints, segment starts, the lower endpoint of each segment).
        lower_stage = col.switch_stage[col.link_lower]
        order = np.lexsort((col.link_lower, lower_stage))
        self._slot = np.empty(len(order), dtype=np.int32)
        self._slot[order] = np.arange(len(order), dtype=np.int32)
        bounds = np.searchsorted(lower_stage[order], np.arange(top + 1))
        self._stage_links: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for first, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            links = order[first:end]
            lowers = col.link_lower[links]
            starts = np.nonzero(np.diff(lowers, prepend=-1))[0]
            # (intp: an int32 index array is converted on every use.)
            self._stage_links.append(
                (
                    first,
                    col.link_upper[links].astype(np.intp),
                    starts,
                    lowers[starts].astype(np.intp),
                )
            )
        self._tor_indexes = np.nonzero(col.switch_stage == 0)[0]
        self._spine_indexes = np.nonzero(col.switch_stage == top)[0]
        self._baseline = self._count(None)
        self._live_cache: Optional[np.ndarray] = None

    @property
    def columnar(self) -> ColumnarTopology:
        return self._col

    # ------------------------------------------------------------------ #
    # DP kernel
    # ------------------------------------------------------------------ #

    def _count(self, enabled: Optional[np.ndarray]) -> np.ndarray:
        """One full DP pass.  ``enabled=None`` counts the pristine design."""
        col = self._col
        counts = np.zeros(col.num_switches, dtype=np.int64)
        counts[self._spine_indexes] = 1
        # Slots of the links that are off, sorted: each stage zeroes its own.
        off = None if enabled is None else np.sort(self._slot[~enabled])
        for first, uppers, starts, lowers in reversed(self._stage_links):
            if not len(uppers):
                continue
            paths = counts[uppers]
            if off is not None:
                mine = np.searchsorted(off, (first, first + len(uppers)))
                paths[off[mine[0] : mine[1]] - first] = 0
            counts[lowers] = np.add.reduceat(paths, starts)
        return counts

    def _live_counts(self) -> np.ndarray:
        if self._live_cache is None:
            self._live_cache = self._count(self._state == 0)
        return self._live_cache

    def _counts_for(
        self, extra_disabled: Optional[Iterable[LinkId]]
    ) -> np.ndarray:
        if not extra_disabled:
            return self._live_counts()
        enabled = self._state == 0
        enabled[self._col.link_rows(extra_disabled)] = False
        return self._count(enabled)

    # ------------------------------------------------------------------ #
    # Public API (PathCounter-compatible surface)
    # ------------------------------------------------------------------ #

    def baseline_array(self) -> np.ndarray:
        """Design path counts by switch index (treat as read-only)."""
        return self._baseline

    def baseline(self) -> Dict[str, int]:
        """Design path counts (all links enabled) for every switch."""
        return dict(
            zip(self._col.switch_names, self._baseline.tolist())
        )

    def baseline_for(self, switch: str) -> int:
        return int(self._baseline[self._col.switch_index()[switch]])

    def counts_array(
        self, extra_disabled: Optional[Iterable[LinkId]] = None
    ) -> np.ndarray:
        """Current path counts by switch index."""
        return self._counts_for(extra_disabled)

    def counts(
        self, extra_disabled: Optional[Iterable[LinkId]] = None
    ) -> Dict[str, int]:
        """Current path counts, optionally with extra hypothetical disables."""
        counts = self._counts_for(extra_disabled)
        return dict(zip(self._col.switch_names, counts.tolist()))

    def tor_fraction_array(
        self, extra_disabled: Optional[Iterable[LinkId]] = None
    ) -> np.ndarray:
        """ToR path fractions in ToR (stage-0 insertion) order."""
        counts = self._counts_for(extra_disabled)[self._tor_indexes]
        bases = self._baseline[self._tor_indexes]
        out = np.zeros(len(self._tor_indexes), dtype=np.float64)
        np.divide(counts, bases, out=out, where=bases > 0)
        return out

    def tor_fractions(
        self,
        extra_disabled: Optional[Iterable[LinkId]] = None,
        tors: Optional[Iterable[str]] = None,
    ) -> Dict[str, float]:
        """Available path fraction (current / design) per ToR."""
        fractions = self.tor_fraction_array(extra_disabled)
        names = [self._col.switch_names[i] for i in self._tor_indexes.tolist()]
        result = dict(zip(names, fractions.tolist()))
        if tors is None:
            return result
        return {tor: result[tor] for tor in tors}

    def worst_tor_fraction(self) -> float:
        """Minimum ToR path fraction (the Figures 15–16 metric)."""
        if not len(self._tor_indexes):
            return 1.0
        return float(self.tor_fraction_array().min())

    def average_tor_fraction(self) -> float:
        """Mean ToR path fraction, bit-identical to the object counter.

        :class:`PathCounter` keeps the running sum as exact
        :class:`fractions.Fraction`; matching it requires exact rational
        arithmetic here too.  ToRs are grouped by their (few distinct)
        baseline denominators, counts are summed per group as integers,
        and only the handful of per-group fractions touch ``Fraction``.
        """
        num_tors = len(self._tor_indexes)
        if not num_tors:
            return 1.0
        counts = self._counts_for(None)[self._tor_indexes]
        bases = self._baseline[self._tor_indexes]
        uniques, inverse = np.unique(bases, return_inverse=True)
        sums = np.zeros(len(uniques), dtype=np.int64)
        np.add.at(sums, inverse, counts)
        fracsum = Fraction(0)
        for total, base in zip(sums.tolist(), uniques.tolist()):
            if base:
                fracsum += Fraction(total, base)
        return float(fracsum / num_tors)

    def affected_tors(self, link_id: LinkId) -> Set[str]:
        """ToRs downstream of ``link_id`` over currently enabled links."""
        col = self._col
        index = col.link_rows((link_id,))[0]
        lower = int(col.link_lower[index])
        if int(col.switch_stage[lower]) == 0:
            return {col.switch_names[lower]}
        enabled = self._state == 0
        frontier = np.array([lower], dtype=np.int64)
        seen = np.zeros(col.num_switches, dtype=np.bool_)
        seen[lower] = True
        while len(frontier):
            member = np.isin(col.link_upper, frontier) & enabled
            below = np.unique(col.link_lower[member])
            below = below[~seen[below]]
            seen[below] = True
            frontier = below
        tors = np.nonzero(seen & (col.switch_stage == 0))[0]
        return {col.switch_names[i] for i in tors.tolist()}

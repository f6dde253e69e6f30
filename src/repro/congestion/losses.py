"""Congestion loss generation over a topology.

Assigns traffic profiles to link directions with *strong spatial locality*:
congestion clusters inside hotspot pods (rack-level incast keeps losses on
the pod's ToR–aggregation links) plus a few hot aggregation switches.  §3 /
Figure 4: congested links touch only ~20% of the switches a random spread
would, while corruption touches ~80%.

The model is a table with one row per direction, numbered as the poller's
direction table (:meth:`~repro.topology.graph.Topology.direction_row`) and
drawn when the direction is first asked about: profile parameters, AR(1)
noise state, draw count, line-rate packets per second and queue depth K are
numpy columns, and every drawn row has its own ``random.Random(seed)``
stream.  ``CongestionModel.traffic``
answers a whole poll tick from the columns, reading each row's stream
:data:`BLOCK_TICKS` ticks at a time; ``utilization`` / ``loss_rate`` are the
per-call form of the same process, on the same state (DESIGN.md §16).
"""

from __future__ import annotations

import math
import random
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congestion.queueing import (
    DEEP_BUFFER_K,
    SHALLOW_BUFFER_K,
    congestion_loss_rate,
    congestion_loss_rows,
)
from repro.congestion.traffic import (
    DAY_S, TrafficProfile, elementwise, gauss_pairs, profile_parameters,
)
from repro.streams import fast_forward, random_doubles
from repro.telemetry.columns import grow
from repro.topology.elements import Direction, DirectionId
from repro.topology.graph import Topology


#: Fields of :class:`TrafficProfile` the table keeps as columns.
_PROFILE_FIELDS = tuple(
    f.name for f in fields(TrafficProfile) if f.name != "_rng"
)
#: Every column and its dtype.
_COLUMNS = tuple(
    (name, np.int64 if name in ("seed", "_samples") else np.float64)
    for name in _PROFILE_FIELDS
) + (("line_pps", np.float64), ("buffer_k", np.int64))
#: Ticks a row's stream yields at once: even, so a block starts on a
#: Gaussian pair.  Each tick pair reads ``[u1, u2, burst, burst]``.
BLOCK_TICKS = 16
#: Derived from the columns, left out of checkpoints.
_DERIVED = ("_streams", "_gauss", "_cached", "_burst", "_cursor")


class CongestionModel:
    """Per-direction utilization and congestion loss over a topology.

    Args:
        topo: Topology to cover.
        seed: RNG seed.
        hotspot_pod_fraction: Fraction of pods designated hotspots; the
            ToR–aggregation links inside a hot pod are congested.  This is
            the dominant mechanism and the source of congestion's strong
            locality.
        hotspot_switch_fraction: Additionally, this fraction of non-ToR
            switches become hot (their uplinks congest) — a secondary
            mechanism that also covers topologies without pod labels.
        bidirectional_hot_probability: Chance a hot link is hot in both
            directions (§3, Figure 5b: 72.7% of congested links lose
            packets in both directions).
    """

    def __init__(
        self,
        topo: Topology,
        seed: int = 0,
        hotspot_pod_fraction: float = 0.12,
        hotspot_switch_fraction: float = 0.02,
        bidirectional_hot_probability: float = 0.75,
    ):
        for name, value in (
            ("hotspot_pod_fraction", hotspot_pod_fraction),
            ("hotspot_switch_fraction", hotspot_switch_fraction),
        ):
            if not 0 <= value <= 1:
                raise ValueError(f"{name} {value} outside [0, 1]")
        self._topo = topo
        self._rng = random.Random(seed)
        self.bidirectional_hot_probability = bidirectional_hot_probability
        self.hotspot_pods: Set[str] = set()
        self.hotspot_switches: Set[str] = set()
        self._hot_directions: Set[DirectionId] = set()
        self._pick_hotspots(hotspot_pod_fraction, hotspot_switch_fraction)
        self._assign_hot_directions()
        # The table: parameters, noise state and logical draw count, and
        # whether the row is drawn yet.
        self._columns: Dict[str, np.ndarray] = {
            name: np.zeros(0, dtype=dtype) for name, dtype in _COLUMNS
        }
        self._drawn = np.zeros(0, dtype=bool)
        self._empty_blocks()

    def _empty_blocks(self, rows: int = 0) -> None:
        """Per row: its stream (``None`` until drawn) and the block it
        has read ahead — each tick's ``gauss`` return value and burst flag,
        each pair's cached variate, the cursor (``BLOCK_TICKS``: nothing
        buffered)."""
        self._streams: List[Optional[random.Random]] = [None] * rows
        self._gauss = np.zeros((rows, BLOCK_TICKS))
        self._cached = np.zeros((rows, BLOCK_TICKS // 2))
        self._burst = np.zeros((rows, BLOCK_TICKS), dtype=bool)
        self._cursor = np.full(rows, BLOCK_TICKS, dtype=np.int64)

    def _pick_hotspots(
        self, pod_fraction: float, switch_fraction: float
    ) -> None:
        pods = sorted(
            {sw.pod for sw in self._topo.switches() if sw.pod is not None}
        )
        if pods and pod_fraction > 0:
            count = max(1, round(len(pods) * pod_fraction))
            self.hotspot_pods = set(self._rng.sample(pods, min(count, len(pods))))
        non_tor = sorted(
            sw.name
            for sw in self._topo.switches()
            if sw.stage > 0 and self._topo.uplinks(sw.name)
        )
        if non_tor and switch_fraction > 0:
            count = max(1, round(len(non_tor) * switch_fraction))
            self.hotspot_switches = set(
                self._rng.sample(non_tor, min(count, len(non_tor)))
            )

    def _mark_hot(self, link) -> None:
        up = link.direction_id(Direction.UP)
        down = link.direction_id(Direction.DOWN)
        primary = up if self._rng.random() < 0.5 else down
        self._hot_directions.add(primary)
        if self._rng.random() < self.bidirectional_hot_probability:
            self._hot_directions.add(down if primary == up else up)

    def _assign_hot_directions(self) -> None:
        for link in self._topo.links():
            lower = self._topo.switch(link.lower)
            upper = self._topo.switch(link.upper)
            in_hot_pod = (
                lower.pod is not None
                and lower.pod in self.hotspot_pods
                and upper.pod == lower.pod
            )
            on_hot_switch = link.lower in self.hotspot_switches
            if in_hot_pod or on_hot_switch:
                self._mark_hot(link)

    # ------------------------------------------------------------------ #

    def is_hot(self, direction_id: DirectionId) -> bool:
        """Whether this direction rides a hotspot."""
        return direction_id in self._hot_directions

    def utilization(self, direction_id: DirectionId, time_s: float) -> float:
        """Utilization sample for a direction at ``time_s``: one
        :meth:`TrafficProfile.utilization` step on the row's stream, put
        back at its logical position first."""
        row = self._topo.direction_row(direction_id)
        self._draw_new(np.array([row]))
        profile = TrafficProfile.__new__(TrafficProfile)
        vars(profile).update(self._values(row), _rng=self._detach(row))
        util = profile.utilization(time_s)
        self._columns["_noise_state"][row] = profile._noise_state
        self._columns["_samples"][row] = profile._samples
        return util

    def loss_rate(self, direction_id: DirectionId, utilization: float) -> float:
        """Congestion loss rate given a utilization sample.

        Honors the deep-buffer flag of the *egress* switch (losses happen
        at the sender's output queue).
        """
        return congestion_loss_rate(
            utilization, deep_buffer=self._deep_buffer(direction_id)
        )

    def _deep_buffer(self, direction_id: DirectionId) -> bool:
        src = direction_id[0]
        return self._topo.has_switch(src) and self._topo.switch(src).deep_buffer

    # The table --------------------------------------------------------- #

    def _draw_new(self, rows: np.ndarray) -> None:
        """Draw the rows among ``rows`` not drawn yet, in the order given:
        each direction's parameters from the model's ``_rng``, straight
        into the columns, and its stream."""
        self._fit()
        new = rows[~self._drawn[rows]].tolist()
        if not new:
            return
        topo = self._topo
        direction_ids = [topo.row_direction(row) for row in new]
        drawn = [
            profile_parameters(self._rng, hot=did in self._hot_directions)
            for did in direction_ids
        ]
        values = list(zip(*drawn)) + [
            [0.0] * len(new),  # _noise_state
            [0] * len(new),  # _samples
            [topo.capacity_gbps[row >> 1] * 1e9 / 8.0 / 1000.0 for row in new],
            [DEEP_BUFFER_K if self._deep_buffer(did) else SHALLOW_BUFFER_K
             for did in direction_ids],
        ]
        for (name, dtype), column in zip(_COLUMNS, values):
            self._columns[name][new] = np.array(column, dtype=dtype)
        self._drawn[new] = True
        for row, params in zip(new, drawn):
            self._streams[row] = random.Random(params[-1])

    def _fit(self) -> None:
        """Undrawn rows, with no stream and nothing buffered, for the
        directions of the topology without one (at the first tick, and
        after the topology grows)."""
        size = 2 * self._topo.num_links
        count = size - len(self._drawn)
        if count <= 0:
            return
        self._drawn = grow(self._drawn, size)
        for name in self._columns:
            self._columns[name] = grow(self._columns[name], size)
        self._streams.extend([None] * count)
        for name, fill in (
            ("_gauss", 0.0), ("_cached", 0.0), ("_burst", False),
            ("_cursor", BLOCK_TICKS),
        ):
            block = getattr(self, name)
            empty = np.full((count,) + block.shape[1:], fill, block.dtype)
            setattr(self, name, np.concatenate([block, empty]))

    def _values(self, row: int) -> Dict[str, float]:
        """A row's :class:`TrafficProfile` fields."""
        return {name: self._columns[name].item(row) for name in _PROFILE_FIELDS}

    # The draws --------------------------------------------------------- #

    def _gauss_next(self, rows: Sequence[int]) -> List[Optional[float]]:
        """The cached Gaussian of each row at its logical position: the
        block's mid-pair variate where the cursor is odd, else the
        stream's (a block starts and ends on a pair boundary)."""
        out = [self._streams[row].gauss_next for row in rows]
        cursor = self._cursor[rows]
        for i in np.flatnonzero(cursor % 2).tolist():
            out[i] = self._cached.item(rows[i], cursor[i] // 2)
        return out

    def _detach(self, row: int) -> random.Random:
        """The row's stream at its logical position, its block dropped (a
        fresh stream, fast-forwarded): what a per-call draw steps."""
        if self._cursor[row] < BLOCK_TICKS:
            stream = random.Random(self._columns["seed"].item(row))
            samples = self._columns["_samples"].item(row)
            fast_forward(stream, samples, self._gauss_next([row])[0])
            self._streams[row] = stream
            self._cursor[row] = BLOCK_TICKS
        return self._streams[row]

    def _refill(self, rows: np.ndarray) -> None:
        """The next ``BLOCK_TICKS`` ticks of each row's stream into its
        block, one ``getrandbits`` per row; the rows stand on a pair
        boundary with nothing buffered."""
        if not len(rows):
            return
        count, pairs, columns = len(rows), BLOCK_TICKS // 2, self._columns
        streams = [self._streams[row] for row in rows.tolist()]
        draws = random_doubles(streams, 4 * pairs).reshape(count, pairs, 4)
        first, second, cached = gauss_pairs(
            draws[..., 0], draws[..., 1], columns["noise_sigma"][rows, None]
        )
        self._gauss[rows] = np.stack([first, second], axis=2).reshape(count, -1)
        self._cached[rows] = cached
        burst = draws[..., 2:] < columns["burst_probability"][rows, None, None]
        self._burst[rows] = burst.reshape(count, -1)
        self._cursor[rows] = 0

    def _carry(self, rows: np.ndarray) -> None:
        """Rows on an odd draw count with nothing buffered (restored from
        a checkpoint, or stepped per call) draw this tick per call, as a
        one-tick block: ``gauss`` returns the pair's cached second."""
        for row in rows.tolist():
            stream = self._streams[row]
            sigma = self._columns["noise_sigma"].item(row)
            self._gauss[row, -1] = stream.gauss(0.0, sigma)
            self._burst[row, -1] = (
                stream.random() < self._columns["burst_probability"].item(row)
            )
        self._cursor[rows] = BLOCK_TICKS - 1

    def _draws(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """This tick's Gaussian and burst flag of each row, from its block
        (refilled first where nothing is buffered); advances the cursors."""
        empty = rows[self._cursor[rows] == BLOCK_TICKS]
        if len(empty):
            odd = self._columns["_samples"][empty] % 2 == 1
            self._carry(empty[odd])
            self._refill(empty[~odd])
        cursor = self._cursor[rows]
        self._cursor[rows] = cursor + 1
        return self._gauss[rows, cursor], self._burst[rows, cursor]

    def traffic(
        self, rows: np.ndarray, time_s: float, interval_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One poll tick for the distinct direction ``rows`` (the poller's
        table rows): the packets each offered over the ``interval_s``
        ending at ``time_s`` (1000-byte packets, int64) and its queue loss
        rate.

        Entry ``i`` equals ``int(line_rate_packets * u)`` and
        ``loss_rate(did, u)`` for ``u = utilization(did, time_s)``, ``did``
        the direction of ``rows[i]``, bit for bit, and leaves the
        direction at the logical position that call would: draws come
        from its own stream, read ahead in blocks, transcendentals from
        ``math`` (numpy's are not bit-identical to libm on every host), the
        rest runs on the columns.  Line rate and queue depth are those of
        the direction's first call.
        """
        self._draw_new(rows)
        columns = self._columns

        def column(name: str) -> np.ndarray:
            return columns[name][rows]

        gauss, burst = self._draws(rows)
        angle = 2.0 * math.pi * (time_s - column("phase_s")) / DAY_S
        diurnal = column("amplitude") * elementwise(math.sin, angle)
        noise = column("noise_rho") * column("_noise_state") + gauss
        columns["_noise_state"][rows] = noise
        columns["_samples"][rows] += 1
        util = column("mean") + diurnal + noise
        util = np.where(burst, util + column("burst_boost"), util)
        util = np.clip(util, 0.0, 1.0)
        packets = (column("line_pps") * interval_s * util).astype(np.int64)
        return packets, congestion_loss_rows(util, column("buffer_k"))

    # Checkpoints ------------------------------------------------------- #

    def __getstate__(self):
        """The table without its streams and blocks: a row's seed, logical
        draw count and logical cached Gaussian determine its stream."""
        state = self.__dict__.copy()
        for name in _DERIVED:
            del state[name]
        state["gauss_next"] = self._gauss_next(
            np.flatnonzero(self._drawn).tolist()
        )
        return state

    def __setstate__(self, state):
        cached = state.pop("gauss_next")
        self.__dict__.update(state)
        self._empty_blocks(len(self._drawn))
        seeds, samples = self._columns["seed"], self._columns["_samples"]
        drawn = np.flatnonzero(self._drawn).tolist()
        for row, gauss_next in zip(drawn, cached):
            stream = self._streams[row] = random.Random(seeds.item(row))
            fast_forward(stream, samples.item(row), gauss_next)

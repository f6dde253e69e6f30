"""Congestion loss generation over a topology.

Assigns traffic profiles to link directions with *strong spatial locality*:
congestion clusters inside hotspot pods (rack-level incast keeps losses on
the pod's ToR–aggregation links) plus a few hot aggregation switches.  §3 /
Figure 4: congested links touch only ~20% of the switches a random spread
would, while corruption touches ~80%.

The model is a table with one row per direction, created when the direction
is first asked about: profile parameters, AR(1) noise state, draw count,
line-rate packets per second and queue depth K are numpy columns, and every
row has its own ``random.Random(seed)`` stream.  ``CongestionModel.traffic``
answers a whole poll tick from the columns; ``utilization`` / ``loss_rate``
are the per-call form of the same process, on the same state (DESIGN.md §16).
"""

from __future__ import annotations

import math
import random
from dataclasses import fields
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.congestion.queueing import (
    DEEP_BUFFER_K,
    SHALLOW_BUFFER_K,
    congestion_loss_rate,
    congestion_loss_rows,
)
from repro.congestion.traffic import DAY_S, TrafficProfile, sample_profile
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
        # The table.  `_profiles[row]` carries the row's stream (`_rng`);
        # `_columns` its parameters, noise state and draw count.
        self._row_of: Dict[DirectionId, int] = {}
        self._profiles: List[TrafficProfile] = []
        self._columns: Dict[str, np.ndarray] = {
            name: np.zeros(0, dtype=dtype) for name, dtype in _COLUMNS
        }

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

    def hot_directions(self) -> List[DirectionId]:
        return sorted(self._hot_directions)

    def profile(self, direction_id: DirectionId) -> TrafficProfile:
        """The traffic profile of a direction, at its row's current state
        and on its stream; draw through :meth:`utilization`, which keeps
        the row's columns current."""
        row = int(self._rows([direction_id])[0])
        profile = self._profiles[row]
        profile._noise_state = self._columns["_noise_state"].item(row)
        profile._samples = self._columns["_samples"].item(row)
        return profile

    def utilization(self, direction_id: DirectionId, time_s: float) -> float:
        """Utilization sample for a direction at ``time_s``."""
        profile = self.profile(direction_id)
        row = self._row_of[direction_id]
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

    def _rows(self, direction_ids: Sequence[DirectionId]) -> np.ndarray:
        """Row numbers of ``direction_ids``; a new direction gets its row
        now, in the order given, its parameters drawn from the model's
        ``_rng``."""
        row_of = self._row_of
        try:
            return np.array(
                [row_of[did] for did in direction_ids], dtype=np.int64
            )
        except KeyError:
            pass
        new = [did for did in dict.fromkeys(direction_ids) if did not in row_of]
        # Looked up first: an unknown direction raises with nothing changed.
        links = [self._topo.find_link(*did) for did in new]
        created = []
        for did, link in zip(new, links):
            row_of[did] = len(row_of)
            profile = sample_profile(self._rng, hot=self.is_hot(did))
            self._profiles.append(profile)
            created.append(
                [getattr(profile, name) for name in _PROFILE_FIELDS]
                + [
                    link.capacity_gbps * 1e9 / 8.0 / 1000.0,
                    DEEP_BUFFER_K if self._deep_buffer(did)
                    else SHALLOW_BUFFER_K,
                ]
            )
        for (name, dtype), values in zip(_COLUMNS, zip(*created)):
            self._columns[name] = np.concatenate(
                [self._columns[name], np.array(values, dtype=dtype)]
            )
        return self._rows(direction_ids)

    def traffic(
        self,
        direction_ids: Sequence[DirectionId],
        time_s: float,
        interval_s: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One poll tick for distinct ``direction_ids``: the packets each
        offered over the ``interval_s`` ending at ``time_s`` (1000-byte
        packets, int64) and its queue loss rate.

        Entry ``i`` equals ``int(line_rate_packets * u)`` and
        ``loss_rate(direction_ids[i], u)`` for ``u =
        utilization(direction_ids[i], time_s)``, bit for bit, and leaves
        the direction's stream where that call would: draws come from its
        own stream, transcendentals from ``math`` (numpy's are not
        bit-identical to libm on every host), the rest runs on the columns.
        Line rate and queue depth are those of the direction's first call.
        """
        rows = self._rows(direction_ids)
        columns = self._columns

        def column(name: str) -> np.ndarray:
            return columns[name][rows]

        streams = [self._profiles[row]._rng for row in rows.tolist()]
        gauss = np.array([
            rng.gauss(0.0, sigma)
            for rng, sigma in zip(streams, column("noise_sigma").tolist())
        ])
        uniform = np.array([rng.random() for rng in streams])
        angle = 2.0 * math.pi * (time_s - column("phase_s")) / DAY_S
        diurnal = column("amplitude") * np.array(
            list(map(math.sin, angle.tolist()))
        )
        noise = column("noise_rho") * column("_noise_state") + gauss
        columns["_noise_state"][rows] = noise
        columns["_samples"][rows] += 1
        util = column("mean") + diurnal + noise
        burst = uniform < column("burst_probability")
        util = np.where(burst, util + column("burst_boost"), util)
        util = np.clip(util, 0.0, 1.0)
        packets = (column("line_pps") * interval_s * util).astype(np.int64)
        return packets, congestion_loss_rows(util, column("buffer_k"))

    # Checkpoints ------------------------------------------------------- #

    def __getstate__(self):
        """The table without its 625-word generator states: a row's seed,
        draw count and cached Gaussian determine its stream."""
        state = self.__dict__.copy()
        del state["_profiles"]
        state["gauss_next"] = [p._rng.gauss_next for p in self._profiles]
        return state

    def __setstate__(self, state):
        cached = state.pop("gauss_next")
        self.__dict__.update(state)
        columns = [self._columns[name].tolist() for name in _PROFILE_FIELDS]
        self._profiles = []
        for gauss_next, *values in zip(cached, *columns):
            # What unpickling a TrafficProfile does.
            profile = TrafficProfile.__new__(TrafficProfile)
            profile.__setstate__(
                dict(zip(_PROFILE_FIELDS, values), gauss_next=gauss_next)
            )
            self._profiles.append(profile)

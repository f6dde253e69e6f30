"""The :class:`Topology` container: a staged multi-tier DCN graph.

This is the substrate every CorrOpt algorithm operates on.  It keeps

- switches grouped by stage (stage 0 = ToR, highest stage = spine),
- links in canonical ``(lower, upper)`` form,
- uplink/downlink adjacency for O(1) neighborhood queries, and
- the state of every link (administrative state, corruption rates, the
  LinkGuardian fields) in one list per field, indexed by link row.

The class deliberately exposes *sets of disabled links* rather than mutating
structure, so the optimizer can evaluate hypothetical disable-sets cheaply.
"""

from __future__ import annotations

import hashlib
from itertools import compress, repeat
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.topology.elements import (
    Direction,
    DirectionId,
    Link,
    LinkId,
    LinkState,
    Switch,
)

#: The derived tables of a :class:`Topology` (see ``_build_rows``).
_ROW_TABLES = (
    "switch_row", "switch_names", "switch_stage", "up_rows", "down_rows",
    "up_disabled", "lower_row", "upper_row", "_stages", "_uplinks",
    "_downlinks", "_tors_below", "_rows_shared",
)

#: The per-link columns, lists indexed by link row: the only store of link
#: state (a :class:`Link` is a view of one row).  ``link_state`` holds
#: :class:`LinkState` members, ``rate_up`` / ``rate_down`` the corruption
#: loss rate of each direction; the rest are the ``Link`` fields so named.
LINK_COLUMNS = (
    "link_state", "rate_up", "rate_down", "capacity_gbps", "breakout_group",
    "lg_capable", "lg_protected", "lg_effective_loss", "lg_capacity_fraction",
)


class Topology:
    """A staged, multi-tier data center network.

    Example:
        >>> topo = Topology(num_stages=3)
        >>> topo.add_switch(Switch("t0", stage=0))
        >>> topo.add_switch(Switch("a0", stage=1))
        >>> topo.add_switch(Switch("s0", stage=2))
        >>> topo.add_links([("t0", "a0"), ("s0", "a0")])
        [('t0', 'a0'), ('a0', 's0')]
        >>> topo.num_links
        2
    """

    def __init__(self, num_stages: int, name: str = "dcn"):
        if num_stages < 2:
            raise ValueError("a DCN needs at least a ToR stage and a spine stage")
        self.name = name
        self.num_stages = num_stages
        self._switches: Dict[str, Switch] = {}
        for column in LINK_COLUMNS:
            setattr(self, column, [])
        # Observers.  Admin listeners fire whenever a link's *effective*
        # enabled-ness flips (enable/disable/drain through the methods
        # below); structure listeners fire on add_switch/add_links.  This is
        # what lets PathCounter maintain its DP incrementally instead of
        # recounting the topology on every query.
        self._admin_listeners: List[Callable[[LinkId], None]] = []
        self._structure_listeners: List[Callable[[], None]] = []
        # LinkGuardian bookkeeping.  ``_lg_version`` bumps whenever any
        # link's protection status or capability changes, so consumers
        # (PathCounter's effective-capacity DP) can memoize against it the
        # same way they memoize against admin-state versions.
        self._lg_version = 0
        self._lg_protected: Set[LinkId] = set()
        # Live indexes, so the per-decision and per-poll queries below cost
        # O(#matching links) instead of a walk over every Link: links with
        # a non-zero corruption rate in either direction (any admin state)
        # and links not ENABLED.  Kept by the mutators of this class;
        # writing a column (or ``link.state`` / ``link.corruption_rate``)
        # directly bypasses them.
        self._corrupting: Set[LinkId] = set()
        self._disabled: Set[LinkId] = set()
        self._build_rows(())

    # ------------------------------------------------------------------ #
    # Interned rows
    # ------------------------------------------------------------------ #

    def _build_rows(self, link_ids: Iterable[LinkId]) -> None:
        """(Re)build the row tables: switch / link row ``i`` is the ``i``-th
        switch / link added (``link_ids`` in row order).

        Append-only, indexed by row, read-only to everyone else: what the
        decision path (path counter, fast checker, optimizer, segmentation)
        walks instead of names.  Derived from ``_switches``, ``link_row``
        and ``link_state``, so left out of pickles.
        """
        self.switch_row: Dict[str, int] = {}
        self.switch_names: List[str] = []
        self.switch_stage: List[int] = []
        self._stages: List[List[str]] = [[] for _ in range(self.num_stages)]
        self._uplinks: Dict[str, List[LinkId]] = {}
        self._downlinks: Dict[str, List[LinkId]] = {}
        #: Per switch row: link rows of its uplinks / downlinks.
        self.up_rows: List[List[int]] = []
        self.down_rows: List[List[int]] = []
        #: Per switch row: how many of its uplinks are not ENABLED.
        self.up_disabled: List[int] = []
        self.link_row: Dict[LinkId, int] = {}
        #: Per link row: switch row of its lower / upper endpoint.
        self.lower_row: List[int] = []
        self.upper_row: List[int] = []
        self._tors_below: Dict[int, FrozenSet[int]] = {}
        #: Whether the per-switch lists above are shared with a copy.
        self._rows_shared = False
        for switch in self._switches.values():
            self._intern_switch(switch)
        self._intern_links(link_ids)
        for row, state in enumerate(self.link_state):
            if state is not LinkState.ENABLED:
                self.up_disabled[self.lower_row[row]] += 1

    def _intern_switch(self, switch: Switch) -> None:
        self.switch_row[switch.name] = len(self.switch_names)
        self.switch_names.append(switch.name)
        self.switch_stage.append(switch.stage)
        self._stages[switch.stage].append(switch.name)
        self._uplinks[switch.name] = []
        self._downlinks[switch.name] = []
        self.up_rows.append([])
        self.down_rows.append([])
        self.up_disabled.append(0)

    def _intern_links(self, pairs: Iterable[LinkId]) -> List[LinkId]:
        """Intern ``pairs`` as the next link rows and return their
        canonical ids, all or none, with the checks of :meth:`add_links`
        (the link columns are the caller's)."""
        row_of, stage = self.switch_row, self.switch_stage
        link_ids, lowers, uppers = [], [], []
        for pair in pairs:
            a, b = pair
            lower, upper = row_of[a], row_of[b]
            sa, sb = stage[lower], stage[upper]
            if sa + 1 != sb:
                if sb + 1 != sa:
                    raise ValueError(
                        f"link {a!r} (stage {sa}) -- {b!r} (stage {sb}) does "
                        "not connect adjacent stages; Clos links must span "
                        "exactly one stage"
                    )
                pair, lower, upper = (b, a), upper, lower
            link_ids.append(pair)
            lowers.append(lower)
            uppers.append(upper)
        link_row, first = self.link_row, len(self.lower_row)
        for row, link_id in enumerate(link_ids, first):
            if link_row.setdefault(link_id, row) != row:
                for added in link_ids[: row - first]:
                    del link_row[added]
                raise ValueError(f"duplicate link {link_id}")
        self._own_rows()
        self.lower_row += lowers
        self.upper_row += uppers
        up_rows, down_rows = self.up_rows, self.down_rows
        uplinks, downlinks = self._uplinks, self._downlinks
        for link_id, lower, upper in zip(link_ids, lowers, uppers):
            row = link_row[link_id]  # the int link_row holds, not a copy
            up_rows[lower].append(row)
            down_rows[upper].append(row)
            uplinks[link_id[0]].append(link_id)
            downlinks[link_id[1]].append(link_id)
        self._tors_below.clear()
        return link_ids

    def _own_rows(self) -> None:
        """Unshare the per-switch lists ``copy`` shared, before growing."""
        if self._rows_shared:
            self._stages = [list(names) for names in self._stages]
            self._uplinks = {n: list(ids) for n, ids in self._uplinks.items()}
            self._downlinks = {n: list(ids) for n, ids in self._downlinks.items()}
            self.up_rows = [list(rows) for rows in self.up_rows]
            self.down_rows = [list(rows) for rows in self.down_rows]
            self._rows_shared = False

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for table in _ROW_TABLES:
            del state[table]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_rows(list(self.link_row))

    def _restore_links(
        self, link_ids: Sequence[LinkId], columns: Dict[str, Sequence[Any]]
    ) -> None:
        """Load saved links, in row order, with their saved columns into a
        topology that has its switches and no link yet (the
        deserializers): interns them as ``add_links`` does, rebuilds the
        indexes, fires no listener.  Refuses, before touching any table,
        columns of another length, links out of ``(lower, upper)`` order,
        and the values ``set_corruption`` and ``protect_link`` refuse."""
        if any(len(columns[name]) != len(link_ids) for name in LINK_COLUMNS):
            raise ValueError("saved link columns differ in length from the links")
        stage, row_of = self.switch_stage, self.switch_row
        for link_id, up, down, loss, fraction in zip(
            link_ids, columns["rate_up"], columns["rate_down"],
            columns["lg_effective_loss"], columns["lg_capacity_fraction"],
        ):
            if not (0 <= up <= 1 and 0 <= down <= 1 and 0 <= loss <= 1
                    and 0 < fraction <= 1):
                raise ValueError(
                    f"saved link {link_id}: corruption rates {up}, {down} "
                    f"outside [0, 1], or LinkGuardian loss {loss} outside "
                    f"[0, 1] or capacity fraction {fraction} outside (0, 1]"
                )
            if stage[row_of[link_id[0]]] > stage[row_of[link_id[1]]]:
                raise ValueError(f"saved link {link_id} is not (lower, upper)")
        ids = self._intern_links(link_ids)
        for name in LINK_COLUMNS:
            setattr(self, name, list(columns[name]))
        states, up, down = self.link_state, self.rate_up, self.rate_down
        enabled = LinkState.ENABLED
        self._disabled = {lid for lid, s in zip(ids, states) if s is not enabled}
        for link_id in self._disabled:
            self.up_disabled[row_of[link_id[0]]] += 1
        self._corrupting = {lid for lid, u, d in zip(ids, up, down) if u or d}
        self._lg_protected = set(compress(ids, self.lg_protected))
        self._lg_version += 1

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_switch(self, switch: Switch) -> None:
        """Add a switch; its stage must fit within ``num_stages``."""
        if switch.name in self._switches:
            raise ValueError(f"duplicate switch {switch.name!r}")
        if not 0 <= switch.stage < self.num_stages:
            raise ValueError(
                f"switch {switch.name!r} stage {switch.stage} outside "
                f"[0, {self.num_stages})"
            )
        self._switches[switch.name] = switch
        self._own_rows()
        self._intern_switch(switch)
        self._notify_structure()

    def add_links(
        self,
        pairs: Iterable[LinkId],
        capacity_gbps: float = 40.0,
        breakout_group: Optional[str] = None,
    ) -> List[LinkId]:
        """Add links between switches at adjacent stages (endpoints in
        either order) in one pass, all or none, and return their canonical
        :data:`LinkId` in row order.  Every pair is checked first: an
        unknown switch raises ``KeyError``; non-adjacent stages, or a
        duplicate of a link or within ``pairs``, raise ``ValueError``.
        Fires one structure notification."""
        link_ids = self._intern_links(pairs)
        # One value per LINK_COLUMNS entry: enabled, healthy, unprotected.
        new = (LinkState.ENABLED, 0.0, 0.0, capacity_gbps, breakout_group,
               False, False, 0.0, 1.0)
        for name, value in zip(LINK_COLUMNS, new):
            getattr(self, name).extend(repeat(value, len(link_ids)))
        self._notify_structure()
        return link_ids

    def add_link(
        self,
        a: str,
        b: str,
        capacity_gbps: float = 40.0,
        breakout_group: Optional[str] = None,
    ) -> LinkId:
        """Add one link (see :meth:`add_links`); returns its canonical id."""
        return self.add_links([(a, b)], capacity_gbps, breakout_group)[0]

    # ------------------------------------------------------------------ #
    # Observers
    # ------------------------------------------------------------------ #

    def subscribe_admin_changes(
        self, callback: Callable[[LinkId], None]
    ) -> None:
        """Register ``callback(link_id)`` for effective link-state flips.

        The callback fires *after* the state change, and only when the
        link's ``enabled`` property actually flipped (e.g. DISABLED →
        DRAINED does not fire).  :class:`~repro.core.path_counting.PathCounter`
        uses this to keep its path counts live.
        """
        self._admin_listeners.append(callback)

    def unsubscribe_admin_changes(
        self, callback: Callable[[LinkId], None]
    ) -> None:
        """Remove a previously registered admin-change callback."""
        if callback in self._admin_listeners:
            self._admin_listeners.remove(callback)

    def subscribe_structure_changes(self, callback: Callable[[], None]) -> None:
        """Register ``callback()`` for switch/link additions."""
        self._structure_listeners.append(callback)

    def unsubscribe_structure_changes(
        self, callback: Callable[[], None]
    ) -> None:
        """Remove a previously registered structure-change callback."""
        if callback in self._structure_listeners:
            self._structure_listeners.remove(callback)

    def _notify_admin(self, link_id: LinkId) -> None:
        for callback in list(self._admin_listeners):
            callback(link_id)

    def _notify_structure(self) -> None:
        if self._structure_listeners:
            for callback in list(self._structure_listeners):
                callback()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    @property
    def num_switches(self) -> int:
        return len(self._switches)

    @property
    def num_links(self) -> int:
        return len(self.link_row)

    def switch(self, name: str) -> Switch:
        """Look up a switch by name."""
        return self._switches[name]

    def has_switch(self, name: str) -> bool:
        return name in self._switches

    def link(self, link_id: LinkId) -> Link:
        """A view of the link with canonical id ``link_id``."""
        return Link(self, self.link_row[link_id])

    def find_link(self, a: str, b: str) -> Link:
        """A view of the link between ``a`` and ``b``, in either order."""
        row = self.link_row.get((a, b))
        return Link(self, self.link_row[(b, a)] if row is None else row)

    def direction_row(self, direction_id: DirectionId) -> int:
        """The row of a link direction in per-direction tables:
        ``2 * link_row``, plus one for the down direction.  ``KeyError``
        when no link joins the two switches."""
        row = self.link_row.get(direction_id)
        if row is not None:
            return 2 * row
        return 2 * self.link_row[direction_id[::-1]] + 1

    def row_direction(self, row: int) -> DirectionId:
        """The link direction of a per-direction row (what
        :meth:`direction_row` undoes)."""
        link = Link(self, row >> 1)
        return link.direction_id(Direction.DOWN if row & 1 else Direction.UP)

    def switches(self) -> Iterator[Switch]:
        """Iterate over all switches."""
        return iter(self._switches.values())

    def links(self) -> Iterator[Link]:
        """Iterate over views of all links, in row order."""
        return (Link(self, row) for row in range(len(self.link_row)))

    def link_ids(self) -> Iterator[LinkId]:
        return iter(self.link_row)

    def stage(self, index: int) -> List[str]:
        """Names of switches at stage ``index``."""
        return list(self._stages[index])

    def tors(self) -> List[str]:
        """Names of all top-of-rack switches (stage 0)."""
        return list(self._stages[0])

    def spines(self) -> List[str]:
        """Names of all spine switches (highest stage)."""
        return list(self._stages[-1])

    def uplinks(self, switch: str) -> List[LinkId]:
        """Link ids whose lower endpoint is ``switch``."""
        return list(self._uplinks[switch])

    def enabled_uplinks(self, switch: str) -> List[LinkId]:
        """Enabled uplink ids of ``switch``."""
        return [lid for lid in self._uplinks[switch] if self.link(lid).enabled]

    def switch_links(self, switch: str) -> List[LinkId]:
        """All link ids (up and down) attached to ``switch``."""
        return self._uplinks[switch] + self._downlinks[switch]

    def tiers_above_tor(self) -> int:
        """Number of link tiers between the ToR stage and the spine.

        This is the ``r`` of §5.1: a switch-local checker needs to keep
        ``c ** (1 / r)`` of each switch's uplinks alive to guarantee a
        ToR-to-spine path fraction of ``c``.
        """
        return self.num_stages - 1

    # ------------------------------------------------------------------ #
    # Administrative state
    # ------------------------------------------------------------------ #

    def _set_link_state(self, link_id: LinkId, state: LinkState) -> None:
        row = self.link_row[link_id]
        old = self.link_state[row]
        if old is state:
            return
        self.link_state[row] = state
        enabled = state is LinkState.ENABLED
        if enabled != (old is LinkState.ENABLED):
            lower = self.lower_row[row]
            if enabled:
                self._disabled.discard(link_id)
                self.up_disabled[lower] -= 1
            else:
                self._disabled.add(link_id)
                self.up_disabled[lower] += 1
            self._notify_admin(link_id)

    def disable_link(self, link_id: LinkId) -> None:
        """Administratively disable a link (both directions; §3 fn. 3)."""
        self._set_link_state(link_id, LinkState.DISABLED)

    def enable_link(self, link_id: LinkId) -> None:
        """Re-enable a link after repair."""
        self._set_link_state(link_id, LinkState.ENABLED)

    def drain_link(self, link_id: LinkId) -> None:
        """§8 extension: remove traffic without turning the link off."""
        self._set_link_state(link_id, LinkState.DRAINED)

    def disabled_links(self) -> Set[LinkId]:
        """Ids of links not currently carrying traffic."""
        return set(self._disabled)

    def corrupting_links(self, threshold: float = 1e-8) -> List[LinkId]:
        """Ids of *enabled* links corrupting above ``threshold``.

        These are the candidates the fast checker and optimizer reason
        about: disabled links are already mitigated.  Answered from the
        indexes (links with a non-zero rate, minus links not carrying
        traffic), in link-row (insertion) order.
        """
        link_row, rate = self.link_row, self.max_rate
        if threshold > 0:
            pool = self._corrupting - self._disabled
            rows = sorted((link_row[lid], lid) for lid in pool)
            return [lid for row, lid in rows if rate(row) >= threshold]
        # A threshold of zero (or below) also matches healthy links.
        state = self.link_state
        return [
            lid
            for lid, row in link_row.items()
            if state[row] is LinkState.ENABLED and rate(row) >= threshold
        ]

    def max_rate(self, row: int) -> float:
        """``Link.max_corruption_rate`` of link row ``row``."""
        return max(self.rate_up[row], self.rate_down[row])

    def links_with_corruption(self) -> Set[LinkId]:
        """Ids of links with a non-zero corruption rate in either
        direction, whatever their admin state (a live view: do not
        mutate, and do not hold across topology changes)."""
        return self._corrupting

    def set_corruption(
        self, link_id: LinkId, rate: float, direction: Direction = Direction.UP
    ) -> None:
        """Set the corruption loss rate of one direction of a link."""
        if not 0.0 <= rate <= 1.0:  # NaN too
            raise ValueError(
                f"link {link_id}: corruption rate {rate} outside [0, 1]"
            )
        row = self.link_row[link_id]
        mine, other = self.rate_up, self.rate_down
        if direction is Direction.DOWN:
            mine, other = other, mine
        mine[row] = rate
        if rate != 0 or other[row] != 0:
            self._corrupting.add(link_id)
        else:
            self._corrupting.discard(link_id)

    def clear_corruption(self, link_id: LinkId) -> None:
        """Mark both directions of a link healthy (post-repair).

        Also drops any LinkGuardian protection: a healthy link has nothing
        to mask, so the invariant *protected ⟹ corrupting* holds.
        """
        row = self.link_row[link_id]
        self.rate_up[row] = self.rate_down[row] = 0.0
        self._corrupting.discard(link_id)
        if self.lg_protected[row]:
            self.unprotect_link(link_id)

    # ------------------------------------------------------------------ #
    # LinkGuardian protection (SIGCOMM'23 rival strategy)
    # ------------------------------------------------------------------ #

    @property
    def lg_version(self) -> int:
        """Monotone counter bumped on any LG capability/protection change."""
        return self._lg_version

    def assign_lg_capable(self, coverage: float, salt: int = 0) -> int:
        """Mark a deterministic ``coverage`` fraction of links LG-capable.

        Capability is decided per link from a hash of its endpoint names
        (plus ``salt``), so the flagged set is independent of iteration
        order, stable across topology copies, and monotone in ``coverage``
        (raising coverage only adds links).  Re-assigning resets all
        capability flags first, so the call is idempotent.

        Returns:
            The number of links flagged capable.
        """
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"lg coverage {coverage} outside [0, 1]")
        count = 0
        for link_id, row in self.link_row.items():
            token = f"lg:{salt}:{link_id[0]}|{link_id[1]}".encode("utf-8")
            digest = hashlib.sha256(token).digest()
            bucket = int.from_bytes(digest[:8], "big") / 2.0**64
            self.lg_capable[row] = capable = bucket < coverage
            if capable:
                count += 1
            elif self.lg_protected[row]:
                self.unprotect_link(link_id)
        self._lg_version += 1
        return count

    def protect_link(
        self, link_id: LinkId, effective_loss: float, capacity_fraction: float
    ) -> None:
        """Activate LinkGuardian protection on an LG-capable, enabled link.

        The link stays ENABLED — no admin notification fires and the
        binary path-count DP is untouched — but its effective loss rate
        and effective capacity change.
        """
        row = self.link_row[link_id]
        if not self.lg_capable[row]:
            raise ValueError(f"link {link_id} is not LG-capable")
        if self.link_state[row] is not LinkState.ENABLED:
            raise ValueError(f"link {link_id} is not enabled")
        if not 0.0 <= effective_loss <= 1.0:
            raise ValueError(f"effective loss {effective_loss} outside [0, 1]")
        if not 0.0 < capacity_fraction <= 1.0:
            raise ValueError(
                f"capacity fraction {capacity_fraction} outside (0, 1]"
            )
        self.lg_protected[row] = True
        self.lg_effective_loss[row] = effective_loss
        self.lg_capacity_fraction[row] = capacity_fraction
        self._lg_protected.add(link_id)
        self._lg_version += 1

    def unprotect_link(self, link_id: LinkId) -> None:
        """Deactivate LinkGuardian protection (no-op if not protected)."""
        row = self.link_row[link_id]
        if not self.lg_protected[row]:
            return
        self.lg_protected[row] = False
        self.lg_effective_loss[row] = 0.0
        self.lg_capacity_fraction[row] = 1.0
        self._lg_protected.discard(link_id)
        self._lg_version += 1

    def has_lg_protection(self) -> bool:
        """Whether any link is under protection (without copying the set)."""
        return bool(self._lg_protected)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #

    def downstream_switches(
        self, switch: str, disabled: Optional[Set[LinkId]] = None
    ) -> Set[str]:
        """All switches reachable going *down* from ``switch`` (inclusive).

        Args:
            switch: Starting switch.
            disabled: Extra links to treat as disabled during traversal, on
                top of administratively disabled ones.

        Used by the fast checker to find the ToRs whose path counts a
        hypothetical disable could affect.  Traversal crosses only enabled
        links: a ToR below a disabled link is unaffected by changes above it
        through that link.
        """
        disabled = disabled or set()
        row, state = self.link_row, self.link_state
        seen = {switch}
        frontier = [switch]
        while frontier:
            current = frontier.pop()
            for lid in self._downlinks[current]:
                if lid in disabled or state[row[lid]] is not LinkState.ENABLED:
                    continue
                below = lid[0]
                if below not in seen:
                    seen.add(below)
                    frontier.append(below)
        return seen

    def downstream_tors(
        self, switch: str, disabled: Optional[Set[LinkId]] = None
    ) -> Set[str]:
        """ToRs reachable going down from ``switch`` over enabled links."""
        return {
            name
            for name in self.downstream_switches(switch, disabled)
            if self._switches[name].stage == 0
        }

    def upstream_links(self, tors: Iterable[str]) -> Set[LinkId]:
        """All links on any up-path from the given ToRs to the spine.

        This is the "upstream of V" set of the optimizer's pruning step
        (§5.1, Figure 11): only disabling links in this set can affect the
        path counts of the ToRs in ``tors``.  Traversal ignores
        administrative state so that pruning stays valid regardless of what
        is currently disabled.
        """
        links: Set[LinkId] = set()
        seen: Set[str] = set()
        frontier = list(dict.fromkeys(tors))
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for lid in self._uplinks[current]:
                links.add(lid)
                above = lid[1]
                if above not in seen:
                    seen.add(above)
                    frontier.append(above)
        return links

    def tor_rows_below(self, switch_row: int) -> FrozenSet[int]:
        """Rows of the ToRs structurally below a switch row (inclusive).

        The dual of :meth:`upstream_links` (a link is upstream of a ToR
        exactly when the ToR is below its lower endpoint), and like it blind
        to administrative state; memoised per switch until a link is added.
        """
        cached = self._tors_below.get(switch_row)
        if cached is None:
            down, lower = self.down_rows, self.lower_row
            seen = {switch_row}
            frontier = [switch_row]
            while frontier:
                for link in down[frontier.pop()]:
                    below = lower[link]
                    if below not in seen:
                        seen.add(below)
                        frontier.append(below)
            stage = self.switch_stage
            cached = frozenset(row for row in seen if stage[row] == 0)
            self._tors_below[switch_row] = cached
        return cached

    def breakout_members(self, group: str) -> List[LinkId]:
        """Link ids belonging to breakout-cable ``group``."""
        return [
            lid
            for lid, member in zip(self.link_row, self.breakout_group)
            if member == group
        ]

    # ------------------------------------------------------------------ #
    # Copies
    # ------------------------------------------------------------------ #

    def copy(self) -> "Topology":
        """Deep copy (administrative state and corruption included).

        Copies every column and table directly, one list per link column
        and none per link or switch row (no listener is carried over).
        The per-switch lists are shared until either side adds a switch
        or link; nothing else mutable is.
        """
        clone = Topology(self.num_stages, name=self.name)
        clone._switches = {
            name: Switch(sw.name, sw.stage, sw.pod, sw.deep_buffer, sw.num_ports)
            for name, sw in self._switches.items()
        }
        for name in LINK_COLUMNS:
            setattr(clone, name, list(getattr(self, name)))
        clone._stages = list(self._stages)
        clone._uplinks = dict(self._uplinks)
        clone._downlinks = dict(self._downlinks)
        clone.up_rows, clone.down_rows = list(self.up_rows), list(self.down_rows)
        self._rows_shared = clone._rows_shared = True
        clone._lg_protected = set(self._lg_protected)
        clone._corrupting = set(self._corrupting)
        clone._disabled = set(self._disabled)
        clone.switch_row, clone.link_row = dict(self.switch_row), dict(self.link_row)
        clone.switch_names = list(self.switch_names)
        clone.switch_stage = list(self.switch_stage)
        clone.up_disabled = list(self.up_disabled)
        clone.lower_row, clone.upper_row = list(self.lower_row), list(self.upper_row)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, stages={self.num_stages}, "
            f"switches={self.num_switches}, links={self.num_links})"
        )

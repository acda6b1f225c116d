"""Home assignment for pages and locks, with failure reconfiguration.

Every shared page has a *primary home* chosen by the application at
allocation time (paper section 4.2); the extended protocol adds a
*secondary home*, "initially the node immediately following the primary
home in node order". Locks are distributed round-robin and get the same
primary/secondary treatment.

After a failure the mapping is recomputed by walking the node ring and
skipping dead nodes -- a pure function of (original hint, failed set),
so every live node derives the identical new map independently, and the
two replicas of any page or lock are guaranteed to sit on distinct
nodes under any sequence of (non-simultaneous) failures (section 4.5.1).

Recovery's re-replication phase may *override* the ring for secondary
homes and checkpoint backups (:meth:`HomeMap.reassign_secondary` and
friends): the ring piles every replica the dead node hosted onto its
successor, while an election can spread that load over all survivors.
Overrides are part of the deterministic map state -- they are installed
by the (deterministic) recovery coordinator, bump the epoch like an
exclusion does, are cloned by :meth:`HomeMap.copy`, and are pruned
automatically when a later exclusion invalidates them (target died, or
the ring moved the primary onto the override target).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.errors import ProtocolError, UnrecoverableFailure


class HomeMap:
    """Deterministic page/lock home directory shared by all nodes.

    Each node holds its own copy; :meth:`exclude` is called with the
    same failed node on every live node, keeping the copies identical
    without communication.
    """

    def __init__(self, num_nodes: int, page_hint: Dict[int, int],
                 num_locks: int) -> None:
        if num_nodes < 1:
            raise ProtocolError("need at least one node")
        self.num_nodes = num_nodes
        self.num_locks = num_locks
        # Kept by reference: the address space registers hints as the
        # application allocates segments, and the map sees them live.
        self._page_hint = page_hint
        self._failed: set[int] = set()
        #: Re-replication overrides (page/lock -> secondary, ward ->
        #: backup). Absent keys fall back to the ring walk.
        self._secondary_override: Dict[int, int] = {}
        self._lock_secondary_override: Dict[int, int] = {}
        self._backup_override: Dict[int, int] = {}
        #: Reconfiguration epoch: bumped on every exclusion and every
        #: re-replication override, so auditors can tell which map
        #: generation routed a message.
        self.epoch = 0

    # -- ring walking ---------------------------------------------------------

    def _next_live(self, start: int) -> int:
        """First live node at or after ``start`` in ring order."""
        for step in range(self.num_nodes):
            node = (start + step) % self.num_nodes
            if node not in self._failed:
                return node
        raise UnrecoverableFailure("all nodes have failed")

    def live_count(self) -> int:
        return self.num_nodes - len(self._failed)

    @property
    def failed(self) -> FrozenSet[int]:
        return frozenset(self._failed)

    def exclude(self, node: int) -> None:
        """Mark ``node`` dead and remap everything it was hosting."""
        if not 0 <= node < self.num_nodes:
            raise ProtocolError(f"no node {node}")
        self._failed.add(node)
        self.epoch += 1
        if self.live_count() < 2:
            raise UnrecoverableFailure(
                "fewer than two live nodes remain: replication impossible")
        self._prune_overrides()

    def _prune_overrides(self) -> None:
        """Drop overrides the new failed set invalidates: a dead
        target, or a ring primary that moved onto the override target
        (the replicas would coincide). Pruned entries fall back to the
        ring, and the recovery of whichever node broke them re-elects;
        the lost-replica scan compares against the *pre-exclusion* map
        copy, so a pruned page still shows up as needing a secondary."""
        for page in list(self._secondary_override):
            target = self._secondary_override[page]
            if target in self._failed or target == self.primary_home(page):
                del self._secondary_override[page]
        for lock_id in list(self._lock_secondary_override):
            target = self._lock_secondary_override[lock_id]
            if target in self._failed \
                    or target == self.lock_primary(lock_id):
                del self._lock_secondary_override[lock_id]
        for ward in list(self._backup_override):
            if ward in self._failed \
                    or self._backup_override[ward] in self._failed:
                del self._backup_override[ward]

    # -- re-replication overrides ---------------------------------------------

    def _check_reassign(self, kind: str, target: int,
                        primary: int) -> None:
        if not 0 <= target < self.num_nodes:
            raise ProtocolError(f"no node {target}")
        if target in self._failed:
            raise ProtocolError(
                f"cannot place {kind} replica on dead node {target}")
        if target == primary:
            raise ProtocolError(
                f"{kind} replica must not share node {primary} with "
                f"its primary")

    def reassign_secondary(self, page_id: int, target: int) -> None:
        """Elect ``target`` as ``page_id``'s secondary home."""
        self._check_reassign("page", target, self.primary_home(page_id))
        self._secondary_override[page_id] = target
        self.epoch += 1

    def reassign_lock_secondary(self, lock_id: int, target: int) -> None:
        """Elect ``target`` as ``lock_id``'s secondary home."""
        self._check_reassign("lock", target, self.lock_primary(lock_id))
        self._lock_secondary_override[lock_id] = target
        self.epoch += 1

    def reassign_backup(self, ward: int, target: int) -> None:
        """Elect ``target`` as ``ward``'s checkpoint backup."""
        self._check_reassign("backup", target, ward)
        self._backup_override[ward] = target
        self.epoch += 1

    # -- pages ----------------------------------------------------------------

    def page_hint(self, page_id: int) -> int:
        try:
            return self._page_hint[page_id]
        except KeyError:
            raise ProtocolError(f"page {page_id} has no home hint "
                                "(unallocated page?)") from None

    def primary_home(self, page_id: int) -> int:
        return self._next_live(self.page_hint(page_id))

    def secondary_home(self, page_id: int) -> int:
        override = self._secondary_override.get(page_id)
        if override is not None:
            return override
        primary = self.primary_home(page_id)
        secondary = self._next_live(primary + 1)
        if secondary == primary:
            raise UnrecoverableFailure(
                "cannot place page replicas on distinct nodes")
        return secondary

    def allocated_pages(self) -> list[int]:
        """All pages with a home hint, i.e. allocated by the app."""
        return sorted(self._page_hint)

    # -- locks ----------------------------------------------------------------

    def lock_hint(self, lock_id: int) -> int:
        if not 0 <= lock_id < self.num_locks:
            raise ProtocolError(f"lock {lock_id} out of range")
        return lock_id % self.num_nodes

    def lock_primary(self, lock_id: int) -> int:
        return self._next_live(self.lock_hint(lock_id))

    def lock_secondary(self, lock_id: int) -> int:
        override = self._lock_secondary_override.get(lock_id)
        if override is not None:
            return override
        primary = self.lock_primary(lock_id)
        secondary = self._next_live(primary + 1)
        if secondary == primary:
            raise UnrecoverableFailure(
                "cannot place lock replicas on distinct nodes")
        return secondary

    # -- checkpoint backups -----------------------------------------------------

    def backup_node(self, node: int) -> int:
        """Where ``node`` ships its thread checkpoints (next live node,
        unless re-replication elected a different backup)."""
        override = self._backup_override.get(node)
        if override is not None:
            return override
        backup = self._next_live(node + 1)
        if backup == node:
            raise UnrecoverableFailure("no distinct backup node available")
        return backup

    def barrier_manager(self) -> int:
        """The node hosting barrier managers (lowest live node)."""
        return self._next_live(0)

    def copy(self) -> "HomeMap":
        clone = HomeMap(self.num_nodes, self._page_hint, self.num_locks)
        clone._failed = set(self._failed)
        clone._secondary_override = dict(self._secondary_override)
        clone._lock_secondary_override = dict(self._lock_secondary_override)
        clone._backup_override = dict(self._backup_override)
        clone.epoch = self.epoch
        return clone

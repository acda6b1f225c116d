"""Shared resources for simulated processes.

Three primitives cover every need in the library:

* :class:`Mutex` -- FIFO mutual exclusion (intra-node protocol locks,
  serialized releases).
* :class:`Calendar` -- FIFO reservation calendar for a resource whose
  users know their hold time up front (memory-bus occupancy).
* :class:`Store` -- an unbounded-or-bounded FIFO of items (NIC post
  queues, message delivery queues).

All waiting is expressed through :class:`~repro.sim.process.Event`
objects, so ``yield mutex.acquire()`` reads naturally inside process
generators.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim._core import Delay, Event
from repro.sim.engine import Engine

#: Shared, permanently-settled grant event. Every uncontended
#: ``Mutex.acquire`` and every accepted
#: ``Store.put`` settles with ``succeed(None)`` before the caller can
#: observe it, so they can all hand back one immortal pre-settled event
#: instead of allocating a fresh one -- tens of thousands of Event
#: objects per application run. A process yielding it takes the settled
#: fast path (same event-list slot as a fresh settled event, so event
#: order is bit-identical); it is never parked on, so diagnostics that
#: decode *pending* events never see it.
_GRANTED = Event(None, "granted")
_GRANTED.succeed(None)

#: Sentinel returned by :meth:`Store.get_nowait` on an empty store
#: (``None`` is a legitimate stored item).
EMPTY = object()


class Mutex:
    """FIFO mutual exclusion lock for simulated processes.

    ``yield mutex.acquire()`` suspends until the lock is granted;
    ``mutex.release()`` hands it to the next waiter (immediately, at the
    current simulated time).
    """

    def __init__(self, engine: Engine, name: str = "mutex") -> None:
        self.engine = engine
        self.name = name
        self._acquire_name = name + ".acquire"
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        if not self._locked:
            self._locked = True
            return _GRANTED
        ev = Event(self.engine, self._acquire_name)
        self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns True on success."""
        if self._locked:
            return False
        self._locked = True
        return True

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked mutex {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self._locked = False


class Calendar:
    """FIFO reservation calendar for a one-at-a-time resource (the
    node memory bus).

    Every user knows its hold time when it asks, so a request is
    booked in full on the spot: the hold starts at ``max(now,
    free_at)`` and ``free_at`` moves to its end. Nothing is released
    and no waiter is woken. Requests are made in event order, so each
    start equals the grant time of a FIFO queue whose holders release
    exactly when their hold ends. Callbacks schedule their completion
    at the :meth:`reserve` result with ``Engine.schedule_at``;
    processes yield :meth:`hold`.
    """

    __slots__ = ("engine", "name", "free_at", "_hold_name")

    def __init__(self, engine: Engine, name: str = "calendar") -> None:
        self.engine = engine
        self.name = name
        self._hold_name = name + ".hold"
        #: Absolute time at which the last booked hold ends.
        self.free_at = 0.0

    def reserve(self, hold: float) -> float:
        """Book ``hold`` time units at the first free slot; returns the
        absolute time at which the hold ends."""
        if hold < 0:
            raise SimulationError(f"negative hold on {self.name!r}: {hold}")
        start = self.free_at
        now = self.engine.now
        if start < now:
            start = now
        end = self.free_at = start + hold
        return end

    def hold(self, duration: float) -> Any:
        """Yieldable for a process occupying the resource for
        ``duration``: a plain :class:`Delay` when it is free now, else
        an event that settles at the booked end."""
        engine = self.engine
        if self.free_at <= engine.now:
            delay = Delay(duration)
            self.free_at = engine.now + duration
            return delay
        done = Event(engine, self._hold_name)
        engine.schedule_at(self.reserve(duration), done.succeed)
        return done


class Store:
    """FIFO store of items with optional bounded capacity.

    ``put`` returns an event that succeeds once the item is accepted
    (immediately if there is room, otherwise when space frees up --
    this is the NIC post-queue back-pressure the paper describes).
    ``get`` returns an event that succeeds with the oldest item.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None,
                 name: str = "store") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1: {capacity}")
        self.engine = engine
        self.name = name
        self._put_name = name + ".put"
        self._get_name = name + ".get"
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            return _GRANTED
        if not self.is_full:
            self._items.append(item)
            return _GRANTED
        ev = Event(self.engine, self._put_name)
        self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        ev = Event(self.engine, self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        """Pop the oldest item, or :data:`EMPTY` when none is queued.

        Mutates exactly as a ``get()`` whose event settles immediately
        would (including waking one blocked putter), so hot consumer
        loops can skip the Event allocation and only fall back to
        ``yield get()`` on an empty store.
        """
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return item
        return EMPTY

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_ev, item = self._putters.popleft()
            self._items.append(item)
            put_ev.succeed(None)

    def drain(self) -> list[Any]:
        """Remove and return all queued items (used at node failure)."""
        items = list(self._items)
        self._items.clear()
        while self._putters:
            self._admit_putter()
        return items

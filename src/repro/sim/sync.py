"""Synchronization primitives for simulated threads.

All primitives hand off deterministically in FIFO order (no barging): when a
mutex is released, ownership transfers directly to the oldest waiter. This
mirrors the fairness assumptions Snapify's drain protocol makes about COI's
internal locks, and it keeps simulated schedules reproducible.

Usage pattern (inside a simulated thread)::

    yield mutex.acquire()
    try:
        ...critical section...
    finally:
        mutex.release()
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class _AcquireEvent(Event):
    """Mutex-acquire event that knows which lock it is queued on.

    The extra slot lets :meth:`Simulator.wait_for_graph` resolve the current
    holder of the contended lock without the kernel importing this module
    (resolution is duck-typed on ``owner_info``) and without burdening the
    plain :class:`Event` hot path.
    """

    __slots__ = ("mutex",)

    def __init__(self, mutex: "Mutex"):
        super().__init__(mutex.sim, name=mutex._acquire_name)
        self.mutex = mutex

    @property
    def owner_info(self) -> Optional[str]:
        """Describe the current lock holder, or None if unowned."""
        m = self.mutex
        if not m.locked:
            return None
        owner = m.owner
        if owner is None:
            return f"mutex {m.name!r} (anonymous holder)"
        name = getattr(owner, "name", None)
        return f"mutex {m.name!r} holder {name or owner!r}"


class Mutex:
    """A non-reentrant FIFO mutual-exclusion lock.

    Acquire/release sit on the offload hot path (Snapify's drain locks), so
    the event name is interpolated once per mutex and the cancelled-waiter
    scan reads event state directly instead of going through properties.
    """

    def __init__(self, sim: "Simulator", name: str = "mutex"):
        self.sim = sim
        self.name = name
        self.locked = False
        self.owner: Optional[object] = None
        self._waiters: Deque[tuple[Event, Optional[object]]] = deque()
        self._acquire_name = f"acquire:{name}"

    def acquire(self, owner: Optional[object] = None) -> Event:
        """Return an event that succeeds once the caller holds the lock.

        An uncontended acquire returns the simulator's shared pre-fired
        event and allocates nothing; only a queued acquire gets its own
        :class:`_AcquireEvent` (and with it an ``owner_info`` edge).
        """
        if not self.locked:
            self.locked = True
            self.owner = owner
            return self.sim._fired
        ev = _AcquireEvent(self)
        self._waiters.append((ev, owner))
        return ev

    def try_acquire(self, owner: Optional[object] = None) -> bool:
        """Non-blocking acquire; True on success."""
        if self.locked:
            return False
        self.locked = True
        self.owner = owner
        return True

    def release(self) -> None:
        if not self.locked:
            raise RuntimeError(f"release of unlocked mutex {self.name!r}")
        # Drop cancelled waiters: triggered elsewhere, or abandoned by an
        # interrupted/killed thread.
        while self._waiters:
            ev, owner = self._waiters.popleft()
            if ev._state is not PENDING or not ev._callbacks:
                continue
            self.owner = owner
            ev.succeed(None)
            return
        self.locked = False
        self.owner = None


class Semaphore:
    """Counting semaphore with FIFO wakeups."""

    def __init__(self, sim: "Simulator", value: int = 0, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        self.value = value
        self._waiters: Deque[Event] = deque()
        self._wait_name = f"sem.wait:{name}"

    def wait(self) -> Event:
        """P(): event succeeds once a unit has been consumed."""
        ev = Event(self.sim, name=self._wait_name)
        if self.value > 0:
            self.value -= 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def post(self, n: int = 1) -> None:
        """V(): release ``n`` units, waking waiters FIFO."""
        for _ in range(n):
            woke = False
            while self._waiters:
                ev = self._waiters.popleft()
                if ev._state is not PENDING or not ev._callbacks:
                    continue
                ev.succeed(self)
                woke = True
                break
            if not woke:
                self.value += 1


class Barrier:
    """All ``parties`` threads block until the last one arrives."""

    def __init__(self, sim: "Simulator", parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError("barrier needs >= 1 party")
        self.sim = sim
        self.name = name
        self.parties = parties
        self._generation = 0
        self._waiting: list[Event] = []

    def wait(self) -> Event:
        ev = Event(self.sim, name=f"barrier:{self.name}@{self._generation}")
        self._waiting.append(ev)
        if len(self._waiting) == self.parties:
            waiters, self._waiting = self._waiting, []
            gen = self._generation
            self._generation += 1
            for w in waiters:
                w.succeed(gen)
        return ev


class Condition:
    """Condition variable paired with an external :class:`Mutex`.

    ``wait()`` must be called with the mutex held; it atomically releases the
    mutex and re-acquires it before the returned generator completes.
    Because releasing and re-acquiring cannot be expressed as a single event,
    ``wait`` is a sub-generator: use ``yield from cond.wait()``.
    """

    def __init__(self, sim: "Simulator", mutex: Mutex, name: str = "cond"):
        self.sim = sim
        self.mutex = mutex
        self.name = name
        self._waiters: Deque[Event] = deque()

    def wait(self):
        if not self.mutex.locked:
            raise RuntimeError(f"Condition.wait on {self.name!r} without the mutex held")
        ev = Event(self.sim, name=f"cond.wait:{self.name}")
        self._waiters.append(ev)
        self.mutex.release()
        yield ev
        yield self.mutex.acquire()

    def notify(self, n: int = 1) -> None:
        for _ in range(n):
            while self._waiters:
                ev = self._waiters.popleft()
                if not ev.triggered and not ev.abandoned:
                    ev.succeed(None)
                    break
            else:
                return

    def notify_all(self) -> None:
        self.notify(len(self._waiters))

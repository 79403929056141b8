"""The simulation executive.

:class:`Simulator` owns the clock and the event queue and provides the
scheduling API used by every other subsystem (CAN bus, ECUs, fuzzer).
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Callable

from repro.sim.clock import SimClock, format_time
from repro.sim.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (negative delays, past deadlines)."""


class Simulator:
    """Discrete-event executive.

    Typical use::

        sim = Simulator()
        sim.call_after(1000, lambda: print("1 ms elapsed"))
        sim.run_for(10_000)

    Events fire in ``(time, priority, insertion-order)`` order.  The
    executive is single-threaded and re-entrant: actions may schedule
    and cancel further events freely, including at the current tick.
    """

    #: Priority used by bus-level events so that wire state resolves
    #: before application timers at the same tick.
    BUS_PRIORITY = 0
    #: Default priority for application events.
    APP_PRIORITY = 10

    def __init__(self, start: int = 0) -> None:
        self.clock = SimClock(start)
        self._queue = EventQueue()
        self._running = False
        self._stop_requested = False
        self._events_fired = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in microsecond ticks."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_fired

    def call_at(self, when: int, action: Callable[[], None],
                priority: int = APP_PRIORITY, label: str = "") -> Event:
        """Schedule ``action`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule {label or action!r} at {format_time(when)}; "
                f"it is already {format_time(self.now)}"
            )
        return self._queue.push(when, action, priority, label)

    def call_after(self, delay: int, action: Callable[[], None],
                   priority: int = APP_PRIORITY, label: str = "") -> Event:
        """Schedule ``action`` ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {label!r}")
        # Hot path (one call per scheduled frame): read the clock
        # directly rather than through two property hops.
        return self._queue.push(self.clock._now + delay, action,
                                priority, label)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (safe to call more than once)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.

        Returns:
            ``True`` if an event was executed, ``False`` if the queue
            was empty (time does not advance in that case).
        """
        event = self._queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self._events_fired += 1
        event.action()
        return True

    def run_until(self, deadline: int) -> None:
        """Run events up to and including ``deadline``, then stop.

        The clock finishes exactly at ``deadline`` even if the queue
        drains early, so callers can rely on ``sim.now == deadline``.
        """
        if deadline < self.now:
            raise SimulationError(
                f"deadline {format_time(deadline)} is in the past "
                f"(now {format_time(self.now)})"
            )
        self._running = True
        self._stop_requested = False
        # Fast path: the heap is walked directly (no per-event pop_due
        # call), the loop binds its hot attributes once, the clock
        # advances by direct assignment (heap order makes event times
        # monotonic, so the advance_to guard is redundant here), and
        # the fired counter accumulates locally.  This loop dispatches
        # every event of a fuzz campaign, so each saved call is worth
        # roughly a million events per simulated half hour.  Heap
        # entries hold either an Event or a bare callable (push_call);
        # EventQueue._compact rebuilds the heap list in place, so the
        # local binding stays valid across compactions.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        clock = self.clock
        fired = 0
        try:
            while not self._stop_requested:
                if not heap:
                    break
                entry = heap[0]
                when = entry[0]
                if when > deadline:
                    break
                heappop(heap)
                item = entry[3]
                if item.__class__ is Event:
                    if item.cancelled:
                        queue._dead -= 1
                        continue
                    item.queue = None
                    action = item.action
                else:
                    action = item
                queue._live -= 1
                if when > clock._now:
                    clock._now = when
                fired += 1
                action()
        finally:
            self._events_fired += fired
            self._running = False
        if not self._stop_requested:
            self.clock.advance_to(deadline)

    def run_for(self, duration: int) -> None:
        """Run for ``duration`` ticks of simulated time."""
        self.run_until(self.now + duration)

    def run_until_idle(self, max_time: int | None = None) -> None:
        """Run until no events remain (or ``max_time`` is reached).

        Shares :meth:`run_until`'s clock contract: with ``max_time``
        set, the clock finishes exactly at ``max_time`` even if the
        queue drains early (and regardless of how many events remained
        beyond it), so callers can rely on ``sim.now == max_time``
        unless :meth:`stop` was requested.

        Args:
            max_time: safety limit in absolute ticks; without it a
                periodic process would make this loop run forever.
        """
        if max_time is not None and max_time < self.now:
            raise SimulationError(
                f"max_time {format_time(max_time)} is in the past "
                f"(now {format_time(self.now)})"
            )
        self._running = True
        self._stop_requested = False
        queue = self._queue
        advance = self.clock.advance_to
        try:
            while not self._stop_requested:
                if max_time is None:
                    event = queue.pop()
                else:
                    event = queue.pop_due(max_time)
                if event is None:
                    break
                advance(event.time)
                self._events_fired += 1
                event.action()
        finally:
            self._running = False
        if max_time is not None and not self._stop_requested:
            self.clock.advance_to(max_time)

    def stop(self) -> None:
        """Request that the current ``run_*`` call return after this event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def next_event_bound(self) -> int | None:
        """A lower bound on the next event's time, or ``None`` if idle.

        The time of the heap's head entry, which may be a cancelled
        one; no live event fires before it.  Unlike
        :meth:`EventQueue.peek_time` this never pops, so the queue's
        bookkeeping is left exactly as the run loop would find it.
        """
        heap = self._queue._heap
        return heap[0][0] if heap else None

    def pending_entries(self) -> list[tuple[int, int, str]]:
        """Live pending events as ``(time, priority, label)`` rows.

        The label falls back to the action's ``__qualname__`` (or type
        name) when no explicit label was given.  Rows come back in
        firing order.  This exists for schedulers that must prove a
        world quiescent before taking it off the event queue -- the
        batch engine's eligibility check walks it to verify that only
        recognised periodic activity is outstanding.
        """
        entries: list[tuple[int, int, str]] = []
        for entry in sorted(self._queue._heap):
            item = entry[3]
            if isinstance(item, Event):
                if item.cancelled:
                    continue
                name = item.label or getattr(item.action, "__qualname__",
                                             type(item.action).__name__)
            else:
                name = getattr(item, "__qualname__", type(item).__name__)
            entries.append((entry[0], entry[1], name))
        return entries

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Deterministic digest of the kernel's externally visible state.

        Covers the clock, the fired-event counter, the sequence
        allocator and every live pending entry ``(time, priority, seq,
        label-or-qualname)``.  Action identities are reduced to their
        label or ``__qualname__`` -- reprs of bound methods embed
        memory addresses and would make equal worlds digest unequally.
        Two simulators with equal digests schedule the same future.
        """
        digest = hashlib.sha256()
        digest.update(
            f"{self.clock._now}:{self._events_fired}:"
            f"{self._queue._seq}".encode())
        # Heap entry tuples are totally ordered (seq breaks all ties),
        # so sorting never compares the trailing action item.
        for entry in sorted(self._queue._heap):
            item = entry[3]
            if isinstance(item, Event):
                if item.cancelled:
                    continue
                name = item.label or getattr(item.action, "__qualname__",
                                             type(item.action).__name__)
            else:
                name = getattr(item, "__qualname__", type(item).__name__)
            digest.update(f"{entry[0]}:{entry[1]}:{entry[2]}:{name}"
                          .encode("utf-8", "backslashreplace"))
            digest.update(b"\x1f")
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={format_time(self.now)}, "
                f"pending={len(self._queue)}, fired={self._events_fired})")

"""Discrete-event simulation clock.

A classic event-heap simulator: callbacks scheduled at virtual times, run in
deterministic order (time, then insertion sequence).  The whole library is
driven by one clock instance — sensor emissions, blocking-operator window
flushes, message deliveries, monitor sampling, and SCN control decisions are
all just scheduled events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError


@dataclass(order=True, slots=True)
class ScheduledEvent:
    """One pending event in the heap (orderable by time, then sequence)."""

    time: float
    sequence: int
    callback: Callable = field(compare=False)
    #: Positional arguments for ``callback``: a message's delivery event
    #: carries its message here instead of in a per-message closure.
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Set when the event is popped for execution — a late cancel() (e.g. a
    #: periodic's cancel fired from inside its own callback) must not count
    #: toward the owner's cancelled-entry tally, the entry already left the heap.
    done: bool = field(default=False, compare=False)
    owner: "SimClock | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Cancel the event; it is skipped when its time arrives."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()


class _PeriodicTimer:
    """A repeating timer: one :class:`ScheduledEvent` re-armed after each firing.

    ``fire`` is the event's callback and ``cancel`` the function
    :meth:`SimClock.schedule_periodic` returns, both bound once per timer.
    """

    __slots__ = ("clock", "interval", "callback", "event", "stopped")

    def __init__(self, clock: "SimClock", interval: float, callback: Callable) -> None:
        self.clock = clock
        self.interval = interval
        self.callback = callback
        self.event: "ScheduledEvent | None" = None
        self.stopped = False

    def fire(self) -> None:
        self.callback()
        if not self.stopped:
            clock = self.clock
            time = clock._now + self.interval
            sequence = next(clock._sequence)
            event = self.event
            event.time = time
            event.sequence = sequence
            event.done = False
            heapq.heappush(clock._heap, (time, sequence, event))

    def cancel(self) -> None:
        self.stopped = True
        self.event.cancel()


class SimClock:
    """Deterministic discrete-event clock.

    Callbacks take positional arguments the way asyncio's
    ``call_later(delay, callback, *args)`` does:

    >>> clock = SimClock()
    >>> fired = []
    >>> _ = clock.schedule(5.0, fired.append, "a")
    >>> _ = clock.schedule(7.0, lambda: fired.append(clock.now))
    >>> _ = clock.run_until(10.0)
    >>> fired
    ['a', 7.0]
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        #: Heap of (time, sequence, event) — a tuple head keeps heap
        #: sifting on C-level comparisons instead of ScheduledEvent.__lt__.
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._running = False
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events.

        O(1): the clock tracks how many heap entries are lazily-deleted
        tombstones rather than scanning the heap.
        """
        return len(self._heap) - self._cancelled

    def _note_cancelled(self) -> None:
        """A live heap entry became a tombstone; compact if they dominate.

        Compaction is in place (``self._heap[:] = ...``) because ``run`` /
        ``run_until`` hold a local reference to the heap list while the
        clock is running — rebinding would desynchronize them.
        """
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self._heap[:] = [
                entry for entry in self._heap if not entry[2].cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def schedule(
        self, delay: float, callback: Callable, *args: object
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at (delay >= 0 implies time >= now): one less
        # frame on the simulator's hottest call.
        time = self._now + delay
        sequence = next(self._sequence)
        event = ScheduledEvent(time, sequence, callback, args, owner=self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable, *args: object
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        sequence = next(self._sequence)
        event = ScheduledEvent(time, sequence, callback, args, owner=self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable,
        start_delay: "float | None" = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        Returns a zero-argument cancel function.  The first firing happens
        after ``start_delay`` (default: one full interval).

        The timer owns one :class:`ScheduledEvent`.  After each firing it
        pushes that event back with the next time and a fresh sequence
        number, drawn at the point a new ``schedule`` call would draw it,
        so firing order is that of an event per firing.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        timer = _PeriodicTimer(self, interval, callback)
        first_delay = interval if start_delay is None else start_delay
        timer.event = self.schedule(first_delay, timer.fire)
        return timer.cancel

    def step(self) -> bool:
        """Run the next event; returns False when the heap is empty.

        Like ``run`` and ``run_until``, refuses to run from inside a
        callback: a nested step would fire later events before the
        current one returns.
        """
        if self._running:
            raise SimulationError("clock is already running (no re-entrant runs)")
        self._running = True
        try:
            while self._heap:
                event_time, _, event = heapq.heappop(self._heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.done = True
                self._now = event_time
                event.callback(*event.args)
                return True
            return False
        finally:
            self._running = False

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        """Run all events scheduled strictly before/at ``time``.

        Advances the clock to exactly ``time`` afterwards.  Returns the
        number of events executed.  ``max_events`` guards against runaway
        self-rescheduling loops.
        """
        if time < self._now:
            raise SimulationError(f"cannot run backwards to {time} from {self._now}")
        if self._running:
            raise SimulationError("clock is already running (no re-entrant runs)")
        self._running = True
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                event_time = heap[0][0]
                if event_time > time:
                    break
                _, _, event = heappop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.done = True
                self._now = event_time
                event.callback(*event.args)
                executed += 1
                if executed >= max_events:
                    raise SimulationError(
                        f"run_until({time}) exceeded {max_events} events; "
                        f"likely a zero-delay rescheduling loop"
                    )
            self._now = time
        finally:
            self._running = False
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event heap drains.  Returns events executed."""
        if self._running:
            raise SimulationError("clock is already running (no re-entrant runs)")
        self._running = True
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            # step() inlined: one less Python frame per executed event.
            while heap:
                event_time, _, event = heappop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.done = True
                self._now = event_time
                event.callback(*event.args)
                executed += 1
                if executed >= max_events:
                    raise SimulationError(
                        f"run() exceeded {max_events} events; "
                        f"likely an unbounded periodic schedule"
                    )
        finally:
            self._running = False
        return executed

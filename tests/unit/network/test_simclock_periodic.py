"""Periodic timers and callback arguments against a closure-based clock.

``schedule_periodic`` pushes the same :class:`ScheduledEvent` back after
each firing with a fresh sequence number, and ``schedule(delay, callback,
*args)`` keeps a callback's arguments on its event.  These tests pin the
cancel paths and the O(1) ``pending`` count, and check against the
closure-based implementation (a new event per firing, arguments bound in a
closure) that every driver fires the same events in the same order.
"""

from __future__ import annotations

import random

import pytest

from repro.network.simclock import SimClock


class ClosureClock(SimClock):
    """The reference: a new event, closure and state dict per firing, and
    callback arguments bound in a closure."""

    def schedule(self, delay, callback, *args):
        if args:
            return super().schedule(delay, lambda: callback(*args))
        return super().schedule(delay, callback)

    def schedule_at(self, time, callback, *args):
        if args:
            return super().schedule_at(time, lambda: callback(*args))
        return super().schedule_at(time, callback)

    def schedule_periodic(self, interval, callback, start_delay=None):
        state = {"event": None, "stopped": False}

        def fire():
            if state["stopped"]:
                return
            callback()
            if not state["stopped"]:
                state["event"] = self.schedule(interval, fire)

        first_delay = interval if start_delay is None else start_delay
        state["event"] = self.schedule(first_delay, fire)

        def cancel():
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return cancel


class TestCancel:
    def test_cancel_from_inside_own_callback(self):
        clock = SimClock()
        ticks = []
        holder = {}

        def tick():
            ticks.append(clock.now)
            if len(ticks) == 3:
                holder["cancel"]()

        holder["cancel"] = clock.schedule_periodic(2.0, tick)
        clock.schedule(100.0, lambda: None)
        clock.run()
        assert ticks == [2.0, 4.0, 6.0]
        assert clock.pending == 0
        # The timer's entry left the heap when it fired; it is not a tombstone.
        assert clock._cancelled == 0

    def test_cancel_before_first_firing(self):
        clock = SimClock()
        ticks = []
        cancel = clock.schedule_periodic(5.0, lambda: ticks.append(clock.now))
        clock.schedule(1.0, lambda: None)
        assert clock.pending == 2
        cancel()
        assert clock.pending == 1
        clock.run_until(50.0)
        assert ticks == []
        assert clock.pending == 0

    def test_cancel_twice_counts_once(self):
        clock = SimClock()
        cancel = clock.schedule_periodic(5.0, lambda: None)
        clock.schedule(1.0, lambda: None)
        clock.schedule(2.0, lambda: None)
        clock.run_until(12.0)
        cancel()
        cancel()
        assert clock.pending == 0
        assert clock.run() == 0

    def test_cancel_across_compaction(self):
        """Cancelled timers are compacted away; live ones keep firing."""
        clock = SimClock()
        ticks = []
        cancels = [
            clock.schedule_periodic(1.0, lambda i=i: ticks.append((clock.now, i)))
            for i in range(20)
        ]
        clock.run_until(2.0)
        heap_before = len(clock._heap)
        for cancel in cancels[1:]:
            cancel()
        # Tombstones dominated, so the heap was rebuilt without them.
        assert len(clock._heap) < heap_before
        assert clock.pending == 1
        ticks.clear()
        clock.run_until(5.0)
        assert ticks == [(3.0, 0), (4.0, 0), (5.0, 0)]
        cancels[0]()
        assert clock.pending == 0
        clock.run_until(10.0)
        assert ticks == [(3.0, 0), (4.0, 0), (5.0, 0)]

    def test_pending_counts_each_live_timer_once(self):
        clock = SimClock()
        cancels = [
            clock.schedule_periodic(float(i + 1), lambda: None) for i in range(4)
        ]
        for horizon in (0.5, 3.0, 7.5, 12.0):
            clock.run_until(horizon)
            assert clock.pending == 4
            assert len(clock._heap) == 4
        cancels[2]()
        assert clock.pending == 3

    def test_callback_error_stops_the_timer(self):
        clock = SimClock()

        def boom():
            raise RuntimeError("boom")

        clock.schedule_periodic(1.0, boom)
        with pytest.raises(RuntimeError):
            clock.run_until(5.0)
        assert clock.pending == 0


def _scenario(clock: SimClock, seed: int, driver: str = "run_until") -> "list[tuple]":
    """A random mix of periodic and one-shot events on integer times.

    Integer intervals and delays make same-instant ties the rule.  Callbacks
    cancel timers (their own included) and one-shots, start timers and
    schedule one-shots with and without arguments, drawing from one seeded
    stream, so both clocks take the same actions only while they fire in
    the same order and hand over the same arguments.  ``driver`` picks how
    the clock is advanced: ``run_until`` horizons, bare ``step`` calls, or
    ``run`` after every timer is cancelled.
    """
    rng = random.Random(seed)
    log: "list[tuple]" = []
    cancels: "dict[int, object]" = {}
    one_shots: "list" = []
    draining = False

    def act(label, *args) -> None:
        live = sum(1 for entry in clock._heap if not entry[2].cancelled)
        assert clock.pending == live
        log.append((clock.now, label, args, live))
        if draining:
            return
        roll = rng.random()
        if roll < 0.15 and cancels:
            victim = rng.choice(sorted(cancels))
            cancels.pop(victim)()
        elif roll < 0.25:
            start(rng.randrange(100))
        elif roll < 0.35:
            one_shot = f"once-{rng.randrange(1000)}"
            clock.schedule(float(rng.randrange(4)), lambda: act(one_shot))
        elif roll < 0.45:
            one_shots.append(clock.schedule(
                float(rng.randrange(4)), act, "args", rng.randrange(1000), label,
            ))
        elif roll < 0.5:
            at = clock.now + float(rng.randrange(4))
            one_shots.append(clock.schedule_at(at, act, "at", at))
        elif roll < 0.55 and one_shots:
            one_shots.pop(rng.randrange(len(one_shots))).cancel()

    def start(timer: int) -> None:
        if timer in cancels:
            return
        interval = float(rng.randrange(1, 5))
        delay = float(rng.randrange(0, 5)) if rng.random() < 0.5 else None
        cancels[timer] = clock.schedule_periodic(
            interval, lambda: act(("timer", timer)), start_delay=delay
        )

    for timer in range(8):
        start(timer)
    for index in range(6):
        one_shot = f"seed-{rng.randrange(1000)}"
        delay = float(rng.randrange(10))
        if index % 2:
            one_shots.append(clock.schedule(delay, act, one_shot, index))
        else:
            clock.schedule(delay, lambda one_shot=one_shot: act(one_shot))
    if driver == "run_until":
        for horizon in (3.0, 7.0, 20.0, 40.0):
            log.append(("run_until", horizon, clock.run_until(horizon), clock.pending))
    elif driver == "step":
        for _ in range(4):
            stepped = [clock.step() for _ in range(30)]
            log.append(("step", stepped, clock.now, clock.pending))
    else:
        log.append(("run_until", 20.0, clock.run_until(20.0), clock.pending))
        draining = True
        for timer in sorted(cancels):
            cancels.pop(timer)()
        log.append(("run", clock.run(), clock.now, clock.pending))
    return log


@pytest.mark.parametrize("seed", range(60))
def test_firing_order_matches_closure_reference(seed):
    assert _scenario(SimClock(), seed) == _scenario(ClosureClock(), seed)


@pytest.mark.parametrize("driver", ["step", "run"])
@pytest.mark.parametrize("seed", range(20))
def test_step_and_run_match_closure_reference(seed, driver):
    log = _scenario(SimClock(), seed, driver)
    assert log == _scenario(ClosureClock(), seed, driver)
    # The mix did hand arguments over on this driver.
    assert any(isinstance(entry[0], float) and entry[2] for entry in log)


class TestCallbackArguments:
    def test_same_instant_fifo_across_arg_and_bare_events(self):
        clock = SimClock()
        seen = []
        for index in range(6):
            if index % 2:
                clock.schedule(1.0, seen.append, index)
            else:
                clock.schedule(1.0, lambda index=index: seen.append(index))
        clock.schedule_at(1.0, seen.append, 6)
        clock.run()
        assert seen == list(range(7))

    @pytest.mark.parametrize("driver", ["step", "run", "run_until"])
    def test_every_driver_passes_arguments(self, driver):
        clock = SimClock()
        seen = []
        event = clock.schedule(1.0, seen.append, driver)
        assert event.args == (driver,)
        clock.schedule_at(2.0, seen.extend, (1, 2))
        clock.schedule(3.0, lambda *args: seen.append(args), "a", None)
        if driver == "step":
            while clock.step():
                pass
        elif driver == "run":
            clock.run()
        else:
            clock.run_until(3.0)
        assert seen == [driver, 1, 2, ("a", None)]

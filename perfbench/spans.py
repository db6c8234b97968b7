"""Spans around the public entry points of each layer, recorded from outside.

:class:`Tracer` patches the layer entry points listed in :data:`LAYER_CALLS`
for the duration of a ``with`` block and restores them afterwards; the
program itself is not changed.  Each call becomes a span (name, start, end,
parent) kept in compact arrays; a span's self time is its duration minus
the time its child spans cover, accumulated per name as spans close.

Asyncio tasks run one at a time and every patched entry point is a plain
function, so a single span stack is exact on both backends.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

import repro.runtime.executor as executor_module
import repro.sensors.base as sensors_base
from repro.network.netsim import NetworkSimulator
from repro.network.simclock import SimClock
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import Subscription
from repro.runtime.backends.asyncio_backend import AsyncBackend, AsyncClock
from repro.runtime.executor import Executor
from repro.runtime.monitor import Monitor
from repro.runtime.process import OperatorProcess
from repro.sticker.feed import StickerFeed
from repro.streams.aggregate import AggregationOperator
from repro.streams.base import Operator
from repro.streams.columnar import ColumnarBatch
from repro.streams.filter import FilterOperator
from repro.streams.fused import FusedOperator
from repro.streams.sink import CallbackSink, CountingSink, ListSink
from repro.streams.trigger import _TriggerBase
from repro.warehouse.loader import EventWarehouse

#: (owner, attribute, span name).  The clock span is the event loop of the
#: simulator; on the async backend the clock fires one epoch per
#: ``_run_epoch`` call under the backend's ``run_until``.
LAYER_CALLS = (
    (sensors_base, "backfill_stamp", "pubsub.stamp"),
    (BrokerNetwork, "publish_data", "pubsub.publish"),
    (BrokerNetwork, "publish_batch", "pubsub.publish"),
    (Subscription, "deliver", "pubsub.deliver"),
    (Subscription, "deliver_batch", "pubsub.deliver"),
    (NetworkSimulator, "send", "network.send"),
    (NetworkSimulator, "send_batch", "network.send"),
    (SimClock, "run_until", "network.clock"),
    (AsyncClock, "_run_epoch", "network.clock"),
    (AsyncBackend, "run_until", "runtime.backends.loop"),
    (OperatorProcess, "receive", "runtime.dispatch"),
    (OperatorProcess, "receive_batch", "runtime.dispatch"),
    (Monitor, "sample", "runtime.monitor"),
    (Monitor, "heartbeat", "runtime.monitor"),
    (Monitor, "check_liveness", "runtime.monitor"),
    (Executor, "deploy", "runtime.deploy"),
    (executor_module, "dataflow_to_dsn", "dsn.translate"),
    (EventWarehouse, "load", "warehouse.load"),
    (StickerFeed, "push", "sticker.push"),
)

#: Operator classes -> span name, first match wins.
OPERATOR_KINDS = (
    (FusedOperator, "streams.fused"),
    (AggregationOperator, "streams.aggregate"),
    (_TriggerBase, "streams.trigger"),
    (FilterOperator, "streams.filter"),
    ((ListSink, CallbackSink, CountingSink), "streams.sink"),
    (Operator, "streams.other"),
)

SPAN_NAMES = (
    "sensors.generate",
    *dict.fromkeys(name for _, _, name in LAYER_CALLS),
    *(name for _, name in OPERATOR_KINDS),
)


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        #: Tuples processes hand to operators, and what operators return.
        self.tuples_in = 0
        self.tuples_out = 0
        self.generator_calls = 0
        self.generator_skips = 0
        self.fused_batches = 0
        self.columnar_transposes = 0
        self._stack: "list[int]" = []
        self._child: "list[float]" = []
        self._saved: "list[tuple[object, str, object]]" = []

    # -- span mechanics ----------------------------------------------------

    def _open(self, name_id: int) -> "tuple[int, float]":
        index = len(self.span_start)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        stack.append(index)
        self._child.append(0.0)
        return index, start

    def _close(self, name_id: int, index: int, start: float) -> None:
        end = time.perf_counter()
        self.span_end[index] = end
        self._stack.pop()
        inner = self._child.pop()
        duration = end - start
        self.self_s[name_id] += duration - inner
        self.calls[name_id] += 1
        if self._child:
            self._child[-1] += duration

    def wrap(self, name: str, fn):
        name_id = self._ids[name]
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index, start = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(name_id, index, start)

        return traced

    def wrap_generator(self, generator):
        """Span a sensor's value generator and count skipped emissions."""
        name_id = self._ids["sensors.generate"]
        open_, close = self._open, self._close

        def traced(now, rng):
            index, start = open_(name_id)
            try:
                payload = generator(now, rng)
            finally:
                close(name_id, index, start)
            self.generator_calls += 1
            if payload is None:
                self.generator_skips += 1
            return payload

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Tracer":
        for owner, attribute, name in LAYER_CALLS:
            self._patch(owner, attribute, self.wrap(name, getattr(owner, attribute)))
        self._patch_operators()
        transpose = ColumnarBatch.__dict__["from_tuples"].__func__

        def from_tuples(cls, tuples):
            self.columnar_transposes += 1
            return transpose(cls, tuples)

        self._patch(ColumnarBatch, "from_tuples", classmethod(from_tuples))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _patch_operators(self) -> None:
        """Span ``on_tuple``/``on_batch``/``on_timer`` by operator class.

        A fused chain on the row batch path calls its members' ``on_batch``;
        those calls count as fused time, and tuples are counted only where
        a process hands them to an operator.
        """
        kinds: "dict[type, int]" = {}
        fused_id = self._ids["streams.fused"]
        stack, span_name = self._stack, self.span_name

        def kind_of(operator) -> int:
            cls = type(operator)
            name_id = kinds.get(cls)
            if name_id is None:
                name = next(n for base, n in OPERATOR_KINDS if issubclass(cls, base))
                name_id = kinds[cls] = self._ids[name]
            return name_id

        def inside_fused() -> bool:
            return bool(stack) and span_name[stack[-1]] == fused_id

        def spanned(method, size, batch=False):
            open_, close = self._open, self._close

            def traced(operator, arg, *rest, **kwargs):
                nested = inside_fused()
                name_id = fused_id if nested else kind_of(operator)
                if batch and name_id == fused_id and not nested:
                    self.fused_batches += 1
                index, start = open_(name_id)
                try:
                    out = method(operator, arg, *rest, **kwargs)
                finally:
                    close(name_id, index, start)
                if not nested:
                    if size is not None:
                        self.tuples_in += size(arg)
                    self.tuples_out += len(out)
                return out

            return traced

        self._patch(Operator, "on_tuple", spanned(Operator.on_tuple, lambda _: 1))
        self._patch(Operator, "on_batch", spanned(Operator.on_batch, len, batch=True))
        self._patch(Operator, "on_timer", spanned(Operator.on_timer, None))

    # -- results -----------------------------------------------------------

    def self_time(self, name: str) -> float:
        return self.self_s[self._ids[name]]

    def call_count(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def attributed_s(self) -> float:
        """Total self time of every span (the wall time spans cover)."""
        return sum(self.self_s)

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent) as a compressed npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        origin = starts[0] if len(starts) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=starts - origin,
            end=np.frombuffer(self.span_end, dtype=np.float64) - origin,
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )

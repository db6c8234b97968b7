"""The send -> deliver path allocates no per-message callables.

A message in flight is its :class:`~repro.network.netsim.Message` plus one
clock event.  The event's callback is the transport's ``_deliver`` bound
once, and its arguments carry the delivery and loss callables, which are
built once per subscription or per (process, port); only the broker's
per-attempt loss handler is new per message, and it is a slotted object,
not a closure.  This test deploys a small sensor fleet, stops the clock
right after an emission burst and inspects every pending event, so a
change that brings back a lambda, a ``functools.partial`` or a fresh bound
method per message fails here, without any timing.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import (
    AggregationSpec,
    FilterSpec,
    TransformSpec,
    VirtualPropertySpec,
)
from repro.network.netsim import Message
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack
from repro.sensors.base import BatchingPolicy
from repro.sensors.physical import temperature_sensor
from repro.stt.spatial import Point

STATIONS = 50
#: Stations emit every 2 s; the first burst is at t = 2.
PERIOD = 2.0


def _flow() -> Dataflow:
    flow = Dataflow("closure-free")
    temp = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="temperature"
    )
    valid = flow.add_operator(FilterSpec("temperature > -50"), node_id="valid")
    fahrenheit = flow.add_operator(
        VirtualPropertySpec("temperature_f", "temperature * 1.8 + 32"),
        node_id="fahrenheit",
    )
    calibrate = flow.add_operator(
        TransformSpec(assignments={"temperature": "temperature - 0.5"}),
        node_id="calibrate",
    )
    stations = flow.add_operator(
        AggregationSpec(
            interval=6.0, attributes=("temperature",), function="AVG",
            group_by="station",
        ),
        node_id="stations",
    )
    averages = flow.add_sink("collector", node_id="averages")
    hot = flow.add_operator(FilterSpec("temperature > 20.0"), node_id="hot")
    hot_readings = flow.add_sink("warehouse", node_id="hot-readings")
    flow.connect(temp, valid)
    flow.connect(valid, fahrenheit)
    flow.connect(fahrenheit, calibrate)
    flow.connect(calibrate, stations)
    flow.connect(stations, averages)
    flow.connect(temp, hot)
    flow.connect(hot, hot_readings)
    return flow


def _deploy(fuse: bool, batching: "BatchingPolicy | None"):
    stack = build_stack(hot=True, seed=3, attach_fleet=False)
    rng = np.random.default_rng(3)
    nodes = stack.topology.node_ids
    for index in range(STATIONS):
        sensor = temperature_sensor(
            f"station-{index:02d}",
            Point(34.55 + 0.25 * rng.random(), 135.35 + 0.30 * rng.random()),
            nodes[index % len(nodes)],
            frequency=1.0 / PERIOD,
            base_temp=float(rng.uniform(12.0, 30.0)),
            seed=3,
        )
        if batching is not None:
            sensor.batching = batching
        sensor.attach(stack.broker_network, stack.clock)
    deployment = stack.executor.deploy(_flow(), fuse=fuse)
    return stack, deployment


def _assert_no_closure(fn) -> None:
    assert not isinstance(fn, functools.partial), fn
    assert getattr(fn, "__closure__", None) is None, fn
    assert getattr(fn, "__name__", None) != "<lambda>", fn


def _inspect(stack, deployment) -> "dict[str, int]":
    """Check every pending event; count the in-flight deliveries by kind."""
    netsim = stack.netsim
    subscriptions = list(stack.broker_network.iter_subscriptions())
    # The delivery callables the set-up built, once each.  The lists keep
    # them alive, so an id match is an identity match.
    broker_side = [s.deliver for s in subscriptions]
    broker_side += [s.deliver_batch for s in subscriptions]
    forward_side = [
        deliver
        for process in deployment.processes.values()
        for route in process.routes
        for deliver in (
            route.target.delivery(route.port),
            route.target.batch_delivery(route.port),
        )
    ]
    forwards = {id(deliver) for deliver in forward_side}
    shared = forwards | {id(deliver) for deliver in broker_side}

    kinds = {"broker": 0, "forward": 0, "other": 0}
    deliveries = []
    for _, _, event in stack.clock._heap:
        if event.cancelled:
            continue
        _assert_no_closure(event.callback)
        if event.args and isinstance(event.args[0], Message):
            deliveries.append(event)
        else:
            kinds["other"] += 1
    stats = netsim.stats
    in_flight = (
        stats.messages_sent - stats.messages_delivered - stats.messages_dropped
    )
    # Every message in flight is exactly one event of this shape.
    assert len(deliveries) == in_flight > 0
    assert {id(event.callback) for event in deliveries} == {id(netsim._deliver_cb)}
    for event in deliveries:
        _message, on_delivery, on_drop = event.args
        _assert_no_closure(on_delivery)
        assert id(on_delivery) in shared, on_delivery
        if on_drop is not None:
            _assert_no_closure(on_drop)
        if id(on_delivery) in forwards:
            kinds["forward"] += 1
        else:
            kinds["broker"] += 1
    return kinds


@pytest.mark.parametrize(
    "fuse, batching",
    [(False, None), (True, None), (False, BatchingPolicy(max_batch=2, max_delay=10.0))],
    ids=["unfused", "fused", "batched"],
)
def test_in_flight_messages_carry_no_per_message_callables(fuse, batching):
    stack, deployment = _deploy(fuse, batching)
    seen = {"broker": 0, "forward": 0, "other": 0}
    with stack:
        # Batches of two fill at the second burst.
        first_burst = PERIOD if batching is None else 2 * PERIOD
        stack.run_until(first_burst)
        # Stop right after the burst, then again once the first hops have
        # landed and operators forward downstream.
        for _ in range(2):
            for kind, count in _inspect(stack, deployment).items():
                seen[kind] += count
            for _ in range(STATIONS):
                stack.clock.step()
    assert seen["broker"] > 0
    assert seen["forward"] > 0
    assert seen["other"] > 0  # the sensors' and operators' timers

"""The benchmark's named workloads and the oracle each one is checked against.

A workload is a seeded sensor fleet plus a dataflow, run over a fixed
virtual horizon.  Sensors emit on the virtual clock whatever the wall clock
does (an open loop in virtual time), so one run is a batch job: build the
stack, deploy, run to the horizon.  The program receives only the fleet and
the dataflow; the seed stays here.

Every run carries a sink probe: each tuple reaching a sink whose upstream
path holds no blocking operator is timed from its event-time stamp to its
virtual arrival.  Aggregate outputs are stamped at their flush, so those
sinks are left out.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import (
    AggregationSpec,
    FilterSpec,
    TransformSpec,
    VirtualPropertySpec,
)
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import Stack, build_stack, osaka_scenario_flow
from repro.sensors.base import BatchingPolicy, SimulatedSensor
from repro.sensors.physical import temperature_sensor
from repro.stt.spatial import Point

#: osaka: the trigger fires at about 7.9 virtual hours; 15 h covers the
#: gated acquisition that follows it.
OSAKA_HORIZON = 15.0 * 3600.0

#: city: stations, rate and horizon.  1000 stations at 0.5 Hz over 49 s
#: publish 24 readings each; the last batch of city-batched fills at 48 s
#: and lands before the horizon.
CITY_STATIONS = 1000
CITY_FREQUENCY = 0.5
CITY_HORIZON = 49.0
CITY_WINDOW = 12.0
#: The warehouse branch's threshold.  Station base temperatures are drawn
#: from 12..30 °C; near midnight about a quarter of readings pass.
CITY_HOT_THRESHOLD = 20.0
#: city-batched: a batch fills after max_batch / rate = 16 s, before the
#: 20 s delay budget runs out, so every batch travels full.
CITY_BATCHING = BatchingPolicy(max_batch=8, max_delay=20.0)

#: Every run, the oracle's too, steps its clock to the horizon in this many
#: equal virtual steps, so the runner can gauge the machine's speed between
#: them (reference.py).  Stepping changes no event: a step runs every event
#: due by its end, as one call to the horizon would.
SEGMENTS = 16


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build it and how to check it."""

    name: str
    why: str
    horizon: float
    backend: str
    #: (seed, backend, knobs) -> (stack, flow, fleet); attaches the fleet.
    build: Callable[..., "tuple[Stack, Dataflow, list[SimulatedSensor]]"]
    #: Sinks whose tuples carry a reading's own stamp.
    latency_sinks: "tuple[str, ...]"
    batching: "BatchingPolicy | None" = None


def _build_osaka(seed: int, backend: str, batching=None, wrap_generator=None):
    stack = build_stack(hot=True, seed=seed, backend=backend, attach_fleet=False)
    for sensor in stack.fleet:
        if wrap_generator is not None:
            sensor.generator = wrap_generator(sensor.generator)
        sensor.attach(stack.broker_network, stack.clock)
    return stack, osaka_scenario_flow(stack), stack.fleet


def city_fleet(stack: Stack, seed: int) -> "list[SimulatedSensor]":
    """``CITY_STATIONS`` temperature stations spread over the topology."""
    rng = np.random.default_rng(seed)
    nodes = stack.topology.node_ids
    fleet = []
    for index in range(CITY_STATIONS):
        fleet.append(
            temperature_sensor(
                f"city-temp-{index:04d}",
                Point(34.55 + 0.25 * rng.random(), 135.35 + 0.30 * rng.random()),
                nodes[index % len(nodes)],
                frequency=CITY_FREQUENCY,
                base_temp=float(rng.uniform(12.0, 30.0)),
                seed=seed,
            )
        )
    return fleet


def city_flow() -> Dataflow:
    """Per-station averages behind a fusible chain, plus a hot-reading branch."""
    flow = Dataflow("city")
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
            interval=CITY_WINDOW,
            attributes=("temperature",),
            function="AVG",
            group_by="station",
        ),
        node_id="stations",
    )
    averages = flow.add_sink("collector", node_id="averages")
    hot = flow.add_operator(
        FilterSpec(f"temperature > {CITY_HOT_THRESHOLD}"), node_id="hot"
    )
    hot_readings = flow.add_sink("warehouse", node_id="hot-readings")
    flow.connect(temp, valid)
    flow.connect(valid, fahrenheit)
    flow.connect(fahrenheit, calibrate)
    flow.connect(calibrate, stations)
    flow.connect(stations, averages)
    flow.connect(temp, hot)
    flow.connect(hot, hot_readings)
    return flow


def _build_city(seed: int, backend: str, batching=None, wrap_generator=None):
    stack = build_stack(hot=True, seed=seed, backend=backend, attach_fleet=False)
    fleet = city_fleet(stack, seed)
    for sensor in fleet:
        if batching is not None:
            sensor.batching = batching
        if wrap_generator is not None:
            sensor.generator = wrap_generator(sensor.generator)
        sensor.attach(stack.broker_network, stack.clock)
    return stack, city_flow(), fleet


_OSAKA_SINKS = ("event-warehouse", "sticker", "traffic-collector")

WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            "osaka",
            "the paper's Section 3 scenario: tweet synthesis, stamping, clock "
            "and the Trigger On window dominate; batching and columnar never run",
            OSAKA_HORIZON, "sim", _build_osaka, _OSAKA_SINKS,
        ),
        Workload(
            "city",
            "1000 stations at 0.5 Hz tuple-at-a-time: per-message broker, "
            "netsim, subscription and dispatch work, one clock timer per sensor",
            CITY_HORIZON, "sim", _build_city, ("hot-readings",),
        ),
        Workload(
            "city-batched",
            "city with sensor batches that fill: runs publish_batch, send_batch "
            "and the columnar fused path, trading virtual latency for wall speed",
            CITY_HORIZON, "sim", _build_city, ("hot-readings",), CITY_BATCHING,
        ),
        Workload(
            "osaka-async",
            "osaka on the asyncio backend, free-running: the only workload "
            "that runs the async clock, transport and task loop",
            OSAKA_HORIZON, "async", _build_osaka, _OSAKA_SINKS,
        ),
    )
}


# -- one run -------------------------------------------------------------------


def canon(value):
    """Hashable, order-free form of a payload value, floats to 9 decimals."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, Mapping):
        return tuple(sorted((k, canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    return value


def _multiset(items) -> "list[str]":
    return sorted(f"{key!r}*{count}" for key, count in Counter(items).items())


@dataclass(frozen=True)
class RunSummary:
    """A finished run, reduced to what the checks and metrics read."""

    setup_s: float
    run_s: float
    readings: int
    failed: int
    digest: str
    totals: dict
    counts: dict


class Run:
    """A deployed workload, ready to run to its horizon.

    ``setup_s`` covers stack construction, fleet attachment, translation,
    placement and deploy: everything before the first clock event.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        oracle: bool = False,
        wrap_generator=None,
    ) -> None:
        self.workload = workload
        backend = "sim" if oracle else workload.backend
        start = time.perf_counter()
        self.stack, flow, self.fleet = workload.build(
            seed, backend, workload.batching, wrap_generator
        )
        # The oracle is the simulator, unfused, on the row path.
        self.deployment = self.stack.executor.deploy(
            flow, fuse=not oracle, columnar=not oracle
        )
        self.setup_s = time.perf_counter() - start
        self.latencies: "list[float]" = []
        self._probe_sinks()
        self.events = 0
        self.steps_s: "list[float]" = []
        self.run_s = 0.0

    def _probe_sinks(self) -> None:
        clock = self.stack.clock
        latencies = self.latencies
        for name in self.workload.latency_sinks:
            operator = self.deployment.process(name).operator
            on_tuple, on_batch = operator.on_tuple, operator.on_batch

            def probed_tuple(tuple_, port=0, _inner=on_tuple):
                latencies.append(clock.now - tuple_.stamp.time)
                return _inner(tuple_, port)

            def probed_batch(tuples, port=0, _inner=on_batch):
                now = clock.now
                latencies.extend(now - t.stamp.time for t in tuples)
                return _inner(tuples, port)

            operator.on_tuple, operator.on_batch = probed_tuple, probed_batch

    def run(self, between: "Callable[[], object] | None" = None) -> float:
        """Run to the horizon in ``SEGMENTS`` equal virtual steps.

        ``between`` is called before the first step and after each one,
        outside the timed steps.  ``steps_s`` keeps each step's wall
        seconds and ``run_s`` their sum.
        """
        horizon = self.workload.horizon
        run_until = self.stack.run_until
        self.events = 0
        self.steps_s = []
        for step in range(1, SEGMENTS + 1):
            if between is not None:
                between()
            start = time.perf_counter()
            self.events += run_until(horizon * step / SEGMENTS)
            self.steps_s.append(time.perf_counter() - start)
        if between is not None:
            between()
        self.run_s = sum(self.steps_s)
        return self.run_s

    def close(self) -> None:
        self.stack.close()

    def summary(self) -> "RunSummary":
        """What the checks need from a finished run, without its stack."""
        return RunSummary(
            setup_s=self.setup_s,
            run_s=self.run_s,
            readings=self.readings,
            failed=self.failed_readings(),
            digest=self.output_digest(),
            totals=self.logical_totals(),
            counts=self.run_counts(),
        )

    @property
    def readings(self) -> int:
        return sum(sensor.emitted for sensor in self.fleet)

    def failed_readings(self) -> int:
        """Readings dropped in the network or dead-lettered by the broker."""
        return (
            self.stack.netsim.stats.messages_dropped
            + self.stack.broker_network.data_messages_dead_lettered
        )

    def output_digest(self) -> str:
        """Order-free digest of warehouse, sticker and collector contents."""
        warehouse = _multiset(
            (round(f.event_time, 9), canon(f.measures), canon(f.attributes))
            for f in self.stack.warehouse.facts
        )
        sticker = sorted(
            repr((p.bucket_start, p.row, p.col, p.theme, p.count,
                  canon(p.numeric_sums), canon(p.numeric_counts)))
            for p in self.stack.sticker._bins.values()
        )
        collectors = {
            name: _multiset(
                (t.source, t.seq, round(t.stamp.time, 9), canon(t.payload))
                for t in sink.received
            )
            for name, sink in sorted(self.deployment.collectors.items())
        }
        blob = repr((warehouse, self.stack.sticker.pushed, sticker, collectors))
        return hashlib.sha256(blob.encode()).hexdigest()

    def logical_totals(self) -> dict:
        """Counts every knob setting and backend must reproduce exactly."""
        broker = self.stack.broker_network
        latencies = sorted(round(x, 9) for x in self.latencies)
        return {
            "readings": self.readings,
            "broker_tuples_sent": broker.data_tuples_sent,
            "broker_tuples_suppressed": broker.data_tuples_suppressed,
            "dead_lettered": broker.data_messages_dead_lettered,
            "warehouse_rows": len(self.stack.warehouse.facts),
            "sticker_pushes": self.stack.sticker.pushed,
            "collector_rows": sum(
                len(s.received) for s in self.deployment.collectors.values()
            ),
            "latency_samples": len(latencies),
            "latency_digest": hashlib.sha256(
                repr(latencies).encode()
            ).hexdigest()[:16],
        }

    def run_counts(self) -> dict:
        """Logical totals plus the counts one knob setting must repeat."""
        stats = self.stack.netsim.stats
        counts = self.logical_totals()
        counts.update(
            clock_events=self.events,
            messages=stats.messages_sent,
            tuples=stats.tuples_sent,
            tuples_delivered=stats.tuples_delivered,
            dropped=stats.messages_dropped,
            deliveries=sum(
                s.delivered for s in self.stack.broker_network.iter_subscriptions()
            ),
            operator_tuples_in=sum(
                p.operator.stats.tuples_in
                for p in self.deployment.processes.values()
            ),
        )
        return counts

"""Pinned output of two seeded end-to-end runs.

The determinism audit and the benchmark's oracle compare the program with
itself, so a change that alters what a sensor draws, or the order it draws
in, passes both.  This test compares against digests recorded once: the
Section 3 osaka scenario (seed 7, 15 virtual hours) and the benchmark's
``city`` fleet and flow (seed 7).  Each digest is an order-free sha256 of
the warehouse facts, the sticker bins and every collector's tuples (floats
at 9 decimals, as the backend parity helpers canonicalise them), plus the
counts of readings, clock events and network messages.

A performance change must leave these digests alone.  A deliberate
scenario change (new draws, a different activity curve, another fleet)
updates :data:`GOLDEN` in its own change, with the reason in its history.
"""

from __future__ import annotations

import hashlib

import pytest

from perfbench.workloads import CITY_HORIZON, OSAKA_HORIZON, city_fleet, city_flow
from repro.scenario import build_stack, osaka_scenario_flow
from tests.parity._compare import sink_multiset, sticker_snapshot, warehouse_multiset

#: Digests recorded before the per-reading fast paths landed (DESIGN.md §18).
GOLDEN = {
    "osaka": "34b82b427144bbb4f8ad56fc8650c7e853875f3d6cf8e0e8890061532c5a3d33",
    "city": "4f68ab44eb068d0804b947e52ac5f405e7231c88fae857c88a7fe284da71bcad",
}


def _osaka():
    stack = build_stack(hot=True, seed=7)
    return stack, osaka_scenario_flow(stack), stack.fleet, OSAKA_HORIZON


def _city():
    stack = build_stack(hot=True, seed=7, attach_fleet=False)
    fleet = city_fleet(stack, 7)
    for sensor in fleet:
        sensor.attach(stack.broker_network, stack.clock)
    return stack, city_flow(), fleet, CITY_HORIZON


BUILDS = {"osaka": _osaka, "city": _city}


def _sorted_reprs(items) -> "list[str]":
    return sorted(repr(item) for item in items)


def output_digest(build) -> str:
    stack, flow, fleet, horizon = build()
    with stack:
        deployment = stack.executor.deploy(flow)
        events = stack.run_until(horizon)
        pushed, bins = sticker_snapshot(stack.sticker)
        collectors = [
            (name, _sorted_reprs(sink_multiset(sink.received).items()))
            for name, sink in sorted(deployment.collectors.items())
        ]
        blob = repr((
            _sorted_reprs(warehouse_multiset(stack.warehouse).items()),
            pushed,
            _sorted_reprs(bins.items()),
            collectors,
            sum(sensor.emitted for sensor in fleet),
            events,
            stack.netsim.stats.messages_sent,
        ))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_output_matches_golden(workload):
    assert output_digest(BUILDS[workload]) == GOLDEN[workload]

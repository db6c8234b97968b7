"""Unit tests for the execution-backend seam."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, StreamLoaderError
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.runtime.backends import (
    AsyncBackend,
    ExecutionBackend,
    SimBackend,
    backend_from_name,
    live_backends,
)
from repro.scenario import build_stack


class TestBackendRegistry:
    def test_names_resolve(self):
        sim = backend_from_name("sim", topology=Topology.star(leaf_count=2))
        assert sim.name == "sim"
        asy = backend_from_name("async", topology=Topology.star(leaf_count=2))
        try:
            assert asy.name == "async"
        finally:
            asy.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(StreamLoaderError, match="unknown backend"):
            backend_from_name("threads")

    def test_transport_is_self_describing(self):
        topo = Topology.star(leaf_count=2)
        assert backend_from_name("sim", topology=topo).transport.backend_name == "sim"
        with AsyncBackend(topology=topo) as asy:
            assert asy.transport.backend_name == "async"


class TestSimBackend:
    def test_wraps_existing_netsim_unchanged(self):
        netsim = NetworkSimulator(topology=Topology.star(leaf_count=2))
        backend = SimBackend(netsim)
        assert backend.transport is netsim
        assert backend.clock is netsim.clock
        assert backend.topology is netsim.topology

    def test_run_until_drives_the_sim_clock(self):
        backend = SimBackend(topology=Topology.star(leaf_count=2))
        fired = []
        backend.clock.schedule(5.0, lambda: fired.append(backend.clock.now))
        backend.run_until(10.0)
        assert fired == [5.0]
        assert backend.clock.now == 10.0

    def test_host_process_is_a_noop(self):
        backend = SimBackend(topology=Topology.star(leaf_count=2))
        backend.host_process(object())  # nothing to do, nothing to raise
        backend.close()  # idempotent no-op
        backend.close()


class TestAsyncBackendLifecycle:
    def test_timers_fire_at_logical_instants(self):
        with AsyncBackend(topology=Topology.star(leaf_count=2)) as backend:
            fired = []
            backend.clock.schedule(5.0, lambda: fired.append(backend.clock.now))
            backend.clock.schedule(1.0, lambda: fired.append(backend.clock.now))
            backend.run_until(10.0)
            assert fired == [1.0, 5.0]
            assert backend.clock.now == 10.0

    def test_epochs_pass_callback_arguments(self):
        with AsyncBackend(topology=Topology.star(leaf_count=2)) as backend:
            fired = []
            backend.clock.schedule(1.0, fired.append, "a")
            backend.clock.schedule(1.0, lambda: fired.append("bare"))
            backend.clock.schedule_at(3.0, lambda *args: fired.append(args), 1, 2)
            backend.run_until(5.0)
            assert fired == ["a", "bare", (1, 2)]

    def test_clock_run_until_delegates_to_backend(self):
        with AsyncBackend(topology=Topology.star(leaf_count=2)) as backend:
            fired = []
            backend.clock.schedule(1.0, lambda: fired.append(True))
            backend.clock.run_until(2.0)
            assert fired == [True]

    def test_sync_stepping_refused(self):
        with AsyncBackend(topology=Topology.star(leaf_count=2)) as backend:
            with pytest.raises(SimulationError, match="run_until"):
                backend.clock.run()
            with pytest.raises(SimulationError, match="run_until"):
                backend.clock.step()

    def test_running_backwards_refused(self):
        with AsyncBackend(topology=Topology.star(leaf_count=2)) as backend:
            backend.run_until(10.0)
            with pytest.raises(SimulationError, match="backwards"):
                backend.run_until(5.0)

    def test_close_is_idempotent_and_deregisters(self):
        backend = AsyncBackend(topology=Topology.star(leaf_count=2))
        assert backend in live_backends()
        backend.close()
        assert backend.closed
        assert backend not in live_backends()
        backend.close()  # second close is a no-op
        with pytest.raises(SimulationError, match="closed"):
            backend.run_until(1.0)

    def test_wall_clock_exposed(self):
        with AsyncBackend(topology=Topology.star(leaf_count=2)) as backend:
            first = backend.clock.wall_now
            assert first >= 0.0
            assert backend.clock.wall_now >= first

    def test_zero_delay_cascade_guard(self):
        with AsyncBackend(topology=Topology.star(leaf_count=2)) as backend:
            def reschedule():
                backend.clock.schedule(0.0, reschedule)

            backend.clock.schedule(1.0, reschedule)
            with pytest.raises(SimulationError, match="events"):
                backend.run_until(2.0, max_events=1000)


class TestBackendSurfacing:
    def test_monitor_report_names_the_backend(self):
        stack = build_stack(backend="async", attach_fleet=False)
        with stack:
            report = stack.executor.monitor.report()
        assert report["backend"] == "async"
        assert "[async]" in stack.executor.monitor.render_dashboard()

    def test_sim_dashboard_header_unchanged(self):
        stack = build_stack(attach_fleet=False)
        report = stack.executor.monitor.report()
        assert report["backend"] == "sim"
        header = stack.executor.monitor.render_dashboard().splitlines()[0]
        assert header.endswith("==")  # no backend tag on the oracle

    def test_spans_carry_wall_stamps_only_on_async(self):
        for backend, expect_wall in (("sim", False), ("async", True)):
            stack = build_stack(
                backend=backend, attach_fleet=False, observability=True
            )
            with stack:
                tracer = stack.obs.tracer
                ctx = tracer.start_trace("publish", stack.clock.now)
                spans = tracer.trace(ctx.trace_id)
                assert spans
                if expect_wall:
                    assert spans[0].wall is not None
                else:
                    assert spans[0].wall is None

    def test_executor_defaults_to_sim_backend(self):
        stack = build_stack(attach_fleet=False)
        assert isinstance(stack.executor.backend, SimBackend)
        assert isinstance(stack.backend, ExecutionBackend)
        assert stack.executor.backend.transport is stack.netsim

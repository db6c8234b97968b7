"""The asyncio backend: wall-clock execution with the sim as its oracle.

Every :class:`~repro.runtime.process.OperatorProcess` becomes an asyncio
task draining a bounded mailbox; every network message crosses a bounded
per-node queue drained by that node's pump task.  Full queues suspend the
producing coroutine (``await queue.put``), so backpressure propagates
upstream instead of dropping tuples.  Node death cancels the hosted
tasks; the heartbeat detector, checkpoint restore and shard-merge
punctuation all run unchanged on top.

**Epoch-barrier execution.**  Timers and message deliveries keep their
*logical* instants: the clock is the same deadline heap as the simulator
(:class:`AsyncClock` inherits :class:`~repro.network.simclock.SimClock`),
and the driver advances one deadline ("epoch") at a time —

1. optionally sleep on the wall clock until the epoch is due
   (``time_scale`` virtual seconds per wall second; ``None`` free-runs),
2. fire every callback scheduled at exactly that instant, in the
   simulator's (time, sequence) order,
3. flush the deliveries those callbacks staged into the bounded queues,
4. **drain**: await quiescence (every queue empty, every task idle)
   before the next epoch may begin.

Inside an epoch, deliveries and operator work run concurrently across
tasks in whatever order the event loop schedules them — that is the
genuinely asynchronous (and nondeterministic) part.  Across epochs,
``clock.now`` reports logical deadlines, so emission stamps, window
contents, flush instants, retry backoff times and QoS drop decisions are
identical to the simulator's.  The parity suite exploits exactly this
split: sink *multisets* match the sim byte for byte while sink *order*
may not.

Known caveat (documented in DESIGN.md §17): a timer scheduled at the
same float instant as a *local* (zero-delay) delivery runs before it
here, whereas the simulator interleaves both by sequence number.  None
of the shipped scenarios create that shape; the parity suite would catch
one that did.
"""

from __future__ import annotations

import asyncio
import heapq
import time as _wall
import weakref
from typing import Callable

from repro.errors import SimulationError
from repro.network.netsim import Message, NetworkSimulator
from repro.network.qos import QosPolicy
from repro.network.simclock import SimClock
from repro.network.topology import Topology
from repro.runtime.backends.base import ExecutionBackend

#: AsyncBackend instances not yet closed — the test plane's flake guard
#: sweeps this set to fail any test that leaks an event loop or tasks.
_LIVE_BACKENDS: "weakref.WeakSet[AsyncBackend]" = weakref.WeakSet()


def live_backends() -> "list[AsyncBackend]":
    """Unclosed AsyncBackend instances (for the pytest flake guard)."""
    return [backend for backend in _LIVE_BACKENDS if not backend.closed]


class AsyncClock(SimClock):
    """The simulator's deadline heap, fired by the backend's epoch driver.

    ``schedule`` / ``schedule_at`` / ``schedule_periodic`` / ``cancel``
    are inherited unchanged — including the (time, insertion-sequence)
    tie-break — which is what keeps same-instant timer ordering identical
    to the simulator's.  ``now`` reports the logical time of the current
    epoch, so stamps and window ends are deterministic even though the
    callbacks run against the wall clock.  ``run_until`` delegates to the
    owning backend, so ``stack.clock.run_until(...)`` transparently
    drives the event loop.
    """

    def __init__(self, start: float = 0.0) -> None:
        super().__init__(start)
        self._backend: "AsyncBackend | None" = None
        self._wall_epoch = _wall.monotonic()

    @property
    def wall_now(self) -> float:
        """Wall-clock seconds since this clock was created (monotonic).

        The tracer binds this as its wall source, so spans carry real
        timestamps next to their virtual ones (DESIGN.md §17).
        """
        return _wall.monotonic() - self._wall_epoch

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        if self._backend is None:
            raise SimulationError("AsyncClock is not attached to a backend")
        return self._backend.run_until(time, max_events=max_events)

    def run(self, max_events: int = 10_000_000) -> int:
        raise SimulationError(
            "AsyncClock cannot free-run synchronously; use run_until"
        )

    def step(self) -> bool:
        raise SimulationError(
            "AsyncClock cannot step synchronously; use run_until"
        )

    # -- epoch-driver hooks (backend-internal) ------------------------------

    def _next_deadline(self) -> "float | None":
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _run_epoch(self, deadline: float, budget: int) -> int:
        """Run every event due at exactly ``deadline`` in sequence order.

        Zero-delay events scheduled *by* those callbacks land at the same
        instant and are included (matching ``SimClock.run_until``).
        """
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        self._now = deadline
        while heap and heap[0][0] <= deadline:
            _, _, event = heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.done = True
            event.callback(*event.args)
            executed += 1
            if executed >= budget:
                raise SimulationError(
                    f"epoch at t={deadline} exceeded {budget} events; "
                    f"likely a zero-delay rescheduling loop"
                )
        return executed

    def _finish(self, time: float) -> None:
        self._now = time


class AsyncTransport(NetworkSimulator):
    """The NetworkSimulator protocol over the backend's bounded queues.

    Routing, QoS admission, link accounting, traffic stats, tracing and
    every drop reason are inherited from the simulator; only
    :meth:`_schedule_delivery` differs — the message lands in the target
    node's bounded queue at its logical delivery instant and the node's
    pump task delivers it, dropping it with the simulator's exact reason
    string if the node died in flight.  Processes, the broker and the
    monitor run against this object unmodified.
    """

    backend_name = "async"

    def __init__(
        self,
        backend: "AsyncBackend",
        topology: "Topology | None" = None,
        clock: "AsyncClock | None" = None,
        default_qos: "QosPolicy | None" = None,
    ) -> None:
        super().__init__(topology=topology, clock=clock, default_qos=default_qos)
        self._backend = backend
        self._stage_link = backend._stage_link

    def _schedule_delivery(
        self,
        message: Message,
        delay: float,
        on_delivery: Callable[[object], None],
        on_drop: "Callable[[Message, str], None] | None",
    ) -> None:
        self.clock.schedule(delay, self._stage_link, message, on_delivery, on_drop)

    # -- process-host hooks (duck-typed by OperatorProcess) ------------------

    def process_moved(self, process) -> None:
        """A hosted process migrated; make sure it has a live task again."""
        self._backend._ensure_hosted(process)

    def unhost_process(self, process) -> None:
        """A process stopped; cancel its task and restore its methods."""
        self._backend._unhost(process)

    # -- fault injection -----------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        """Fail the node *and* cancel the tasks of processes hosted on it.

        The node's pump keeps running: messages already queued (or still
        in flight) reach ``_deliver`` and are dropped there with the
        simulator's "target node ... is down" reason, so the broker's
        retry/dead-letter path behaves identically on both backends.
        """
        super().kill_node(node_id)
        self._backend._cancel_node_hosts(node_id)

    def revive_node(self, node_id: str) -> None:
        super().revive_node(node_id)
        self._backend._restart_node_hosts(node_id)


class _ProcessHost:
    """One hosted process: a bounded mailbox drained by one asyncio task."""

    __slots__ = ("backend", "process", "inbox", "task", "alive",
                 "receive", "receive_batch")

    def __init__(self, backend: "AsyncBackend", process, capacity: int) -> None:
        self.backend = backend
        self.process = process
        self.inbox: "asyncio.Queue" = asyncio.Queue(maxsize=capacity)
        self.task: "asyncio.Task | None" = None
        self.alive = False
        # Original bound methods; the instance attributes installed by
        # host_process shadow them so the wiring's PortDelivery callables
        # (which look the method up at call time) enqueue into the
        # mailbox instead.
        self.receive = process.receive
        self.receive_batch = process.receive_batch

    def submit(self, tuple_, port: int = 0) -> None:
        self.backend._stage_mail(self, (False, tuple_, port))

    def submit_batch(self, batch, port: int = 0) -> None:
        self.backend._stage_mail(self, (True, batch, port))


class _NodePump:
    """One network node's bounded link queue and its pump task."""

    __slots__ = ("queue", "task")

    def __init__(self, capacity: int) -> None:
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=capacity)
        self.task: "asyncio.Task | None" = None


class AsyncBackend(ExecutionBackend):
    """Wall-clock asyncio execution (see the module docstring).

    Args:
        topology: network topology (defaults to an empty one).
        default_qos: transport-wide QoS policy.
        time_scale: virtual seconds per wall second.  ``None`` (default)
            free-runs — epochs fire as fast as quiescence allows; a
            positive value paces each epoch against the wall clock
            (``time_scale=60`` runs a virtual minute per real second).
        link_capacity: bound of each per-node network queue.
        mailbox_capacity: bound of each hosted process's mailbox.
        max_wall: optional wall-clock budget (seconds) per ``run_until``
            call; exceeding it raises instead of hanging — the test
            plane's no-hang guarantee.
    """

    name = "async"

    def __init__(
        self,
        topology: "Topology | None" = None,
        default_qos: "QosPolicy | None" = None,
        *,
        time_scale: "float | None" = None,
        link_capacity: int = 256,
        mailbox_capacity: int = 256,
        max_wall: "float | None" = None,
    ) -> None:
        if time_scale is not None and time_scale <= 0:
            time_scale = None  # 0 / negative: free-run (the CLI default)
        self.time_scale = time_scale
        self.link_capacity = link_capacity
        self.mailbox_capacity = mailbox_capacity
        self.max_wall = max_wall
        self.clock = AsyncClock()
        self.clock._backend = self
        self.transport = AsyncTransport(
            self, topology=topology, clock=self.clock, default_qos=default_qos
        )
        self.topology = self.transport.topology
        self.closed = False
        #: Times a producer found its target queue full and had to wait —
        #: the observable proof that backpressure stalls instead of drops.
        self.backpressure_stalls = 0
        self._loop = asyncio.new_event_loop()
        self._pumps: dict[str, _NodePump] = {}
        self._hosts: dict[int, _ProcessHost] = {}
        #: Deliveries whose logical instant arrived this epoch, awaiting
        #: their queue put (staged by clock callbacks, flushed by the
        #: driver so the put can suspend on a full queue).
        self._staged_links: list = []
        #: Mailbox submissions staged by patched ``receive`` calls inside
        #: a synchronous dispatch; the enclosing coroutine awaits them.
        self._staged_mail: list = []
        self._inflight = 0
        self._quiet: "asyncio.Event | None" = None
        self._reap: "list[asyncio.Task]" = []
        self._wall_base: "float | None" = None
        self._logical_base = 0.0
        _LIVE_BACKENDS.add(self)

    # -- process hosting -----------------------------------------------------

    def host_process(self, process) -> None:
        """Give ``process`` a mailbox and an asyncio task.

        ``process.receive`` / ``receive_batch`` are shadowed by instance
        attributes that enqueue into the mailbox; the task dispatches via
        the original bound methods, so liveness checks, work accounting
        and forwarding are untouched.
        """
        key = id(process)
        if key in self._hosts:
            return
        host = _ProcessHost(self, process, self.mailbox_capacity)
        self._hosts[key] = host
        process.receive = host.submit
        process.receive_batch = host.submit_batch
        self._start_host(host)

    def _start_host(self, host: _ProcessHost) -> None:
        host.alive = True
        host.task = self._loop.create_task(self._host_loop(host))

    def _ensure_hosted(self, process) -> None:
        host = self._hosts.get(id(process))
        if host is not None and not host.alive:
            self._start_host(host)

    def _unhost(self, process) -> None:
        host = self._hosts.pop(id(process), None)
        if host is None:
            return
        self._kill_host(host)
        for name in ("receive", "receive_batch"):
            try:
                delattr(process, name)
            except AttributeError:
                pass

    def _kill_host(self, host: _ProcessHost) -> None:
        host.alive = False
        if host.task is not None:
            host.task.cancel()
            self._reap.append(host.task)
            host.task = None
        # Mailbox tuples die with the task: they were delivered but not
        # yet processed — the same post-delivery loss the checkpoint
        # recovery bound documents for the simulator.
        while not host.inbox.empty():
            host.inbox.get_nowait()
            self._dec()

    def _cancel_node_hosts(self, node_id: str) -> None:
        for host in self._hosts.values():
            if host.process.node_id == node_id and host.alive:
                self._kill_host(host)

    def _restart_node_hosts(self, node_id: str) -> None:
        for host in self._hosts.values():
            if host.process.node_id == node_id and not host.alive:
                self._start_host(host)

    # -- staging / quiescence accounting -------------------------------------

    def _stage_link(self, message, on_delivery, on_drop) -> None:
        self._staged_links.append((message, on_delivery, on_drop))

    def _stage_mail(self, host: _ProcessHost, item) -> None:
        if not host.alive:
            return  # its node died; the simulator loses these tuples too
        self._staged_mail.append((host, item))

    def _dec(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self._quiet is not None:
            self._quiet.set()

    async def _put(self, queue: "asyncio.Queue", item) -> None:
        """Bounded put, counted in flight from before the (possible) wait.

        Counting first means the drain barrier can never observe zero
        while a put is suspended on a full queue.
        """
        if queue.full():
            self.backpressure_stalls += 1
        self._inflight += 1
        try:
            await queue.put(item)
        except asyncio.CancelledError:
            self._dec()
            raise

    async def _flush_mail(self) -> None:
        staged = self._staged_mail
        if not staged:
            return
        self._staged_mail = []
        for host, item in staged:
            await self._put(host.inbox, item)

    async def _flush_staged(self) -> None:
        while self._staged_links or self._staged_mail:
            links = self._staged_links
            if links:
                self._staged_links = []
                for message, on_delivery, on_drop in links:
                    pump = self._node_pump(message.target)
                    await self._put(pump.queue, (message, on_delivery, on_drop))
            await self._flush_mail()

    async def _drain(self) -> None:
        while self._inflight > 0:
            self._quiet = asyncio.Event()
            if self._inflight > 0:
                await self._quiet.wait()
        self._quiet = None

    # -- the tasks -----------------------------------------------------------

    def _node_pump(self, node_id: str) -> _NodePump:
        pump = self._pumps.get(node_id)
        if pump is None:
            pump = self._pumps[node_id] = _NodePump(self.link_capacity)
            pump.task = self._loop.create_task(self._pump_loop(pump))
        return pump

    async def _pump_loop(self, pump: _NodePump) -> None:
        queue = pump.queue
        transport = self.transport
        while True:
            message, on_delivery, on_drop = await queue.get()
            try:
                # Inherited delivery: liveness drop, stats, tracer, then
                # the callback — which may stage mailbox submissions that
                # this coroutine awaits (real backpressure) right after.
                transport._deliver(message, on_delivery, on_drop)
                await self._flush_mail()
            finally:
                self._dec()

    async def _host_loop(self, host: _ProcessHost) -> None:
        inbox = host.inbox
        while True:
            is_batch, payload, port = await inbox.get()
            try:
                if is_batch:
                    host.receive_batch(payload, port)
                else:
                    host.receive(payload, port)
                await self._flush_mail()
            finally:
                self._dec()

    # -- the epoch driver ----------------------------------------------------

    async def _pace(self, deadline: float) -> None:
        scale = self.time_scale
        if scale is None:
            return
        if self._wall_base is None:
            self._wall_base = self._loop.time()
            self._logical_base = deadline
        target = self._wall_base + (deadline - self._logical_base) / scale
        delay = target - self._loop.time()
        if delay > 0:
            await asyncio.sleep(delay)

    async def _reap_cancelled(self) -> None:
        tasks, self._reap = self._reap, []
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _advance(self, until: float, max_events: int) -> int:
        clock = self.clock
        executed = 0
        wall_start = self._loop.time()
        while True:
            if self._reap:
                await self._reap_cancelled()
            deadline = clock._next_deadline()
            if deadline is None or deadline > until:
                break
            await self._pace(deadline)
            executed += clock._run_epoch(deadline, max_events - executed)
            await self._flush_staged()
            await self._drain()
            if (
                self.max_wall is not None
                and self._loop.time() - wall_start > self.max_wall
            ):
                raise SimulationError(
                    f"async run_until({until}) exceeded the "
                    f"{self.max_wall}s wall budget at t={clock.now}"
                )
        clock._finish(until)
        return executed

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        if self.closed:
            raise SimulationError("backend is closed")
        if time < self.clock.now:
            raise SimulationError(
                f"cannot run backwards to {time} from {self.clock.now}"
            )
        return self._loop.run_until_complete(self._advance(time, max_events))

    # -- teardown / the flake-guard surface ----------------------------------

    def pending_tasks(self) -> "list[asyncio.Task]":
        """Unfinished tasks on this backend's loop (empty once closed)."""
        if self.closed:
            return []
        return [t for t in asyncio.all_tasks(self._loop) if not t.done()]

    def close(self) -> None:
        """Cancel every task and close the event loop.  Idempotent."""
        if self.closed:
            return
        pending = self.pending_tasks()
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()
        self._pumps.clear()
        self._hosts.clear()
        self._staged_links.clear()
        self._staged_mail.clear()
        self.closed = True

"""The broker overlay: advertisement propagation and data routing.

One :class:`Broker` per network node holds the subscriptions of the
processes running there.  The :class:`BrokerNetwork` coordinates them:
publishing a sensor registers its metadata, propagates the advertisement to
every other broker (costed on the simulated links), and matches it against
standing subscriptions; data tuples flow from the sensor's managing node to
each matching *active* subscriber.

Paused subscriptions suppress traffic **at the source**: no message is sent
for them, which is precisely why the paper's trigger-gated acquisition
saves network resources rather than merely hiding data.

Delivery is **at-most-once with bounded retry**: a data message lost in the
network (no route, QoS budget, target died in flight) is retransmitted with
exponential backoff up to :class:`RetryPolicy.max_attempts` times; a tuple
whose budget is exhausted lands in the subscription's dead-letter queue and
is surfaced through the monitor instead of vanishing silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import PubSubError, UnknownSensorError
from repro.network.netsim import NetworkSimulator
from repro.obs.lineage import tuple_key
from repro.pubsub.partition import ShardRouter
from repro.pubsub.registry import SensorMetadata, SensorRegistry
from repro.pubsub.subscription import Subscription, SubscriptionFilter
from repro.streams.tuple import (
    SensorTuple,
    TupleBatch,
    estimate_batch_size_bytes,
    estimate_size_bytes,
)

#: Wire size of a sensor advertisement (id + type + schema summary).
_ADVERTISEMENT_BYTES = 256


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for data-message redelivery.

    Attempt ``n`` (1-based; the first retry is attempt 1) is scheduled
    ``base_delay * multiplier**(n-1)`` seconds after the loss, capped at
    ``max_delay``.  ``max_attempts`` retries happen before a tuple is
    dead-lettered, so a tuple is transmitted at most ``max_attempts + 1``
    times — the documented at-most-once bound.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise PubSubError(f"max_attempts must be >= 0: {self.max_attempts}")
        if self.base_delay <= 0 or self.multiplier < 1.0 or self.max_delay <= 0:
            raise PubSubError(
                f"invalid backoff: base {self.base_delay}, "
                f"multiplier {self.multiplier}, cap {self.max_delay}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))


@dataclass
class Broker:
    """Per-node broker: the subscriptions homed on one network node.

    Subscriptions are stored in an insertion-ordered dict keyed by
    ``subscription_id``, so removal is O(1) instead of a list scan;
    :attr:`subscriptions` exposes them as a list for callers.
    """

    node_id: str
    _subscriptions: dict[str, Subscription] = field(default_factory=dict)
    #: Sensor ids this broker has seen advertised (overlay propagation).
    known_sensors: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        # Bound once: every advertisement sent here is delivered through
        # the same callable.
        self.receive_advertisement = self.receive_advertisement

    def receive_advertisement(self, payload: "tuple[str, str]") -> None:
        """An ``("advertise", sensor_id)`` message arrived over the overlay."""
        self.known_sensors.add(payload[1])

    @property
    def subscriptions(self) -> list[Subscription]:
        """The broker's subscriptions in insertion order."""
        return list(self._subscriptions.values())

    def add_subscription(self, subscription: Subscription) -> None:
        self._subscriptions[subscription.subscription_id] = subscription

    def remove_subscription(self, subscription: Subscription) -> None:
        if self._subscriptions.pop(subscription.subscription_id, None) is None:
            raise PubSubError(
                f"subscription {subscription.subscription_id} not on "
                f"broker {self.node_id!r}"
            )


class _Attempt:
    """One transmission attempt of a tuple: its loss handler.

    Passed to the transport as ``on_drop``; carries what a retry needs as
    slots instead of in a closure.
    """

    __slots__ = ("network", "metadata", "subscription", "payload", "attempt")

    def __init__(
        self,
        network: "BrokerNetwork",
        metadata: SensorMetadata,
        subscription: Subscription,
        payload: "SensorTuple | TupleBatch",
        attempt: int,
    ) -> None:
        self.network = network
        self.metadata = metadata
        self.subscription = subscription
        self.payload = payload
        self.attempt = attempt

    def __call__(self, _message: object, reason: str) -> None:
        self.network._on_loss(
            self.metadata, self.subscription, self.payload, self.attempt, reason
        )


class _BatchAttempt(_Attempt):
    """One transmission attempt of a micro-batch: its loss handler."""

    __slots__ = ()

    def __call__(self, _message: object, reason: str) -> None:
        self.network._on_batch_loss(
            self.metadata, self.subscription, self.payload, self.attempt, reason
        )


class _TrackedDelivery:
    """Delivery to one subscription while the latency plane is installed:
    settles the subscription's backlog and notes the delivery first."""

    __slots__ = ("subscription", "plane", "clock")

    def __init__(self, subscription: Subscription, plane, clock) -> None:
        self.subscription = subscription
        self.plane = plane
        self.clock = clock

    def __call__(self, tuple_: SensorTuple) -> None:
        subscription = self.subscription
        subscription.inflight -= 1
        self.plane.note_deliver(
            str(subscription.subscription_id), self.clock.now, tuple_.stamp.time
        )
        subscription.deliver(tuple_)


class _TrackedBatchDelivery(_TrackedDelivery):
    """:class:`_TrackedDelivery` for micro-batches."""

    __slots__ = ()

    def __call__(self, batch: TupleBatch) -> None:
        subscription = self.subscription
        subscription.inflight -= 1
        self.plane.note_deliver_batch(
            str(subscription.subscription_id), self.clock.now, batch
        )
        subscription.deliver_batch(batch)


class BrokerNetwork:
    """The distributed pub-sub system over the simulated network.

    With ``netsim=None`` the broker network runs in-process with immediate
    delivery — handy for unit tests and the centralized baseline; with a
    simulator, every advertisement and data tuple crosses the topology and
    is charged to its links.
    """

    def __init__(
        self,
        netsim: "NetworkSimulator | None" = None,
        registry: "SensorRegistry | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        obs: "object | None" = None,
    ) -> None:
        self.netsim = netsim
        self.registry = registry if registry is not None else SensorRegistry()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: Observability bundle (``repro.obs.Observability``).  The broker
        #: is where traces *begin*: a sampled publication gets a root
        #: ``publish`` span and the context rides the tuple from there.
        #: Assigning the ``obs`` property (also after construction — the
        #: executor attaches its bundle to a bare broker network) caches
        #: the hot-path counter instruments.
        self.obs = obs
        self._brokers: dict[str, Broker] = {}
        #: sensor_id -> matching route entries.  An entry is either a
        #: plain :class:`Subscription` or a :class:`ShardRouter` standing
        #: in for its member subscriptions (one entry per router, however
        #: many shards it fans to).
        self._routes: dict[str, "list[Subscription | ShardRouter]"] = {}
        self.on_sensor_published: "Callable[[SensorMetadata], None] | None" = None
        self.on_sensor_unpublished: "Callable[[SensorMetadata], None] | None" = None
        #: Called with (subscription, tuple, reason) when retries exhaust.
        self.on_dead_letter: "Callable[[Subscription, SensorTuple, str], None] | None" = None
        self.advertisements_sent = 0
        self.data_messages_sent = 0
        self.data_messages_suppressed = 0
        self.data_messages_retried = 0
        self.data_messages_dead_lettered = 0
        #: Tuples routed to subscribers — equals ``data_messages_sent``
        #: without batching; with batching, one message carries many tuples.
        self.data_tuples_sent = 0
        self.data_tuples_suppressed = 0

    @property
    def obs(self) -> "object | None":
        return self._obs

    @obs.setter
    def obs(self, value: "object | None") -> None:
        self._obs = value
        self._published_counters: dict[str, object] = {}
        if value is None:
            self._retry_counter = None
            self._dead_letter_counter = None
            return
        self._retry_counter = value.metrics.counter(
            "broker_retries_total", "data-message redelivery attempts"
        )
        self._dead_letter_counter = value.metrics.counter(
            "broker_dead_letters_total",
            "tuples dead-lettered after retry exhaustion",
        )
        self._batch_size_histogram = value.metrics.histogram(
            "broker_batch_size",
            "tuples per published micro-batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        )

    # -- broker membership ---------------------------------------------------

    def broker(self, node_id: str) -> Broker:
        """The broker on ``node_id`` (created on first use).

        A broker created after sensors have already been published missed
        their advertisements, so ``known_sensors`` is back-filled from the
        registry — the overlay's ground truth — on creation.
        """
        if self.netsim is not None and node_id not in self.netsim.topology:
            raise PubSubError(f"no network node {node_id!r} to host a broker")
        if node_id not in self._brokers:
            self._brokers[node_id] = Broker(
                node_id=node_id,
                known_sensors={m.sensor_id for m in self.registry.all()},
            )
        return self._brokers[node_id]

    @property
    def brokers(self) -> list[Broker]:
        return list(self._brokers.values())

    def iter_subscriptions(self):
        """Every subscription across all brokers, in broker/insertion
        order (the latency plane's backlog sweep)."""
        for broker in self._brokers.values():
            yield from broker.subscriptions

    # -- publish / unpublish (sensors joining and leaving, P3) -----------------

    def publish(self, metadata: SensorMetadata) -> None:
        """Publish a sensor: register, propagate, match subscriptions."""
        self.registry.register(metadata)
        home = self.broker(metadata.node_id)
        home.known_sensors.add(metadata.sensor_id)
        # Advertisement propagation through the overlay.
        for broker in self._brokers.values():
            if broker.node_id == metadata.node_id:
                continue
            self._send_advertisement(metadata, broker)
        self._rebuild_routes_for(metadata.sensor_id)
        if self.on_sensor_published is not None:
            self.on_sensor_published(metadata)

    def unpublish(self, sensor_id: str) -> SensorMetadata:
        """A sensor leaves the network; its routes disappear."""
        metadata = self.registry.unregister(sensor_id)
        for broker in self._brokers.values():
            broker.known_sensors.discard(sensor_id)
        self._routes.pop(sensor_id, None)
        if self.on_sensor_unpublished is not None:
            self.on_sensor_unpublished(metadata)
        return metadata

    def _send_advertisement(self, metadata: SensorMetadata, broker: Broker) -> None:
        self.advertisements_sent += 1
        if self.netsim is None:
            broker.known_sensors.add(metadata.sensor_id)
            return
        self.netsim.send(
            source=metadata.node_id,
            target=broker.node_id,
            payload=("advertise", metadata.sensor_id),
            size_bytes=_ADVERTISEMENT_BYTES,
            on_delivery=broker.receive_advertisement,
        )

    # -- subscribe / unsubscribe ---------------------------------------------

    def subscribe(
        self,
        node_id: str,
        filter_: SubscriptionFilter,
        callback: Callable[[SensorTuple], None],
    ) -> Subscription:
        """Create an active subscription homed on ``node_id``."""
        subscription = Subscription(filter=filter_, callback=callback, node_id=node_id)
        self.broker(node_id).add_subscription(subscription)
        # Incremental: match only the new subscription against registered
        # sensors instead of rebuilding every route (O(sensors) instead of
        # O(sensors x subscriptions)).
        for metadata in self.registry.all():
            if subscription.filter.matches(metadata):
                self._routes.setdefault(metadata.sensor_id, []).append(subscription)
        return subscription

    def subscribe_sharded(
        self,
        node_ids: "list[str]",
        filter_: SubscriptionFilter,
        callbacks: "list[Callable[[SensorTuple], None]]",
        keys: "tuple[str, ...]",
        batch_callbacks: "list | None" = None,
        assignment=None,
    ) -> ShardRouter:
        """Create N member subscriptions routed through one ShardRouter.

        Each member is homed on its shard's node (and registered with that
        node's broker, so per-node bookkeeping is unchanged), but the
        routing tables carry the *router*: per published tuple exactly one
        member — the shard owning the tuple's key — receives it.
        ``assignment`` threads the elastic routing overlay through to the
        router (None for static shard groups).
        """
        if len(node_ids) != len(callbacks):
            raise PubSubError(
                f"sharded subscribe needs one callback per node: "
                f"{len(node_ids)} nodes, {len(callbacks)} callbacks"
            )
        members: list[Subscription] = []
        for index, (node_id, callback) in enumerate(zip(node_ids, callbacks)):
            subscription = Subscription(
                filter=filter_, callback=callback, node_id=node_id
            )
            if batch_callbacks is not None:
                subscription.batch_callback = batch_callbacks[index]
            self.broker(node_id).add_subscription(subscription)
            members.append(subscription)
        router = ShardRouter(members, keys, assignment=assignment)
        for metadata in self.registry.all():
            if filter_.matches(metadata):
                self._routes.setdefault(metadata.sensor_id, []).append(router)
        return router

    def unsubscribe(self, subscription: Subscription) -> None:
        self.broker(subscription.node_id).remove_subscription(subscription)
        router = subscription.router
        if router is not None:
            # Removing a member narrows the router; the routing entry
            # disappears with its last member.  (Shard membership only
            # changes wholesale at teardown — partial removal would remap
            # the key space.)
            router.members.remove(subscription)
            subscription.router = None
            if not router.members:
                for matches in self._routes.values():
                    try:
                        matches.remove(router)
                    except ValueError:
                        pass
            return
        # Incremental: drop just this subscription from the routes it is on.
        for matches in self._routes.values():
            try:
                matches.remove(subscription)
            except ValueError:
                pass

    def subscriptions_for(self, sensor_id: str) -> list[Subscription]:
        """The subscriptions a sensor's data is currently routed to.

        Router entries are expanded to their member subscriptions — the
        callers of this API reason about subscriptions, not routing
        furniture.
        """
        if sensor_id not in self.registry:
            raise UnknownSensorError(f"unknown sensor {sensor_id!r}")
        out: list[Subscription] = []
        for entry in self._routes.get(sensor_id, ()):
            if isinstance(entry, ShardRouter):
                out.extend(entry.members)
            else:
                out.append(entry)
        return out

    def _rebuild_routes_for(self, sensor_id: str) -> None:
        metadata = self.registry.get(sensor_id)
        matches: "list[Subscription | ShardRouter]" = []
        seen_routers: set[int] = set()
        for broker in self._brokers.values():
            for subscription in broker.subscriptions:
                if not subscription.filter.matches(metadata):
                    continue
                router = subscription.router
                if router is None:
                    matches.append(subscription)
                elif id(router) not in seen_routers:
                    # A sharded consumer appears once, as its router —
                    # member-by-member entries would deliver N copies.
                    seen_routers.add(id(router))
                    matches.append(router)
        self._routes[sensor_id] = matches

    def _rebuild_all_routes(self) -> None:
        """Full O(sensors x subscriptions) route rebuild.

        No longer on the subscribe/unsubscribe path — kept as the
        reference implementation the incremental maintenance is tested
        against (same sensors, same matches).
        """
        for sensor_id in list(self._routes) + [
            m.sensor_id for m in self.registry.all() if m.sensor_id not in self._routes
        ]:
            if sensor_id in self.registry:
                self._rebuild_routes_for(sensor_id)
            else:
                self._routes.pop(sensor_id, None)

    # -- data plane ---------------------------------------------------------------

    def publish_data(self, sensor_id: str, tuple_: SensorTuple) -> int:
        """Route one reading to every matching active subscription.

        Returns the number of deliveries initiated.  Inactive (paused)
        subscriptions generate **no** traffic and are counted as
        suppressed — trigger-gated acquisition saves the network, not just
        the screen.  A lost message is retried per :attr:`retry_policy`;
        when the budget exhausts, the tuple is dead-lettered on the
        subscription rather than silently dropped.
        """
        metadata = self.registry.get(sensor_id)
        if self.obs is not None:
            tuple_ = self._observe_publish(metadata, tuple_)
        initiated = 0
        for entry in self._routes.get(sensor_id, ()):
            if isinstance(entry, ShardRouter):
                # Key-hashed delivery: exactly one shard owns this tuple.
                subscription = entry.member_for(tuple_)
            else:
                subscription = entry
            if not subscription.active:
                subscription.suppressed += 1
                self.data_messages_suppressed += 1
                self.data_tuples_suppressed += 1
                continue
            self.data_messages_sent += 1
            self.data_tuples_sent += 1
            initiated += 1
            if self.netsim is None:
                subscription.deliver(tuple_)
                continue
            self._transmit(metadata, subscription, tuple_, attempt=0)
        return initiated

    def publish_batch(
        self, sensor_id: str, tuples: "TupleBatch | list[SensorTuple]"
    ) -> int:
        """Route a micro-batch of readings in one fan-out pass.

        Subscription matching happens once per (sensor, batch) — the route
        list lookup and the active check are amortized over the whole run of
        tuples — and each matching subscriber receives the batch as a single
        network message.  Returns the number of batch deliveries initiated.
        Counters stay tuple-denominated (``data_tuples_*``) alongside the
        message-denominated ``data_messages_*`` so monitoring does not
        under-count traffic when batching is on.
        """
        metadata = self.registry.get(sensor_id)
        batch = tuples if isinstance(tuples, TupleBatch) else TupleBatch.of(tuples)
        if not batch:
            return 0
        if self.obs is not None:
            batch = self._observe_publish_batch(metadata, batch)
        count = len(batch)
        initiated = 0
        for entry in self._routes.get(sensor_id, ()):
            if isinstance(entry, ShardRouter):
                # Split once per (router, batch); members receive their
                # key-owned sub-batches in arrival order.
                for member, sub_batch in entry.split_batch(batch):
                    member_count = len(sub_batch)
                    if not member.active:
                        member.suppressed += member_count
                        self.data_messages_suppressed += 1
                        self.data_tuples_suppressed += member_count
                        continue
                    self.data_messages_sent += 1
                    self.data_tuples_sent += member_count
                    initiated += 1
                    if self.netsim is None:
                        member.deliver_batch(sub_batch)
                        continue
                    self._transmit_batch(metadata, member, sub_batch, attempt=0)
                continue
            subscription = entry
            if not subscription.active:
                subscription.suppressed += count
                self.data_messages_suppressed += 1
                self.data_tuples_suppressed += count
                continue
            self.data_messages_sent += 1
            self.data_tuples_sent += count
            initiated += 1
            if self.netsim is None:
                subscription.deliver_batch(batch)
                continue
            self._transmit_batch(metadata, subscription, batch, attempt=0)
        return initiated

    def _now(self) -> float:
        """Current virtual time (0.0 when running transport-less).

        This is the broker's only notion of time: publication stamps,
        retry backoff and dead-letter ``failed_at`` all read the
        transport's clock, so the broker is execution-backend agnostic —
        under the asyncio backend the same clock reports logical epoch
        deadlines and delivery crosses bounded queues, with no broker
        changes.
        """
        return self.netsim.clock.now if self.netsim is not None else 0.0

    def _observe_publish(
        self, metadata: SensorMetadata, tuple_: SensorTuple
    ) -> SensorTuple:
        """Count the publication and, if sampled, open the tuple's trace."""
        obs = self.obs
        counter = self._published_counters.get(metadata.sensor_id)
        if counter is None:
            counter = self._published_counters[metadata.sensor_id] = (
                obs.metrics.counter(
                    "broker_tuples_published_total",
                    "readings published through the broker overlay",
                    source=metadata.sensor_id,
                )
            )
        counter.inc()
        plane = obs.latency
        if plane is not None:
            now = self._now()
            plane.note_publish(metadata.sensor_id, now, tuple_.stamp.time)
        tracer = obs.tracer
        if tuple_.trace is None and tracer.enabled:
            now = self._now()
            ctx = tracer.start_trace(
                "publish", now,
                source=metadata.sensor_id,
                node=metadata.node_id,
                tuple=tuple_key(tuple_),
            )
            if ctx is not None:
                tuple_ = tuple_.with_trace(ctx)
        return tuple_

    def _observe_publish_batch(
        self, metadata: SensorMetadata, batch: TupleBatch
    ) -> TupleBatch:
        """Count the batch's tuples, record its size, open sampled traces.

        Per-tuple trace sampling still applies inside a batch — the
        error-diffusion sampler decides tuple by tuple, so sampling=0 costs
        one ``enabled`` check per batch instead of per tuple.
        """
        obs = self.obs
        counter = self._published_counters.get(metadata.sensor_id)
        if counter is None:
            counter = self._published_counters[metadata.sensor_id] = (
                obs.metrics.counter(
                    "broker_tuples_published_total",
                    "readings published through the broker overlay",
                    source=metadata.sensor_id,
                )
            )
        count = len(batch)
        counter.inc(count)
        self._batch_size_histogram.observe(count)
        plane = obs.latency
        if plane is not None:
            now = self._now()
            plane.note_publish_batch(metadata.sensor_id, now, batch)
        tracer = obs.tracer
        if not tracer.enabled:
            return batch
        now = self._now()
        traced = []
        changed = False
        for tuple_ in batch:
            if tuple_.trace is None:
                ctx = tracer.start_trace(
                    "publish", now,
                    source=metadata.sensor_id,
                    node=metadata.node_id,
                    tuple=tuple_key(tuple_),
                    batch=count,
                )
                if ctx is not None:
                    tuple_ = tuple_.with_trace(ctx)
                    changed = True
            traced.append(tuple_)
        # Trace attachment preserves every payload, so the clone keeps the
        # batch's wire-size memo (with_traced, not with_tuples).
        return batch.with_traced(traced) if changed else batch

    def _transmit(
        self,
        metadata: SensorMetadata,
        subscription: Subscription,
        tuple_: SensorTuple,
        attempt: int,
    ) -> None:
        """One transmission attempt; losses re-enter via ``_on_loss``."""
        plane = self._obs.latency if self._obs is not None else None
        if plane is None:
            on_delivery = subscription.deliver
        else:
            subscription.inflight += 1
            on_delivery = _TrackedDelivery(subscription, plane, self.netsim.clock)
        self.netsim.send(
            source=metadata.node_id,
            target=subscription.node_id,
            payload=tuple_,
            size_bytes=estimate_size_bytes(tuple_),
            on_delivery=on_delivery,
            on_drop=_Attempt(self, metadata, subscription, tuple_, attempt),
        )

    def _on_loss(
        self,
        metadata: SensorMetadata,
        subscription: Subscription,
        tuple_: SensorTuple,
        attempt: int,
        reason: str,
    ) -> None:
        """A data message was lost: back off and retry, or dead-letter."""
        obs = self.obs
        if obs is not None and obs.latency is not None and subscription.inflight > 0:
            subscription.inflight -= 1  # the retry re-increments on transmit
        if attempt < self.retry_policy.max_attempts:
            next_attempt = attempt + 1
            subscription.retries += 1
            self.data_messages_retried += 1
            backoff = self.retry_policy.backoff(next_attempt)
            if obs is not None:
                self._retry_counter.inc()
                if tuple_.trace is not None:
                    now = self.netsim.clock.now
                    obs.tracer.span(
                        tuple_.trace, "retry", now, now + backoff,
                        attempt=next_attempt,
                        to=subscription.node_id,
                        reason=reason,
                    )
            self.netsim.clock.schedule(
                backoff, self._transmit, metadata, subscription, tuple_, next_attempt
            )
            return
        self.data_messages_dead_lettered += 1
        now = self.netsim.clock.now
        if obs is not None:
            self._dead_letter_counter.inc()
            if tuple_.trace is not None:
                obs.tracer.span(
                    tuple_.trace, "dead-letter", now,
                    subscription=subscription.subscription_id,
                    to=subscription.node_id,
                    reason=reason,
                )
        subscription.dead_letter(tuple_, reason, failed_at=now)
        if self.on_dead_letter is not None:
            self.on_dead_letter(subscription, tuple_, reason)

    def _transmit_batch(
        self,
        metadata: SensorMetadata,
        subscription: Subscription,
        batch: TupleBatch,
        attempt: int,
    ) -> None:
        """One batch transmission attempt; losses re-enter via ``_on_batch_loss``."""
        plane = self._obs.latency if self._obs is not None else None
        if plane is None:
            on_delivery = subscription.deliver_batch
        else:
            subscription.inflight += 1
            on_delivery = _TrackedBatchDelivery(
                subscription, plane, self.netsim.clock
            )
        self.netsim.send_batch(
            source=metadata.node_id,
            target=subscription.node_id,
            batch=batch,
            size_bytes=estimate_batch_size_bytes(batch),
            on_delivery=on_delivery,
            on_drop=_BatchAttempt(self, metadata, subscription, batch, attempt),
        )

    def _on_batch_loss(
        self,
        metadata: SensorMetadata,
        subscription: Subscription,
        batch: TupleBatch,
        attempt: int,
        reason: str,
    ) -> None:
        """A batch was lost in flight: retry it whole, or dead-letter it.

        Retries redeliver the entire batch (all-or-nothing loss semantics,
        one backoff timer per batch rather than per tuple).  On exhaustion
        every member is dead-lettered *individually* — audit records and the
        ``on_dead_letter`` hook stay tuple-denominated, so the monitor's
        quorum logic and the PR 1 audit format are unchanged by batching.
        """
        obs = self.obs
        if obs is not None and obs.latency is not None and subscription.inflight > 0:
            subscription.inflight -= 1  # the retry re-increments on transmit
        if attempt < self.retry_policy.max_attempts:
            next_attempt = attempt + 1
            subscription.retries += 1
            self.data_messages_retried += 1
            backoff = self.retry_policy.backoff(next_attempt)
            if obs is not None:
                self._retry_counter.inc()
                now = self.netsim.clock.now
                for tuple_ in batch:
                    if tuple_.trace is not None:
                        obs.tracer.span(
                            tuple_.trace, "retry", now, now + backoff,
                            attempt=next_attempt,
                            to=subscription.node_id,
                            reason=reason,
                            batch=len(batch),
                        )
            self.netsim.clock.schedule(
                backoff, self._transmit_batch, metadata, subscription, batch,
                next_attempt,
            )
            return
        now = self.netsim.clock.now
        for tuple_ in batch:
            self.data_messages_dead_lettered += 1
            if obs is not None:
                self._dead_letter_counter.inc()
                if tuple_.trace is not None:
                    obs.tracer.span(
                        tuple_.trace, "dead-letter", now,
                        subscription=subscription.subscription_id,
                        to=subscription.node_id,
                        reason=reason,
                    )
            subscription.dead_letter(tuple_, reason, failed_at=now)
            if self.on_dead_letter is not None:
                self.on_dead_letter(subscription, tuple_, reason)

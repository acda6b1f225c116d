"""Simulated network interface (Myrinet NIC running VMMC firmware).

The NIC owns a bounded *post queue* of outgoing messages. Hosts post
asynchronous sends into it; when it fills, the posting processor blocks
until the NIC drains it -- this back-pressure at release points is one
of the contention effects the paper measures.

Each message goes through a fixed pipeline, driven by timed callbacks
rather than processes -- four engine events per message:

1. sender: the per-message NIC charge ends and the message's DMA books
   the node memory bus (a :class:`~repro.sim.Calendar`);
2. sender: the DMA and wire serialization end and the message is
   transmitted; the :class:`~repro.net.network.Network` books its
   arrival (constant wire latency) in the receiver's inbound FIFO;
3. receiver: the per-message charge ends -- it starts at the later of
   the arrival and the end of the previous message -- and the DMA
   books the bus;
4. receiver: the DMA ends and the message is applied.

Without a modelled bus the DMA takes no time, and stages 3 and 4 are
one event.

Deposits and fetches are serviced entirely at the NIC -- writing into
or reading from exported memory regions -- without involving the host
processor, mirroring VMMC's remote deposit/fetch.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.config import NetworkParams
from repro.errors import NetworkError, RemoteNodeFailure
from repro.net.message import Message, MessageKind
from repro.net.regions import RegionTable
from repro.sim import Calendar, Delay, Engine, Event, Store
from repro.sim.resources import EMPTY

# Hoisted enum members: ``_dispatch`` runs per received message, and a
# module-global load + identity test beats two attribute loads there.
_DEPOSIT = MessageKind.DEPOSIT
_FETCH_REQ = MessageKind.FETCH_REQ
_FETCH_REPLY = MessageKind.FETCH_REPLY
_PROBE = MessageKind.PROBE
_PROBE_ACK = MessageKind.PROBE_ACK
_SERVICE_REQ = MessageKind.SERVICE_REQ
_SERVICE_REPLY = MessageKind.SERVICE_REPLY
_NOTIFY = MessageKind.NOTIFY


class NIC:
    """One node's network interface."""

    def __init__(self, engine: Engine, node_id: int, params: NetworkParams,
                 rng: random.Random,
                 regions: Optional[RegionTable] = None,
                 dma_bus: Optional[Calendar] = None,
                 dma_bandwidth: Optional[float] = None) -> None:
        self.engine = engine
        self.node_id = node_id
        self._reply_name = f"nic{node_id}.reply"
        self.params = params
        self.rng = rng
        self.regions = regions if regions is not None else RegionTable(node_id)
        #: Memory-bus contention modelling: when ``dma_bus`` is set,
        #: every DMA transfer books the bus for ``nbytes /
        #: dma_bandwidth`` microseconds.
        self.dma_bus = dma_bus
        self.dma_bandwidth = dma_bandwidth
        self.alive = True
        self.network = None  # attached by Network.attach()
        #: Causal-trace sink (repro.obs.optrace.OpTracer) or None. Every
        #: tracing touch point is double-gated on ``msg.op is not None``
        #: -- always None with no tracer attached -- so the untraced
        #: receive path pays one comparison.
        self.optrace = None
        #: Nodes whose failure has been detected, each tagged with the
        #: home-map epoch at which the connection was unmapped. VMMC
        #: unmaps the import/export connections to a failed node during
        #: reconfiguration, so anything it left on the wire (or already
        #: queued here) is discarded instead of being applied to
        #: exported memory after recovery has rebuilt it. Membership is
        #: what the dispatch path tests; the epoch tags let recovery
        #: audits tie a shunned message to the map generation that
        #: shunned its sender (a node shunned under a later epoch was a
        #: mid-recovery cascade victim).
        self.dead_sources: Dict[int, int] = {}

        self.post_queue = Store(engine, capacity=params.post_queue_depth,
                                name=f"nic{node_id}.post")
        #: Booked arrivals ``(arrival_time, msg)`` the receive side has
        #: not started on. Wire latency is constant, so transmit order
        #: is arrival order and appending keeps it sorted.
        self._inbound: Deque[Tuple[float, Message]] = deque()
        self._pending_replies: Dict[int, Event] = {}
        self._notify_handlers: Dict[str, Callable[[Message], None]] = {}
        self._services: Dict[str, Callable] = {}
        self._service_procs: list = []

        # Pipeline state. Each side works on at most one message (None
        # when idle); its pending stage is one scheduler entry, so a
        # fail-stop cancels it in place.
        self._tx_msg: Optional[Message] = None
        self._tx_entry = None
        self._rx_msg: Optional[Message] = None
        self._rx_arrival = 0.0
        self._rx_entry = None
        #: Process running a receive-side follow-up that blocks the
        #: receiver (generator NOTIFY handler), killed at fail-stop.
        self._rx_follow = None

        # Counters for the metrics layer.
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.post_queue_stalls = 0
        self.messages_shunned = 0

        # Delay objects are immutable once built, so the fixed per-post
        # host charge reuses one instance.
        self._delay_post = Delay(params.post_overhead_us)
        self._per_msg_us = params.nic_per_message_us
        self._transfer_time_us = params.transfer_time_us
        self._error_rate = params.transient_error_rate

    # -- host-side API -----------------------------------------------------

    def post_charge(self) -> Delay:
        """Host-side cost of one post; yield the returned Delay.

        Split from :meth:`post_enqueue` so hot callers can post without
        a delegated generator: ``yield nic.post_charge()`` then check
        ``post_enqueue``. Raises when the NIC is down.
        """
        if not self.alive:
            raise NetworkError(f"node {self.node_id}: NIC is down")
        return self._delay_post

    def post_enqueue(self, msg: Message) -> Optional[Event]:
        """Enqueue a message after the post charge was paid.

        Returns ``None`` when the queue accepted the message, or the
        park event the caller must yield when the queue is full --
        the paper's full-NIC-queue stall of the posting processor.
        """
        if self._tx_msg is not None and self.post_queue.is_full:
            self.post_queue_stalls += 1
        return self._enqueue(msg)

    def post(self, msg: Message):
        """Post an asynchronous send (generator; host-side cost included).

        Convenience wrapper over :meth:`post_charge` +
        :meth:`post_enqueue` for callers off the hot path.
        """
        yield self.post_charge()
        ev = self.post_enqueue(msg)
        if ev is not None:
            yield ev

    def register_notify_handler(self, channel: str,
                                handler: Callable[[Message], None]) -> None:
        """Register a callback for NOTIFY messages on ``channel``.

        The handler runs at NIC level (after NIC occupancy is charged);
        it must be non-blocking (typically it writes protocol state or
        triggers an event a host process is waiting on).
        """
        if channel in self._notify_handlers:
            raise NetworkError(f"node {self.node_id}: notify channel "
                               f"{channel!r} already registered")
        self._notify_handlers[channel] = handler

    def register_service(self, name: str, handler: Callable) -> None:
        """Register a request/reply service.

        ``handler(payload, src_node)`` must be a *generator function*
        returning ``(reply_payload, reply_body_bytes)``. Each request is
        served by its own spawned process, so a handler may wait
        (deferred replies -- e.g. a barrier manager holding arrivals).
        Services model protocol operations offloaded to the NI, as
        GeNIMA does for synchronization.
        """
        if name in self._services:
            raise NetworkError(f"node {self.node_id}: service {name!r} "
                               "already registered")
        self._services[name] = handler

    def expect_reply(self, req_id: int) -> Event:
        """Create the event a synchronous requester waits on."""
        ev = Event(self.engine, self._reply_name)
        self._pending_replies[req_id] = ev
        return ev

    def abandon_reply(self, req_id: int) -> None:
        self._pending_replies.pop(req_id, None)

    def shun(self, node_id: int, epoch: int = 0) -> None:
        """Tear down connections from a node declared failed.

        Late traffic from a fail-stopped node must never land: a
        deposit it posted just before dying can otherwise arrive
        *after* recovery has rebuilt the target region (observed as a
        dead node's lock-vector slot resurrecting after the recovery
        clear and wedging every later acquirer). ``epoch`` records the
        home-map generation doing the unmapping; re-shunning an
        already-dead source keeps the original (earliest) epoch."""
        self.dead_sources.setdefault(node_id, epoch)

    # -- failure injection ---------------------------------------------------

    def fail(self) -> None:
        """Fail-stop this NIC: nothing further is sent or received.

        Messages already on the wire still arrive (they left this NIC);
        messages still in the post queue are lost -- the paper's "no
        guarantee of success for previous operations" case. Messages
        that arrived here but were not yet applied are lost silently;
        those still on the wire towards this NIC fail their completion
        at their arrival time, as any message to a dead node does.
        """
        self.alive = False
        cancel = self.engine.cancel
        if self._tx_entry is not None:
            cancel(self._tx_entry)
        if self._rx_entry is not None:
            cancel(self._rx_entry)
        self._tx_entry = self._rx_entry = None
        self._tx_msg = None
        if self._rx_msg is not None:
            self._inbound.appendleft((self._rx_arrival, self._rx_msg))
            self._rx_msg = None
        now = self.engine.now
        for arrival, msg in self._inbound:
            if arrival >= now:
                self.network.drop_at(arrival, msg)
        self._inbound.clear()
        if self._rx_follow is not None:
            self._rx_follow.kill()
            self._rx_follow = None
        for proc in self._service_procs:
            proc.kill()
        self._service_procs.clear()
        self.post_queue.drain()
        self._pending_replies.clear()

    # -- send side -----------------------------------------------------------

    def _enqueue(self, msg: Message) -> Optional[Event]:
        """Hand ``msg`` to the send side: an idle NIC starts on it at
        once, a busy one queues it. Returns the park event when the
        post queue is full, else None. A dead NIC loses it."""
        if not self.alive:
            return None
        if self._tx_msg is None:
            self._tx_msg = msg
            self._tx_entry = self.engine.schedule(self._per_msg_us,
                                                  self._tx_dma)
            return None
        ev = self.post_queue.put(msg)
        return None if ev._settled else ev

    def _tx_dma(self) -> None:
        """Stage 1: the per-message charge is over; book the DMA."""
        msg = self._tx_msg
        engine = self.engine
        bus = self.dma_bus
        done = (bus.reserve(msg.wire_bytes / self.dma_bandwidth)
                if bus is not None else engine.now)
        if self._error_rate > 0.0:
            self._tx_entry = engine.schedule_at(done, self._tx_error_draw)
        else:
            self._tx_entry = engine.schedule_at(
                done + self._transfer_time_us(msg.wire_bytes),
                self._tx_wire)

    def _tx_error_draw(self) -> None:
        """Transient link error, drawn when the DMA ends: VMMC
        retransmits transparently, so only latency is visible."""
        start = self.engine.now
        if self.rng.random() < self._error_rate:
            start = start + self.params.retransmit_penalty_us
        self._tx_entry = self.engine.schedule_at(
            start + self._transfer_time_us(self._tx_msg.wire_bytes),
            self._tx_wire)

    def _tx_wire(self) -> None:
        """Stage 2: serialization is over; transmit, then start on the
        next queued message."""
        msg = self._tx_msg
        self.messages_sent += 1
        self.bytes_sent += msg.wire_bytes
        self.network.transmit(msg)
        msg = self.post_queue.get_nowait()
        if msg is EMPTY:
            self._tx_msg = self._tx_entry = None
        else:
            self._tx_msg = msg
            self._tx_entry = self.engine.schedule(self._per_msg_us,
                                                  self._tx_dma)

    # -- receive side ----------------------------------------------------------

    def _book_arrival(self, arrival: float, msg: Message) -> None:
        """Called by the network at transmit time with the message's
        arrival time at this (live) NIC."""
        self._inbound.append((arrival, msg))
        if self._rx_msg is None:
            self._rx_next()

    def _rx_next(self) -> None:
        """Start on the next booked message, if any: its per-message
        charge starts once it has arrived and the previous message is
        done (``now``)."""
        if not self._inbound:
            self._rx_msg = None
            return
        arrival, self._rx_msg = self._inbound.popleft()
        self._rx_arrival = arrival
        engine = self.engine
        now = engine.now
        self._rx_entry = engine.schedule_at(
            (arrival if arrival > now else now) + self._per_msg_us,
            self._rx_dma)

    def _rx_dma(self) -> None:
        """Stage 3: the per-message charge is over; book the DMA."""
        bus = self.dma_bus
        if bus is None:
            self._rx_apply()
            return
        self._rx_entry = self.engine.schedule_at(
            bus.reserve(self._rx_msg.wire_bytes / self.dma_bandwidth),
            self._rx_apply)

    def _rx_apply(self) -> None:
        """Stage 4: the DMA is over; apply the message. A follow-up
        that blocks holds the receiver until it settles."""
        msg = self._rx_msg
        self._rx_entry = None
        self.messages_received += 1
        self.bytes_received += msg.wire_bytes
        follow = self._dispatch(msg)
        if follow is None:
            self._rx_next()
        else:
            follow.add_callback(self._rx_resume)

    def _rx_resume(self, _ev: Event) -> None:
        if not self.alive:
            return
        self._rx_follow = None
        self._rx_next()

    def _dispatch(self, msg: Message) -> Optional[Event]:
        """Apply one arrived message; returns an event the receiver
        waits on when the message blocks it (reply post into a full
        queue, generator NOTIFY handler), else None."""
        if msg.src in self.dead_sources:
            # In-flight remnant of a fail-stopped node: the connection
            # was unmapped when its failure was detected.
            self.messages_shunned += 1
            if msg.completion is not None and not msg.completion.settled:
                msg.completion.fail(RemoteNodeFailure(msg.src))
            return None
        if msg.op is not None and self.optrace is not None:
            self.optrace.message_hop("recv", msg, self.node_id,
                                     self.engine.now)
        kind = msg.kind
        if kind is _DEPOSIT:
            region_name, offset, data = msg.payload
            region = self.regions.lookup(region_name)
            region.write(offset, data)
            if region.on_remote_write is not None:
                region.on_remote_write(offset, len(data), msg.src)
            if msg.completion is not None and not msg.completion.settled:
                msg.completion.succeed(None)
            return None
        if kind is _FETCH_REQ:
            region_name, offset, size, req_id = msg.payload
            data = self.regions.lookup(region_name).read(offset, size)
            reply = Message(MessageKind.FETCH_REPLY, self.node_id, msg.src,
                            body_bytes=len(data), payload=(req_id, data),
                            op=msg.op)
            if reply.op is not None and self.optrace is not None:
                self.optrace.message_hop("send", reply, self.node_id,
                                         self.engine.now)
            return self._enqueue(reply)
        if kind is _FETCH_REPLY:
            req_id, data = msg.payload
            ev = self._pending_replies.pop(req_id, None)
            if ev is not None and not ev.settled:
                ev.succeed(data)
            return None
        if kind is _PROBE:
            req_id = msg.payload
            ack = Message(MessageKind.PROBE_ACK, self.node_id, msg.src,
                          body_bytes=0, payload=req_id)
            return self._enqueue(ack)
        if kind is _PROBE_ACK:
            req_id = msg.payload
            ev = self._pending_replies.pop(req_id, None)
            if ev is not None and not ev.settled:
                ev.succeed(True)
            return None
        if kind is _SERVICE_REQ:
            service, req_id, body = msg.payload
            handler = self._services.get(service)
            if handler is None:
                raise NetworkError(
                    f"node {self.node_id}: unknown service {service!r}")
            proc = self.engine.spawn(
                self._serve(handler, msg.src, req_id, body,
                            service, msg.op, msg.msg_id),
                f"nic{self.node_id}.svc.{service}")
            self._service_procs.append(proc)
            self._service_procs = [p for p in self._service_procs if p.alive]
            return None
        if kind is _SERVICE_REPLY:
            req_id, body = msg.payload
            ev = self._pending_replies.pop(req_id, None)
            if ev is not None and not ev.settled:
                ev.succeed(body)
            return None
        if kind is _NOTIFY:
            channel, body = msg.payload
            handler = self._notify_handlers.get(channel)
            if handler is None:
                raise NetworkError(
                    f"node {self.node_id}: NOTIFY on unknown channel "
                    f"{channel!r}")
            result = handler(msg)
            if result is not None and hasattr(result, "send"):
                # Generator handler: it starts here, at apply, and the
                # receiver waits for it so its costs serialize with
                # message processing (FIFO apply order is what HLRC
                # diff application requires).
                proc = self.engine.spawn(
                    self._finish_notify(result, msg),
                    f"nic{self.node_id}.notify.{channel}", immediate=True)
                if proc.done.settled:
                    return None
                self._rx_follow = proc
                return proc.done
            if msg.completion is not None and not msg.completion.settled:
                msg.completion.succeed(None)
            return None
        raise NetworkError(f"unknown message kind {kind!r}")

    def _finish_notify(self, gen, msg: Message):
        yield from gen
        if msg.op is not None and self.optrace is not None:
            # Generator NOTIFY handlers are the diff-apply path: the
            # span from the "recv" hop to here is the apply cost.
            self.optrace.message_hop("applied", msg, self.node_id,
                                     self.engine.now)
        if msg.completion is not None and not msg.completion.settled:
            msg.completion.succeed(None)

    def _serve(self, handler, src: int, req_id: int, body,
               service: str = "?", op: Optional[int] = None,
               req_msg_id: Optional[int] = None):
        tracer = self.optrace if op is not None else None
        if tracer is not None:
            tracer.service_hop(op, "svc_begin", self.node_id,
                               self.engine.now, req_msg_id, service)
        reply_payload, reply_bytes = yield from handler(body, src)
        if tracer is not None:
            tracer.service_hop(op, "svc_end", self.node_id,
                               self.engine.now, req_msg_id, service)
        if not self.alive:
            return
        reply = Message(MessageKind.SERVICE_REPLY, self.node_id, src,
                        body_bytes=reply_bytes,
                        payload=(req_id, reply_payload), op=op)
        if tracer is not None and self.optrace is not None:
            self.optrace.message_hop("send", reply, self.node_id,
                                     self.engine.now)
        park = self._enqueue(reply)
        if park is not None:
            yield park

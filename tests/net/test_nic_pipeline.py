"""The NIC message pipeline on a node with a contended memory bus.

Each message costs the sender a per-message charge, a DMA over the
node's memory bus and wire serialization; the receiver charges the
per-message cost again (from the later of arrival and the end of its
previous message), DMAs over its own bus and applies the message.
Host ``mem_copy`` holds the same bus. The timing pin below checks every
stage timestamp against values worked out by hand, so any rework of how
the stages are scheduled must land each one at the same simulated time.
"""

from repro.cluster import Cluster
from repro.config import ClusterConfig, MemoryParams, NetworkParams
from repro.net.message import Message, MessageKind
from repro.sim import Delay

# Dyadic parameters keep every timestamp exact in binary floating point.
PARAMS = NetworkParams(wire_latency_us=8.0, bandwidth_bytes_per_us=64.0,
                       post_overhead_us=0.5, nic_per_message_us=1.5)
MEMORY = MemoryParams(copy_bandwidth_bytes_per_us=256.0,
                      bus_bandwidth_bytes_per_us=512.0)


def two_node_cluster():
    return Cluster(ClusterConfig(num_nodes=2, threads_per_node=1,
                                 network=PARAMS, memory=MEMORY))


def test_stage_timestamps_under_bus_contention():
    cluster = two_node_cluster()
    engine = cluster.engine
    n0, n1 = cluster.node(0), cluster.node(1)
    region = n1.regions.export("buf", 4096)
    applied = []
    region.on_remote_write = lambda off, ln, src: applied.append(
        (ln, engine.now))
    copies = []

    def sender():
        # Posts at 0.5, 1.0, 1.5 and 2.0 (post overhead 0.5 each).
        for body in (480, 992, 224, 480):
            yield from n0.vmmc.remote_deposit(1, "buf", 0, b"x" * body)

    def copier(node, plan):
        for start, nbytes in plan:
            yield Delay(start - engine.now)
            yield from node.mem_copy(nbytes)
            copies.append((node.node_id, engine.now))

    # Copy time is nbytes / 256; DMA time is wire bytes / 512 and wire
    # serialization wire bytes / 64, with wire bytes = 32 + body.
    engine.spawn(sender())
    engine.spawn(copier(n0, [(1.75, 1024), (16.0, 512), (43.75, 256)]))
    engine.spawn(copier(n1, [(23.0, 2048), (45.0, 1024), (52.75, 256)]))
    engine.run()

    # Sender (node 0 bus):
    #   copy   1.75 + 4          -> bus [1.75, 5.75]
    #   msg1   charge ends 2.0, DMA 1 waits -> [5.75, 6.75], wire 8
    #          -> transmit 14.75, arrive 22.75
    #   copy   16.0 + 2          -> [16.0, 18.0]
    #   msg2   charge 14.75 -> 16.25, DMA 2 waits -> [18.0, 20.0],
    #          wire 16 -> transmit 36.0, arrive 44.0
    #   msg3   charge -> 37.5, DMA [37.5, 38.0], wire 4 -> 42.0, arrive 50.0
    #   msg4   charge -> 43.5, DMA [43.5, 44.5], wire 8 -> 52.5, arrive 60.5
    #   copy   43.75 waits for msg4's DMA -> [44.5, 45.5]
    # Receiver (node 1 bus):
    #   copy   23.0 + 8          -> [23.0, 31.0]
    #   msg1   charge 22.75 -> 24.25, DMA 1 waits -> [31.0, 32.0]
    #   copy   45.0 + 4          -> [45.0, 49.0]
    #   msg2   charge 44.0 -> 45.5, DMA 2 waits -> [49.0, 51.0]
    #   msg3   arrived 50.0, receiver busy until 51.0: charge -> 52.5,
    #          DMA [52.5, 53.0]
    #   copy   52.75 waits for msg3's DMA -> [53.0, 54.0]
    #   msg4   charge 60.5 -> 62.0, DMA [62.0, 63.0]
    assert applied == [(480, 32.0), (992, 51.0), (224, 53.0), (480, 63.0)]
    assert sorted(copies) == [(0, 5.75), (0, 18.0), (0, 45.5),
                              (1, 31.0), (1, 49.0), (1, 54.0)]
    assert cluster.network.nic(0).messages_sent == 4
    assert cluster.network.nic(1).messages_received == 4


def test_async_deposits_cost_four_engine_events_each():
    """Send charge end, transmit, receive charge end, apply: four
    engine events per message, plus one for the posting callback."""
    for count in (1, 5, PARAMS.post_queue_depth):
        cluster = two_node_cluster()
        engine = cluster.engine
        region = cluster.node(1).regions.export("buf", 4096)
        nic = cluster.network.nic(0)

        def burst():
            for i in range(count):
                body = 64 * (i % 4 + 1)
                nic.post_enqueue(Message(MessageKind.DEPOSIT, 0, 1,
                                         body_bytes=body,
                                         payload=("buf", 0, b"y" * body)))

        engine.schedule(0.0, burst)
        engine.run()
        assert region.read(0, 1) == b"y"
        assert cluster.network.nic(1).messages_received == count
        assert engine.events_executed == 4 * count + 1

"""The offline channel: eventual delivery across disconnections."""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.api import CheckpointPolicy, SystemConfig, open_system
from repro.common.errors import ChannelError
from repro.sim.network import FixedLatency
from repro.sim.offline import OfflineChannel
from repro.sim.process import Node
from repro.sim.scheduler import Scheduler
from repro.workloads.generator import WorkloadConfig, run_closed_loop


class Recorder(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message, self.now))


def make_offline(latency=5.0, seed=0):
    sched = Scheduler(seed=seed)
    channel = OfflineChannel(sched, latency=FixedLatency(latency))
    a, b = Recorder("A"), Recorder("B")
    # Nodes must be network-bound for .now; the offline channel itself
    # provides binding via a tiny shim network here.
    from repro.sim.network import Network

    net = Network(sched)
    net.register(a)
    net.register(b)
    channel.register(a)
    channel.register(b)
    return sched, channel, a, b


class TestOnlineDelivery:
    def test_delivers_when_online(self):
        sched, channel, a, b = make_offline()
        channel.send("A", "B", "hi")
        sched.run()
        assert b.received == [("A", "hi", 5.0)]

    def test_fifo_per_pair(self):
        sched, channel, a, b = make_offline()
        for i in range(5):
            channel.send("A", "B", i)
        sched.run()
        assert [m for _, m, _ in b.received] == [0, 1, 2, 3, 4]

    def test_unknown_member_rejected(self):
        sched, channel, a, _b = make_offline()
        with pytest.raises(ChannelError):
            channel.send("A", "Z", "hi")

    def test_double_registration_rejected(self):
        sched, channel, a, _b = make_offline()
        with pytest.raises(ChannelError):
            channel.register(a)


class TestOfflineBuffering:
    def test_held_while_offline(self):
        sched, channel, a, b = make_offline()
        channel.set_online("B", False)
        channel.send("A", "B", "hi")
        sched.run(until=100.0)
        assert b.received == []
        assert channel.mailbox_depth("B") == 1

    def test_flushed_on_reconnect(self):
        sched, channel, a, b = make_offline()
        channel.set_online("B", False)
        channel.send("A", "B", "hi")
        sched.run(until=50.0)
        channel.set_online("B", True)
        assert b.received and b.received[0][1] == "hi"
        assert b.received[0][2] == 50.0  # delivered at reconnection time
        assert channel.mailbox_depth("B") == 0

    def test_sender_may_be_offline(self):
        # Posting while disconnected models queueing mail locally.
        sched, channel, a, b = make_offline()
        channel.set_online("A", False)
        channel.send("A", "B", "hi")
        sched.run()
        assert b.received

    def test_order_preserved_across_offline_window(self):
        sched, channel, a, b = make_offline()
        channel.send("A", "B", 1)
        channel.set_online("B", False)
        channel.send("A", "B", 2)
        channel.send("A", "B", 3)
        sched.run(until=30.0)
        channel.set_online("B", True)
        sched.run()
        assert [m for _, m, _ in b.received] == [1, 2, 3]

    def test_is_online_reflects_state(self):
        _sched, channel, _a, _b = make_offline()
        assert channel.is_online("A")
        channel.set_online("A", False)
        assert not channel.is_online("A")

    def test_crashed_recipient_gets_nothing_on_flush(self):
        sched, channel, a, b = make_offline()
        channel.set_online("B", False)
        channel.send("A", "B", "hi")
        sched.run(until=20.0)
        b.crash()
        channel.set_online("B", True)
        sched.run()
        assert b.received == []


class TestTraceStrings:
    def test_records_share_one_label_and_one_name_each(self):
        """A FAUST run's trace holds one string object per message kind
        and per node name, however many records carry it: the labels and
        peer names are built once, not once per message."""
        system = open_system(
            SystemConfig(
                num_clients=4, seed=3, checkpoint=CheckpointPolicy(interval=4)
            ),
            backend="faust",
        )
        records = []
        system.trace.tap(records.append)
        run_closed_loop(system, WorkloadConfig(ops_per_client=20), random.Random(3))
        offline = [r for r in records if r.kind.startswith("offline")]
        assert len({r.kind for r in offline}) >= 4  # sent and delivered kinds
        for field in ("kind", "src", "dst"):
            objects = defaultdict(set)
            for record in records:
                value = getattr(record, field)
                objects[value].add(id(value))
            assert all(len(ids) == 1 for ids in objects.values()), field

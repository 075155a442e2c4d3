"""FIFO channels, latency models, crash filtering, and tracing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ChannelError
from repro.sim.network import (
    ExponentialLatency,
    FixedLatency,
    Network,
    UniformLatency,
    message_kind,
    message_size,
)
from repro.sim.process import Node
from repro.sim.scheduler import Scheduler
from repro.sim.trace import SimTrace


class Recorder(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message, self.now))


def make_net(latency=None, seed=0):
    sched = Scheduler(seed=seed)
    trace = SimTrace()
    net = Network(sched, default_latency=latency or FixedLatency(1.0), trace=trace)
    a, b = Recorder("A"), Recorder("B")
    net.register(a)
    net.register(b)
    return sched, net, a, b, trace


class TestDelivery:
    def test_basic_delivery(self):
        sched, net, a, b, _ = make_net()
        a.send("B", "hello")
        sched.run()
        assert b.received == [("A", "hello", 1.0)]

    def test_unknown_recipient_rejected(self):
        _sched, net, a, _b, _ = make_net()
        with pytest.raises(ChannelError):
            a.send("Z", "hello")

    def test_unknown_sender_rejected(self):
        sched, net, _a, _b, _ = make_net()
        with pytest.raises(ChannelError):
            net.send("Z", "A", "hello")

    def test_duplicate_name_rejected(self):
        _sched, net, _a, _b, _ = make_net()
        with pytest.raises(ChannelError):
            net.register(Recorder("A"))

    def test_fifo_on_fixed_latency(self):
        sched, net, a, b, _ = make_net()
        for i in range(5):
            a.send("B", i)
        sched.run()
        assert [m for _, m, _ in b.received] == [0, 1, 2, 3, 4]

    def test_fifo_under_random_latency(self):
        sched, net, a, b, _ = make_net(latency=ExponentialLatency(2.0), seed=3)
        for i in range(50):
            sched.schedule(float(i) * 0.1, a.send, "B", i)
        sched.run()
        assert [m for _, m, _ in b.received] == list(range(50))

    def test_directions_are_independent(self):
        sched, net, a, b, _ = make_net()
        net.set_latency("A", "B", FixedLatency(10.0))
        net.set_latency("B", "A", FixedLatency(1.0))
        a.send("B", "slow")
        b.send("A", "fast")
        sched.run()
        assert a.received[0][2] == 1.0
        assert b.received[0][2] == 10.0

    def test_add_delay_slows_link(self):
        sched, net, a, b, _ = make_net()
        net.add_delay("A", "B", 5.0)
        a.send("B", "m")
        sched.run()
        assert b.received[0][2] == 6.0

    def test_negative_extra_delay_rejected(self):
        _sched, net, _a, _b, _ = make_net()
        with pytest.raises(ChannelError):
            net.add_delay("A", "B", -1.0)


class TestCrash:
    def test_crashed_node_receives_nothing(self):
        sched, net, a, b, _ = make_net()
        b.crash()
        a.send("B", "m")
        sched.run()
        assert b.received == []

    def test_crashed_node_sends_nothing(self):
        sched, net, a, b, _ = make_net()
        a.crash()
        a.send("B", "m")
        sched.run()
        assert b.received == []

    def test_crash_mid_flight_drops_delivery(self):
        sched, net, a, b, _ = make_net()
        a.send("B", "m")
        sched.schedule(0.5, b.crash)
        sched.run()
        assert b.received == []


class TestLatencyModels:
    def test_fixed_rejects_negative(self):
        with pytest.raises(ChannelError):
            FixedLatency(-1)

    def test_uniform_bounds(self):
        sched = Scheduler(seed=1)
        model = UniformLatency(1.0, 2.0)
        for _ in range(100):
            assert 1.0 <= model.sample(sched.rng) <= 2.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ChannelError):
            UniformLatency(2.0, 1.0)

    def test_exponential_positive_and_capped(self):
        sched = Scheduler(seed=1)
        model = ExponentialLatency(mean=1.0, cap=3.0)
        samples = [model.sample(sched.rng) for _ in range(200)]
        assert all(0 <= s <= 3.0 for s in samples)

    def test_exponential_rejects_bad_params(self):
        with pytest.raises(ChannelError):
            ExponentialLatency(0)
        with pytest.raises(ChannelError):
            ExponentialLatency(2.0, cap=1.0)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_deterministic_given_seed(self, seed):
        def run(s):
            sched, net, a, b, _ = make_net(latency=ExponentialLatency(1.5), seed=s)
            for i in range(10):
                a.send("B", i)
            sched.run()
            return [t for _, _, t in b.received]

        assert run(seed) == run(seed)


class TestTraceIntegration:
    def test_messages_recorded_with_kind_and_size(self):
        class Sized:
            kind = "TEST"

            @staticmethod
            def wire_size():
                return 123

        sched, net, a, b, trace = make_net()
        a.send("B", Sized())
        sched.run()
        assert trace.message_count("TEST") == 1
        assert trace.total_bytes("TEST") == 123

    def test_message_kind_fallback(self):
        assert message_kind("plain string") == "str"
        assert message_size("plain string") == 0


class TestTransportBatching:
    """Same-turn same-link bursts coalesce into one delivery event."""

    def make_batched(self, latency=None, seed=0):
        sched = Scheduler(seed=seed)
        trace = SimTrace()
        net = Network(
            sched,
            default_latency=latency or FixedLatency(1.0),
            trace=trace,
            batching=True,
        )
        a, b = Recorder("A"), Recorder("B")
        net.register(a)
        net.register(b)
        return sched, net, a, b, trace

    def test_same_turn_burst_is_one_event(self):
        sched, net, a, b, trace = self.make_batched()
        a.send("B", "m1")
        a.send("B", "m2")
        a.send("B", "m3")
        fired = sched.run()
        # One delivery event for the whole burst...
        assert fired == 1
        assert net.bursts_formed == 1
        assert net.messages_coalesced == 2
        # ...delivering every member, in FIFO order, at the burst time.
        assert [m for _, m, _ in b.received] == ["m1", "m2", "m3"]
        assert len({t for _, _, t in b.received}) == 1
        # Trace still counts messages, not packets (E3/E4 depend on it).
        assert trace.message_count() == 3

    def test_cross_turn_sends_do_not_coalesce(self):
        sched, net, a, b, _ = self.make_batched()
        a.send("B", "m1")
        sched.run()  # the turn ends; the burst is delivered
        a.send("B", "m2")
        sched.run()
        assert net.bursts_formed == 2
        assert net.messages_coalesced == 0
        times = [t for _, _, t in b.received]
        assert times[0] < times[1]  # FIFO across bursts

    def test_distinct_links_get_distinct_bursts(self):
        sched, net, a, b, _ = self.make_batched()
        a.send("B", "to-b")
        b.send("A", "to-a")
        assert sched.run() == 2
        assert net.bursts_formed == 2
        assert net.messages_coalesced == 0

    def test_fifo_clamp_holds_across_bursts(self):
        # A slow burst followed (next turn) by a fast send: the fast one
        # must not overtake.
        sched, net, a, b, _ = self.make_batched(latency=UniformLatency(0.0, 5.0), seed=7)
        a.send("B", "first")
        a.send("B", "second")  # same turn: rides the first burst
        sched.schedule(0.001, lambda: a.send("B", "third"))
        sched.run()
        assert [m for _, m, _ in b.received] == ["first", "second", "third"]
        times = [t for _, _, t in b.received]
        assert times[0] == times[1] <= times[2]

    def test_unbatched_network_reports_batching_off(self):
        sched, net, a, b, _ = make_net()
        assert net.batching is False
        a.send("B", "m")
        sched.run()
        assert net.bursts_formed == 0


class TestFanOut:
    """``send_multi``: one logical send, one latency draw, n deliveries."""

    def make_group(self, batching=False, seed=5):
        sched = Scheduler(seed=seed)
        trace = SimTrace()
        net = Network(
            sched,
            default_latency=UniformLatency(1.0, 9.0),
            trace=trace,
            batching=batching,
        )
        nodes = [Recorder(name) for name in ("C", "S0", "S1", "S2")]
        for node in nodes:
            net.register(node)
        return sched, net, nodes, trace

    @pytest.mark.parametrize("batching", [False, True])
    def test_one_sample_shared_by_every_destination(self, batching):
        sched, net, (c, *replicas), trace = self.make_group(batching)
        records = []
        trace.tap(records.append)
        twin = Scheduler(seed=5)
        expected = UniformLatency(1.0, 9.0).sample(twin.rng)
        net.add_delay("C", "S2", 0.25)
        c.send_multi(("S0", "S1", "S2"), "m")
        # Exactly one draw left the shared stream, whatever the group size.
        assert sched.rng.random() == twin.rng.random()
        sched.run()
        arrivals = [node.received[0][2] for node in replicas]
        assert arrivals == [expected, expected, expected + 0.25]
        assert [(m.src, m.dst, m.sent_at, m.delivered_at) for m in records] == [
            ("C", name, 0.0, at) for name, at in zip(("S0", "S1", "S2"), arrivals)
        ]

    def test_send_is_a_fan_out_of_one(self):
        sched, net, (c, s0, *_), _ = self.make_group()
        twin_sched, twin_net, (twin_c, twin_s0, *_), _ = self.make_group()
        c.send("S0", "m")
        twin_c.send_multi(("S0",), "m")
        sched.run()
        twin_sched.run()
        assert s0.received == twin_s0.received

    def test_members_ride_open_bursts_and_the_rest_share_a_sample(self):
        sched, net, (c, s0, s1, s2), trace = self.make_group(batching=True)
        c.send("S1", "first")  # opens a burst on C->S1 only
        c.send_multi(("S0", "S1", "S2"), "second")
        assert (net.bursts_formed, net.messages_coalesced) == (3, 1)
        assert sched.run() == 3
        assert [m for _, m, _ in s1.received] == ["first", "second"]
        assert s1.received[0][2] == s1.received[1][2]
        assert s0.received[0][2] == s2.received[0][2]
        assert trace.message_count() == 4

    def test_an_unknown_member_rejects_the_whole_send(self):
        sched, net, (c, *_), trace = self.make_group()
        with pytest.raises(ChannelError, match="recipient 'S9'"):
            net.send_multi("C", ("S0", "S9"), "m")
        with pytest.raises(ChannelError, match="sender 'X'"):
            net.send_multi("X", ("S0",), "m")
        assert sched.pending == 0 and trace.message_count() == 0

    def test_the_message_is_sized_once_per_send(self):
        class Sized:
            kind = "BULK"
            calls = 0

            def wire_size(self):
                Sized.calls += 1
                return 4096

        sched, net, (c, *_), trace = self.make_group(batching=True)
        c.send_multi(("S0", "S1", "S2"), Sized())
        assert Sized.calls == 1
        assert trace.total_bytes("BULK") == 3 * 4096


class TestFixedRunAccounting:
    def test_replicated_sharded_batched_run_counts_are_pinned(self):
        """Messages, bytes, events and virtual time of one fixed run through
        every substrate path (fan-out, bursts, offline mail, group commit):
        the numbers any rewrite of the hot paths has to reproduce."""
        from repro.api import BatchingPolicy, SystemConfig, open_system

        config = SystemConfig(
            num_clients=3,
            seed=11,
            shards=2,
            replicas=3,
            counter="durable",
            shard_protocol="faust",
            batching=BatchingPolicy(max_batch=4),
        )
        with open_system(config, backend="cluster") as system:
            sessions = system.sessions()
            for round_index in range(6):
                for client, session in enumerate(sessions):
                    session.write(bytes([client, round_index]) * 40)
                if round_index % 2:
                    for session in sessions:
                        session.barrier()
            for session in sessions:
                session.barrier()
            trace = system.trace
            assert trace.message_count() == 222
            assert trace.total_bytes() == 55971
            assert trace.message_count("SUBMIT") == 75
            assert trace.total_bytes("REPLY") == 23547
            assert system.scheduler.events_processed == 305
            assert system.now == 16.863545677441813

"""FAUST client edge cases: queueing, dummy reads, pause/resume, ablation."""

from __future__ import annotations

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.common.errors import ProtocolError
from repro.faust.ablation import VectorOnlyTracker, ablate_system, vector_comparable
from repro.faust.messages import ProbeMessage, VersionMessage
from repro.ustor.version import Version

from test_faust_stability import chained_versions


class TestOperationQueueing:
    def test_user_ops_queue_behind_each_other(self):
        system = open_system(SystemConfig(num_clients=2, seed=1))
        client = system.clients[0]
        results = []
        client.write(b"first", results.append)
        client.write(b"second", results.append)  # queued, not an error
        client.read(0, results.append)
        assert system.run_until(lambda: len(results) == 3, timeout=200)
        assert [r.timestamp for r in results] == sorted(r.timestamp for r in results)
        assert results[2].value == b"second"

    def test_dummy_read_defers_to_queued_user_ops(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=2,
                faust=FaustParams(dummy_read_period=0.5),
            ),
        )
        client = system.clients[0]
        system.run(until=5.0)  # several dummy reads happen
        issued_before = client.dummy_reads_issued
        assert issued_before > 0
        # While a user op is queued/in flight, no dummy reads are issued.
        results = []
        client.write(b"user-op", results.append)
        assert system.run_until(lambda: bool(results), timeout=50)

    def test_idle_property(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=3,
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        client = system.clients[0]
        assert client.idle
        client.write(b"x", lambda o: None)
        assert not client.idle
        system.run(until=50)
        assert client.idle


class TestPauseResume:
    def test_paused_client_issues_no_dummy_reads(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=4,
                faust=FaustParams(dummy_read_period=1.0),
            ),
        )
        client = system.clients[0]
        system.run(until=5.0)
        client.pause()
        before = client.dummy_reads_issued
        system.run(until=20.0)
        assert client.dummy_reads_issued == before
        client.resume()
        system.run(until=30.0)
        assert client.dummy_reads_issued > before

    def test_enable_background_late(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=5,
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        client = system.clients[0]
        system.run(until=20.0)
        assert client.dummy_reads_issued == 0
        client.enable_background(dummy_reads=True, probes=True)
        system.run(until=60.0)
        assert client.dummy_reads_issued > 0


class TestProbeProtocol:
    def test_probe_answered_with_max_version(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=6,
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        c0, c1 = system.clients
        box = []
        c0.write(b"x", box.append)
        assert system.run_until(lambda: bool(box), timeout=50)
        # Deliver a probe from C2 by hand.
        system.offline.send(c1.name, c0.name, ProbeMessage(sender=1))
        system.run(until=system.now + 50)
        # C2 must now know C1's version and have a stability entry for it.
        assert c1.tracker.versions[0].vector[0] == 1

    def test_version_message_updates_tracker(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=7,
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        c0 = system.clients[0]
        version = chained_versions([1], 2)[0]
        c0.on_message("C2", VersionMessage(sender=1, version=version))
        assert c0.tracker.versions[1] == version

    def test_failed_client_rejects_new_operations(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=8,
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        c0 = system.clients[0]
        fork_a = chained_versions([0, 0], 2)[-1]
        fork_b = chained_versions([1, 1], 2)[-1]
        c0.on_message("C2", VersionMessage(sender=1, version=fork_a))
        c0.on_message("C2", VersionMessage(sender=1, version=fork_b))
        assert c0.failed
        with pytest.raises(ProtocolError):
            c0.write(b"too-late")


class TestAblation:
    def test_vector_comparability(self):
        a = Version((1, 0), (b"x" * 32, None))
        b = Version((1, 1), (b"y" * 32, b"z" * 32))
        # Digest-aware order rejects (digests differ at equal entry 0);
        # vector-only order accepts.
        assert not a.le(b)
        assert vector_comparable(a, b)

    def test_vector_only_tracker_blind_to_digest_divergence(self):
        full = chained_versions([0, 1], 2)
        diverged = chained_versions([1, 0], 2)
        tracker = VectorOnlyTracker(0, 2)
        tracker.absorb(0, full[-1], now=1.0)
        outcome = tracker.absorb(1, diverged[-1], now=2.0)
        assert not outcome.incomparable  # the ablated check misses it

    def test_ablate_system_swaps_trackers(self):
        system = open_system(SystemConfig(num_clients=2, seed=9))
        ablate_system(system)
        assert all(isinstance(c.tracker, VectorOnlyTracker) for c in system.clients)

    def test_ablated_system_still_works_honestly(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=10,
                faust=FaustParams(dummy_read_period=2.0),
            ),
        )
        ablate_system(system)
        box = []
        system.clients[0].write(b"v", box.append)
        assert system.run_until(lambda: bool(box), timeout=100)
        t = box[0].timestamp
        assert system.run_until(
            lambda: system.clients[0].tracker.stable_timestamp_for_all() >= t,
            timeout=1_000,
        )
        assert not any(c.failed for c in system.clients)

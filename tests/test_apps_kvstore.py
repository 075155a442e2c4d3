"""The multi-writer key-value store composed over FAUST."""

from __future__ import annotations

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.apps.kvstore import KvStore, KvUpdate, _deserialize_log, _serialize_log
from repro.common.errors import ProtocolError
from repro.api.errors import OperationFailed
from repro.ustor.byzantine import SplitBrainServer, TamperingServer


def build_store_system(n=3, seed=9):
    return open_system(
        SystemConfig(
            num_clients=n, seed=seed, faust=FaustParams(dummy_read_period=3.0)
        )
    )


class TestSerialization:
    def test_roundtrip(self):
        log = [KvUpdate("a", 1, 1, 0), KvUpdate("b", None, 2, 0)]
        assert _deserialize_log(_serialize_log(log)) == log

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            _deserialize_log(b"not json")
        with pytest.raises(ProtocolError):
            _deserialize_log(b'{"wrong": "shape"}')

    def test_values_are_json(self):
        log = [KvUpdate("k", {"nested": [1, 2]}, 1, 0)]
        assert _deserialize_log(_serialize_log(log)) == log


class TestBasicMap:
    def test_put_get(self):
        system = build_store_system()
        alice = KvStore(system, 0)
        alice.put("color", "blue")
        assert alice.get("color") == "blue"

    def test_cross_client_visibility(self):
        system = build_store_system()
        alice, bob = KvStore(system, 0), KvStore(system, 1)
        alice.put("k", "v")
        assert bob.get("k") == "v"

    def test_multi_writer_merge(self):
        system = build_store_system()
        alice, bob = KvStore(system, 0), KvStore(system, 1)
        alice.put("a", 1)
        bob.put("b", 2)
        assert alice.snapshot() == {"a": 1, "b": 2}
        assert bob.snapshot() == {"a": 1, "b": 2}

    def test_last_writer_wins_after_observation(self):
        system = build_store_system()
        alice, bob = KvStore(system, 0), KvStore(system, 1)
        alice.put("k", "from-alice")
        bob.snapshot()  # bob observes alice's update (clock catches up)
        bob.put("k", "from-bob")
        assert alice.get("k") == "from-bob"

    def test_delete(self):
        system = build_store_system()
        alice, bob = KvStore(system, 0), KvStore(system, 1)
        alice.put("k", "v")
        bob.snapshot()
        bob.put("other", 1)
        alice.delete("k")
        assert bob.snapshot() == {"other": 1}

    def test_get_default(self):
        system = build_store_system()
        alice = KvStore(system, 0)
        assert alice.get("missing", default=42) == 42

    def test_overwrite_same_writer(self):
        system = build_store_system()
        alice = KvStore(system, 0)
        alice.put("k", 1)
        alice.put("k", 2)
        assert alice.get("k") == 2


class TestFailAwareness:
    def test_updates_become_stable(self):
        system = build_store_system()
        alice = KvStore(system, 0)
        t = alice.put("doc", "v1")
        assert alice.wait_until_stable(t, timeout=3_000)

    def test_tampering_surfaces_as_failure(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=10,
                server_factory=lambda n, name: TamperingServer(n, 0, name=name),
                faust=FaustParams(
                    dummy_read_period=1_000.0, probe_check_period=1_000.0
                ),
            ),
        )
        alice, bob = KvStore(system, 0), KvStore(system, 1)
        alice.put("k", "v")
        with pytest.raises(OperationFailed):
            bob.snapshot()
        assert bob.failed

    def test_split_brain_divergence_visible_then_detected(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=11,
                server_factory=lambda n, name: SplitBrainServer(
                    n, groups=[{0}, {1}], fork_time=0.0, name=name
                ),
                faust=FaustParams(
                    dummy_read_period=5.0, probe_check_period=4.0, delta=15.0
                ),
            ),
        )
        alice, bob = KvStore(system, 0), KvStore(system, 1)
        alice.put("k", "alice-version")
        bob.put("k", "bob-version")
        # Forked: each sees only its own branch.
        assert alice.get("k") == "alice-version"
        assert bob.get("k") == "bob-version"
        # Background probing exposes the fork at both clients.
        system.run(until=system.now + 600)
        assert system.clients[0].failed and system.clients[1].failed

"""Tests for the replica layer: quorum resolution end to end.

Three levels of ambition:

* **coordinator units** — the :class:`QuorumCoordinator` state machine
  in isolation, driven with hand-built replies (masking, read repair,
  conviction, the failure strings clients raise as ``fail_i``);
* **equivalence** — an all-honest replica group is *invisible*: the
  committed history is identical to the single-server run, replicas and
  counters included (the facade promise the tentpole makes);
* **scenarios** — the rollback attack against each trust configuration
  in the simulator, and the conviction reproduced over real TCP
  sockets with the loopback harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError
from repro.replica.coordinator import QuorumCoordinator, default_quorum
from repro.replica.counter import CounterVerifier, MonotonicCounter
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
from repro.workloads.runner import SystemBuilder
from repro.workloads.scenarios import replica_rollback_scenario


def _version(total: int):
    return SimpleNamespace(version=SimpleNamespace(vector=(total,)))


@dataclass(frozen=True)
class FakeReply:
    """Just enough of a REPLY for the coordinator: comparable content,
    a strippable ``attestation``, and the read-repair ordering key."""

    tag: str
    attestation: object | None = None
    mem: object | None = None
    last_version: object = field(default_factory=lambda: _version(0))
    pending: tuple = ()


def make_group(n=3, quorum=None, **kwargs):
    names = tuple(f"S/r{k}" for k in range(n))
    return QuorumCoordinator(names, quorum=quorum, **kwargs)


class TestConfig:
    def test_default_quorum_is_majority(self):
        assert [default_quorum(n) for n in (2, 3, 4, 5)] == [2, 2, 3, 3]

    def test_group_needs_two_replicas(self):
        with pytest.raises(ConfigurationError, match="at least 2"):
            QuorumCoordinator(("S",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            QuorumCoordinator(("S/r0", "S/r0"))

    @pytest.mark.parametrize("quorum", [0, 4])
    def test_quorum_bounds(self, quorum):
        with pytest.raises(ConfigurationError, match="quorum must be"):
            make_group(3, quorum=quorum)

    def test_one_operation_at_a_time(self):
        group = make_group()
        group.begin_round(False, b"a")
        with pytest.raises(ConfigurationError, match="still open"):
            group.begin_round(False, b"b")


class TestResolution:
    def test_quorum_of_identical_replies_elects_winner(self):
        group = make_group()
        group.begin_round(False, b"op")
        assert group.absorb("S/r0", FakeReply("v")) is None
        winner = group.absorb("S/r1", FakeReply("v"))
        assert winner == FakeReply("v")
        assert group.stats()["rounds_resolved"] == 1

    def test_attestations_are_stripped_before_voting(self):
        # Counter attestations legitimately differ per replica; they must
        # neither block agreement nor leak into the winning REPLY.
        group = make_group()
        group.begin_round(False, b"op")
        group.absorb("S/r0", FakeReply("v", attestation="from-r0"))
        winner = group.absorb("S/r1", FakeReply("v", attestation="from-r1"))
        assert winner is not None and winner.attestation is None

    def test_minority_deviation_is_masked(self):
        group = make_group()
        group.begin_round(False, b"op")
        assert group.absorb("S/r0", FakeReply("rolled-back")) is None
        assert group.absorb("S/r1", FakeReply("v")) is None
        winner = group.absorb("S/r2", FakeReply("v"))
        assert winner == FakeReply("v")
        assert group.masked_deviations == 1
        assert not group.convicted

    def test_late_deviant_straggler_is_counted(self):
        group = make_group()
        group.begin_round(False, b"op")
        group.absorb("S/r0", FakeReply("v"))
        assert group.absorb("S/r1", FakeReply("v")) is not None
        assert group.absorb("S/r2", FakeReply("stale")) is None
        assert group.late_replies == 1
        assert group.masked_deviations == 1

    def test_read_repair_elects_highest_timestamp(self):
        # All live replicas answered a *read* without agreement: the
        # highest register timestamp wins (the client's COMMIT broadcast
        # is the write-back that re-converges the group).
        group = make_group()
        group.begin_round(True, b"op")
        group.absorb("S/r0", FakeReply("old", mem=SimpleNamespace(timestamp=1)))
        group.absorb("S/r1", FakeReply("older", mem=SimpleNamespace(timestamp=0)))
        winner = group.absorb(
            "S/r2", FakeReply("new", mem=SimpleNamespace(timestamp=2))
        )
        assert winner is not None and winner.tag == "new"
        assert group.read_repairs == 1

    def test_write_without_quorum_fails(self):
        group = make_group()
        group.begin_round(False, b"op")
        group.absorb("S/r0", FakeReply("a"))
        group.absorb("S/r1", FakeReply("b"))
        outcome = group.absorb("S/r2", FakeReply("c"))
        assert isinstance(outcome, str)
        assert "write quorum unattainable" in outcome

    def test_replies_from_strangers_are_ignored(self):
        group = make_group()
        group.begin_round(False, b"op")
        assert group.absorb("mallory", FakeReply("v")) is None
        assert not group.convicted


class TestConviction:
    def test_unsolicited_reply_convicts(self):
        convictions = []
        group = make_group(on_convict=lambda r, v: convictions.append((r, v)))
        assert group.absorb("S/r0", FakeReply("v")) is None
        assert "unsolicited" in group.convicted["S/r0"]
        assert convictions == [("S/r0", group.convicted["S/r0"])]
        assert group.targets() == ("S/r1", "S/r2")

    def test_convicted_replica_is_excluded_but_group_serves_on(self):
        group = make_group()
        group.absorb("S/r2", FakeReply("forged"))  # unsolicited: convicted
        group.begin_round(False, b"op")
        group.absorb("S/r0", FakeReply("v"))
        assert group.absorb("S/r1", FakeReply("v")) == FakeReply("v")
        # Further REPLYs from the convict are dead letters.
        assert group.absorb("S/r2", FakeReply("v")) is None
        assert list(group.convicted) == ["S/r2"]

    def test_conviction_below_quorum_margin_fails_loudly(self):
        group = make_group(2)  # n=2, q=2: no masking margin at all
        group.begin_round(False, b"op")
        group.absorb("S/r0", FakeReply("v"))
        assert group.absorb("S/r1", FakeReply("v")) == FakeReply("v")
        # r1 fabricates a second REPLY before any second SUBMIT exists:
        # convicting it leaves 1 live replica < quorum 2 — unserviceable.
        failure = group.absorb("S/r1", FakeReply("zzz"))
        assert isinstance(failure, str)
        assert "cannot reach quorum" in failure

    def test_counter_violation_convicts_while_honest_majority_resolves(self):
        counters = {name: MonotonicCounter(name) for name in
                    ("S/r0", "S/r1", "S/r2")}
        group = make_group(verifier=CounterVerifier())
        group.begin_round(False, b"op")
        for name in ("S/r0", "S/r1"):
            attestation = counters[name].attest(b"op", 1)
            outcome = group.absorb(name, FakeReply("v", attestation=attestation))
        assert outcome == FakeReply("v")
        # r2's state vouches for 0 SUBMITs while its counter says 1: the
        # straggler is convicted even though its round already resolved.
        rolled = counters["S/r2"].attest(b"op", 0)
        assert group.absorb("S/r2", FakeReply("v", attestation=rolled)) is None
        assert "rolled back" in group.convicted["S/r2"]
        assert group.targets() == ("S/r0", "S/r1")


class TestAllHonestEquivalence:
    def run_history(self, **builder_kwargs):
        system = SystemBuilder(num_clients=3, seed=7, **builder_kwargs).build()
        scripts = generate_scripts(
            3,
            WorkloadConfig(ops_per_client=6, read_fraction=0.5),
            random.Random(7),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=2_000.0)
        assert driver.stats.all_done()
        assert not any(c.failed for c in system.clients)
        return [
            (op.client, op.kind, op.register, op.value, op.timestamp)
            for op in system.history()
        ]

    def test_replica_group_is_invisible_to_the_history(self):
        single = self.run_history()
        replicated = self.run_history(replicas=3)
        attested = self.run_history(replicas=3, counter="durable")
        assert single == replicated == attested


class TestRollbackScenarios:
    def test_honest_majority_masks_the_rollback(self):
        result = replica_rollback_scenario(ops_per_client=6, replicas=3)
        assert result.stats.all_done()
        assert result.masked_deviations > 0
        assert not result.convicted and not result.failures

    def test_unanimity_quorum_turns_masking_into_detection(self):
        result = replica_rollback_scenario(
            ops_per_client=6, replicas=3, quorum=3
        )
        assert result.detected
        assert result.failures  # no margin: the deviation is fatal

    def test_durable_counter_convicts_in_constant_operations(self):
        result = replica_rollback_scenario(
            ops_per_client=6, replicas=3, counter="durable"
        )
        assert result.stats.all_done()  # the majority keeps serving
        assert list(result.convicted) == ["S0/r1"]
        assert "rolled back" in result.convicted["S0/r1"]
        # O(1): caught within one in-flight operation per client of the
        # restart, independent of the workload length.
        assert result.detected
        assert result.ops_until_detection <= 2 * 4

    def test_volatile_counter_falsely_accuses_honest_recovery(self):
        result = replica_rollback_scenario(
            ops_per_client=6,
            replicas=3,
            counter="volatile",
            rollback_replica=None,
            honest_outage=(1, 30.0, 5.0),
        )
        assert result.stats.all_done()
        assert len(result.convicted) == 1  # an *honest* replica convicted
        assert not result.masked_deviations


@pytest.mark.net
class TestTcpReplicaGroup:
    def test_counter_convicts_rollback_over_real_sockets(self):
        from repro.net.client import NetRuntime, open_tcp_system
        from repro.net.server import NetServerHost

        runtime = NetRuntime()
        hosts = []
        for k in range(3):
            host = NetServerHost(
                2, server_name=f"S/r{k}", counter="volatile"
            )
            runtime.run_coroutine(host.start())
            hosts.append(host)
        system = open_tcp_system(
            2,
            tuple(h.endpoint for h in hosts),
            runtime=runtime,
            replicas=3,
            counter=True,
            default_timeout=10.0,
        )
        system.hosts.extend(hosts)
        system.owns_runtime = True
        with system:
            alice, bob = system.session(0), system.session(1)
            assert alice.write_sync(b"pre-attack") == 1
            # Roll replica r1 back in place: its durable state reverts to
            # the pre-write snapshot while the attached counter — by
            # design — cannot follow.
            pristine = hosts[1].node.state.clone()
            assert bob.write_sync(b"will-be-forgotten") == 1
            hosts[1].node.state = pristine

            # The group keeps serving and the rolled replica is convicted
            # on its first post-rollback REPLY.
            assert alice.write_sync(b"post-attack") == 2
            value, _t = bob.read_sync(0)
            assert value == b"post-attack"
            convicted = {
                name: violation
                for client in system.clients
                for name, violation in client.quorum_coordinator.convicted.items()
            }
            assert list(convicted) == ["S/r1"]
            assert "rolled back" in convicted["S/r1"]
            assert not any(c.failed for c in system.clients)

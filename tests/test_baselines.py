"""The baseline: the blocking lock-step protocol.

It is no ``open_system`` backend; every test builds it from a config the
way E3, E5 and ``examples/wait_freedom.py`` do, with ``build_deployment``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api import SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import (
    LockStepServer,
    LsCommit,
    LsReply,
    LsVersion,
    TamperingLockStepServer,
    lockstep_protocol,
)
from repro.common.errors import ProtocolError
from repro.common.types import BOTTOM
from repro.consistency.causal import check_causal_consistency
from repro.consistency import check_fork_linearizability_exhaustive
from repro.consistency.linearizability import check_linearizability
from repro.sim.faults import Fault
from repro.sim.network import FixedLatency
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def lockstep(config):
    """The lock-step deployment ``config`` describes."""
    return build_deployment(config, lockstep_protocol())


def sync_op(system, client, op, arg, timeout=1_000.0):
    box = []
    getattr(client, op)(arg, box.append)
    assert system.run_until(lambda: bool(box), timeout=timeout)
    system.run(until=system.now + 0.05)
    return box[0]


class TestLockStepHappyPath:
    def test_write_read(self):
        system = lockstep(SystemConfig(2, seed=1))
        sync_op(system, system.clients[0], "write", b"v")
        outcome = sync_op(system, system.clients[1], "read", 0)
        assert outcome.value == b"v"

    def test_read_before_write_is_bottom(self):
        system = lockstep(SystemConfig(2, seed=1))
        outcome = sync_op(system, system.clients[1], "read", 0)
        assert outcome.value is BOTTOM

    @pytest.mark.parametrize("seed", range(4))
    def test_linearizable_on_random_runs(self, seed):
        system = lockstep(SystemConfig(3, seed=seed))
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=12), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion()
        history = system.history()
        assert check_linearizability(history)
        assert check_causal_consistency(history)
        assert not any(c.failed for c in system.clients)

    def test_small_run_fork_linearizable(self):
        system = lockstep(SystemConfig(2, seed=3))
        sync_op(system, system.clients[0], "write", b"a")
        sync_op(system, system.clients[1], "read", 0)
        sync_op(system, system.clients[0], "write", b"b")
        assert check_fork_linearizability_exhaustive(system.history())

    def test_timestamps_increase(self):
        system = lockstep(SystemConfig(1, seed=1))
        first = sync_op(system, system.clients[0], "write", b"a")
        second = sync_op(system, system.clients[0], "read", 0)
        assert first.timestamp < second.timestamp


class TestLockStepBlocking:
    """The paper's impossibility made concrete."""

    def test_crash_between_reply_and_commit_blocks_everyone(self):
        system = lockstep(SystemConfig(3, seed=2, latency=FixedLatency(1.0)))
        victim = system.clients[0]
        victim.write(b"doomed", lambda o: None)
        system.scheduler.schedule(1.5, victim.crash)  # REPLY lands at 2.0
        results = []
        system.scheduler.schedule(3.0, system.clients[1].write, b"y", results.append)
        system.scheduler.schedule(3.0, system.clients[2].read, 1, results.append)
        system.run(until=1_000)
        assert results == []
        assert system.server.blocked
        assert system.server.queue_length == 2

    def test_contention_serialises_operations(self):
        # All clients submit at once; completions are strictly sequential,
        # so the k-th completion happens ~k round-trips in.
        system = lockstep(SystemConfig(4, seed=3, latency=FixedLatency(1.0)))
        done = []
        for client in system.clients:
            client.write(b"w-%d" % client.client_id, lambda o: done.append(system.now))
        system.run_until(lambda: len(done) == 4, timeout=200)
        assert len(done) == 4
        gaps = [b - a for a, b in zip(done, done[1:])]
        assert all(gap >= 1.9 for gap in gaps), f"gaps: {gaps}"

    def test_ustor_same_scenario_does_not_serialise(self):
        system = open_system(
            SystemConfig(num_clients=4, seed=3, latency=FixedLatency(1.0)),
            backend="ustor",
        )
        done = []
        for client in system.clients:
            client.write(b"w-%d" % client.client_id, lambda o: done.append(system.now))
        system.run_until(lambda: len(done) == 4, timeout=200)
        # Every operation completes in one round-trip, all at the same time.
        assert len(done) == 4
        assert max(done) - min(done) < 0.1


class TestLockStepIntegrity:
    def test_tampered_value_detected(self):
        system = lockstep(
            SystemConfig(
                2,
                seed=4,
                server_factory=lambda n, name: TamperingLockStepServer(n, 0, name=name),
            )
        )
        sync_op(system, system.clients[0], "write", b"genuine")
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=100)
        assert not box
        assert system.clients[1].failed
        assert "does not match" in system.clients[1].fail_reason


# --------------------------------------------------------------------- #
# Every chain check, each tripped by one rewritten REPLY
# --------------------------------------------------------------------- #


class RewritingLockStepServer(LockStepServer):
    """Honest, except that every REPLY to ``C3`` passes through ``rewrite``
    (which may sign with a colluding client's key from ``keystore``)."""

    def __init__(self, num_clients, rewrite, name="S"):
        super().__init__(num_clients, name)
        self.rewrite = rewrite
        self.keystore = None

    def send(self, dst, message):
        if dst == "C3" and isinstance(message, LsReply):
            message = self.rewrite(self, message)
        super().send(dst, message)


def flipped(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 1]) + blob[1:]


def resigned_vector(server, reply):
    """A version its committer's key really signed, over a vector that
    credits the reader with an operation it never ran."""
    version = reply.version
    vector = version.vector[:2] + (version.vector[2] + 1,)
    signer = server.keystore.signer(version.committer)
    sig = signer.sign("LS-COMMIT", version.seq, vector, version.chain)
    return dataclasses.replace(
        reply,
        version=dataclasses.replace(version, vector=vector, commit_sig=sig),
    )


def with_delta(reply, *order):
    return dataclasses.replace(reply, delta=tuple(reply.delta[i] for i in order))


def with_first(reply, **changes):
    first = dataclasses.replace(reply.delta[0], **changes)
    return dataclasses.replace(reply, delta=(first,) + reply.delta[1:])


#: reason -> (register C3 reads, the server's rewrite of C3's REPLY).  C1
#: has written b"a" then b"b" and C2 has written b"c", so C3's delta is
#: the three descriptors (C1 t1, C1 t2, C2 t1) in that order.
CHAIN_CHECKS = {
    "forged initial version": (0, lambda server, reply: dataclasses.replace(
        reply,
        version=dataclasses.replace(LsVersion.initial(3), vector=(1, 0, 0)),
        delta=(),
    )),
    "invalid commit signature on version": (0, lambda server, reply: (
        dataclasses.replace(reply, version=dataclasses.replace(
            reply.version, commit_sig=flipped(reply.version.commit_sig)
        ))
    )),
    "sequence number does not match delta length": (
        0, lambda server, reply: with_delta(reply, 1, 2)
    ),
    "delta contains an impossible operation": (
        0, lambda server, reply: with_first(reply, client=2)
    ),
    "invalid operation signature in delta": (
        0, lambda server, reply: with_first(
            reply, op_sig=flipped(reply.delta[0].op_sig)
        )
    ),
    "operation timestamps in delta are not consecutive": (
        0, lambda server, reply: with_delta(reply, 1, 0, 2)
    ),
    "hash chain mismatch — forked or reordered history": (
        0, lambda server, reply: with_delta(reply, 2, 0, 1)
    ),
    "timestamp vector mismatch": (0, resigned_vector),
    "read returned a value for a never-written register": (
        2, lambda server, reply: dataclasses.replace(reply, read_value=b"x")
    ),
    "read returned no value for a written register": (
        0, lambda server, reply: dataclasses.replace(reply, read_value=BOTTOM)
    ),
    "read value does not match the committed write": (
        # A rollback of register 0 to its first write.
        0, lambda server, reply: dataclasses.replace(reply, read_value=b"a")
    ),
}


#: The checks a signature decides, run again under the other scheme.
SIGNED = (
    "invalid commit signature on version",
    "invalid operation signature in delta",
    "timestamp vector mismatch",
)


@pytest.mark.parametrize(
    "scheme, reason",
    [("hmac", reason) for reason in CHAIN_CHECKS]
    + [("ed25519", reason) for reason in SIGNED],
)
def test_every_chain_check_halts_the_reader(scheme, reason):
    register, rewrite = CHAIN_CHECKS[reason]
    system = lockstep(
        SystemConfig(
            3,
            seed=5,
            scheme=scheme,
            server_factory=lambda n, name: RewritingLockStepServer(
                n, rewrite, name=name
            ),
        )
    )
    system.server.keystore = system.keystore
    first, second, reader = system.clients
    for client, value in ((first, b"a"), (first, b"b"), (second, b"c")):
        sync_op(system, client, "write", value)
    heard, box = [], []
    reader.add_failure_listener(heard.append)
    reader.read(register, box.append)
    system.run(until=system.now + 100)
    assert box == []
    assert reader.failed and reader.halted
    assert reader.fail_reason == reader.halt_reason == reason
    assert heard == [reason]
    assert not first.failed and not second.failed
    # The reader never commits, so the token stays with it.
    assert system.server.blocked


def test_a_chain_check_failure_reaches_the_deployments_hub():
    # build_deployment hands E3, E5 and the wait-freedom example a
    # deployment whose hub records the lock-step clients' fail_i, as it
    # records every backend's.
    reason = "hash chain mismatch — forked or reordered history"
    register, rewrite = CHAIN_CHECKS[reason]
    system = lockstep(
        SystemConfig(
            3,
            seed=5,
            server_factory=lambda n, name: RewritingLockStepServer(
                n, rewrite, name=name
            ),
        )
    )
    system.server.keystore = system.keystore
    first, second, reader = system.clients
    for client, value in ((first, b"a"), (first, b"b"), (second, b"c")):
        sync_op(system, client, "write", value)
    assert system.notifications.failure_events() == []
    reader.read(register, lambda outcome: None)
    system.run(until=system.now + 100)
    assert reader.failed
    [event] = system.notifications.failure_events()
    assert (event.client, event.shard, event.reason) == (2, 0, reason)
    assert system.notifications.first_failures() == {2: event.time}


@pytest.mark.parametrize("scheme", ["hmac", "ed25519"])
def test_the_untouched_reply_passes_every_check(scheme):
    # The same schedule through the rewriting server with an identity
    # rewrite: each failure above is the rewrite's doing.
    system = lockstep(
        SystemConfig(
            3,
            seed=5,
            scheme=scheme,
            server_factory=lambda n, name: RewritingLockStepServer(
                n, lambda server, reply: reply, name=name
            ),
        )
    )
    first, second, reader = system.clients
    for client, value in ((first, b"a"), (first, b"b"), (second, b"c")):
        sync_op(system, client, "write", value)
    assert sync_op(system, reader, "read", 0).value == b"b"
    assert sync_op(system, reader, "read", 2).value is BOTTOM
    assert not reader.failed


# --------------------------------------------------------------------- #
# What a client refuses to start, and the stray COMMIT
# --------------------------------------------------------------------- #


def _failed(system, client):
    client._fail("boom")


def _crashed(system, client):
    client.crash()


#: case -> (what happens first, the refused call, the refusal's wording)
REFUSED = {
    "non-bytes-value": (None, lambda c: c.write("text"), "bytes"),
    "register-out-of-range": (None, lambda c: c.read(2), "out of range"),
    "after-failure": (_failed, lambda c: c.read(0), "has failed and halted"),
    "after-crash": (_crashed, lambda c: c.read(0), "has crashed"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_invocations_leave_no_trace(case):
    before, call, wording = REFUSED[case]
    system = lockstep(SystemConfig(2, seed=6))
    client = system.clients[0]
    if before is not None:
        before(system, client)
    recorder = system.recorder
    recorded = (recorder.pending_count, recorder.completed_count)
    with pytest.raises(ProtocolError, match=wording):
        call(client)
    assert (recorder.pending_count, recorder.completed_count) == recorded


def test_a_stray_commit_does_not_release_the_token():
    system = lockstep(SystemConfig(2, seed=6, latency=FixedLatency(1.0)))
    holder, other = system.clients
    holder.write(b"held", lambda outcome: None)
    system.run(until=1.5)  # the server has answered the holder's SUBMIT
    server = system.server
    assert server.blocked and server.log == []
    version = server.version
    server.on_message(other.name, LsCommit(version=version))
    assert server.blocked and server.log == [] and server.version is version
    system.run(until=10.0)  # the holder's own COMMIT releases it
    assert not server.blocked and len(server.log) == 1


# --------------------------------------------------------------------- #
# When a crash wedges the token (and why USTOR never wedges)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "crash_at, wedges",
    [(0.5, True), (1.5, True), (2.5, False)],
    ids=["submit-in-flight", "reply-in-flight", "commit-sent"],
)
@pytest.mark.parametrize("protocol", ["lockstep", "ustor"])
def test_a_crash_wedges_only_a_held_lockstep_token(protocol, crash_at, wedges):
    # C1 writes at 0 with unit latency: its SUBMIT lands at 1, the REPLY
    # at 2, its COMMIT (sent at 2) at 3.  The injector crashes C1 for
    # good at crash_at; the survivors then run one operation each.
    config = SystemConfig(3, seed=2, latency=FixedLatency(1.0))
    if protocol == "lockstep":
        system = lockstep(config)
    else:
        system = open_system(config, backend="ustor")
    system.clients[0].write(b"doomed", lambda outcome: None)
    system.faults.add(Fault("crash-forever", 0, crash_at))
    done = []
    system.scheduler.schedule(4.0, system.clients[1].write, b"y", done.append)
    system.scheduler.schedule(4.0, system.clients[2].read, 0, done.append)
    system.run(until=500.0)
    assert system.clients[0].crashed
    wedged = protocol == "lockstep" and wedges
    assert len(done) == (0 if wedged else 2)
    if protocol == "lockstep":
        assert system.server.blocked is wedged

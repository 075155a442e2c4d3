"""Per-line detection coverage: one adversary per check of Algorithm 1,
on a REPLY whose ``MEM[j]`` carries the value and on one that carries
its digest (a FAUST dummy read)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import SystemConfig, open_system
from repro.ustor.byzantine import (
    BadReaderVersionServer,
    FakePendingServer,
    LaggingReaderVersionServer,
    SelfEchoServer,
    StaleReadServer,
    TamperingServer,
    WrongProofServer,
)
from repro.ustor.messages import ValueDigest
from repro.ustor.server import UstorServer

from test_ustor_protocol import run_ops


def build(server_factory, n=3, seed=1):
    return open_system(
        SystemConfig(num_clients=n, seed=seed, server_factory=server_factory),
        backend="ustor",
    )


class TestLine41WrongProof:
    def test_detected_under_concurrency(self):
        system = build(lambda n, name: WrongProofServer(n, name=name))
        c0, c1 = system.clients[0], system.clients[1]
        # C1 commits once (so its digest entry is non-BOTTOM)...
        done = []
        c0.write(b"first", done.append)
        assert system.run_until(lambda: len(done) == 1, timeout=50)
        # ...then submits again but its COMMIT crawls, so the operation
        # stays in L while C2 operates.
        c0.write(b"second", done.append)
        system.scheduler.schedule(0.1, system.network.add_delay, "C1", "S", 500.0)
        box = []
        system.scheduler.schedule(3.0, c1.read, 0, box.append)
        system.run(until=100)
        assert c1.failed
        assert "line 41" in c1.fail_reason

    def test_not_consulted_without_concurrency(self):
        # Sequential operations never look at P: the corruption is latent.
        system = build(lambda n, name: WrongProofServer(n, name=name))
        outcomes = run_ops(system, [(0, "write", b"a"), (1, "read", 0)])
        assert outcomes[1].value == b"a"
        assert not any(c.failed for c in system.clients)


class TestLine43FakePending:
    def test_fabricated_tuple_detected(self):
        system = build(lambda n, name: FakePendingServer(n, ghost_client=2, name=name))
        box = []
        system.clients[0].write(b"x", box.append)
        system.run(until=50)
        assert system.clients[0].failed
        assert "line 43" in system.clients[0].fail_reason
        assert not box


class TestLine43SelfEcho:
    def test_own_operation_as_concurrent_detected(self):
        # The signature in the echoed tuple is GENUINE; only the k = i
        # check stands between the server and a double-counted operation.
        system = build(lambda n, name: SelfEchoServer(n, name=name))
        box = []
        system.clients[0].write(b"x", box.append)
        system.run(until=50)
        assert system.clients[0].failed
        assert "line 43" in system.clients[0].fail_reason


class TestLine49BadReaderVersion:
    def test_mangled_writer_version_detected(self):
        system = build(lambda n, name: BadReaderVersionServer(n, 0, name=name))
        run_ops(system, [(0, "write", b"v")])
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=50)
        assert system.clients[1].failed
        assert "line 49" in system.clients[1].fail_reason

    def test_writes_unaffected(self):
        system = build(lambda n, name: BadReaderVersionServer(n, 0, name=name))
        outcomes = run_ops(system, [(0, "write", b"v"), (0, "write", b"w")])
        assert len(outcomes) == 2 and not system.clients[0].failed


class TestLine51StaleRead:
    def test_authentic_but_stale_value_detected(self):
        system = build(lambda n, name: StaleReadServer(n, 0, name=name))
        run_ops(system, [(0, "write", b"old"), (0, "write", b"new")])
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=50)
        reader = system.clients[1]
        assert reader.failed
        # The DATA-signature verified (the value is genuine!); what failed
        # is freshness.
        assert "line 51" in reader.fail_reason
        assert not box

    def test_first_read_before_second_write_is_fine(self):
        system = build(lambda n, name: StaleReadServer(n, 0, name=name))
        outcomes = run_ops(system, [(0, "write", b"old"), (1, "read", 0)])
        assert outcomes[1].value == b"old"
        assert not system.clients[1].failed


class TestLine52LaggingVersion:
    def test_two_generations_behind_detected(self):
        system = build(lambda n, name: LaggingReaderVersionServer(n, 0, name=name))
        run_ops(
            system,
            [(0, "write", b"g1"), (0, "write", b"g2"), (0, "write", b"g3")],
        )
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=50)
        assert system.clients[1].failed
        assert "line 52" in system.clients[1].fail_reason

    def test_one_generation_behind_is_legal(self):
        # V^j[j] = t_j - 1 is explicitly allowed (the COMMIT may be in
        # flight): a server doing that must NOT be flagged.
        system = build(lambda n, name: LaggingReaderVersionServer(n, 0, name=name))
        outcomes = run_ops(system, [(0, "write", b"g1"), (0, "write", b"g2"), (1, "read", 0)])
        assert outcomes[2].value == b"g2"
        assert not system.clients[1].failed


class SendsFullValues(UstorServer):
    """The honest server, ignoring every SUBMIT's digest request."""

    def handle_submit(self, src, message):
        super().handle_submit(src, replace(message, digest_only=False))


class DigestsEveryRead(UstorServer):
    """Answers every read with ``MEM[j]`` in digest form, asked or not."""

    def outgoing_reply(self, src, message, reply):
        return reply if reply.mem is None else replace(reply, mem=reply.mem.digest_form())


def dummy_reads_of_register_0(server_factory, size: int, writes: int):
    """C1 writes ``writes`` values of ``size`` bytes; then the three FAUST
    clients idle, so only their dummy reads touch register 0.  Returns the
    first ``fail_i`` reason (``None``: nobody failed) and the value slot of
    every ``MEM[0]`` the server sent."""
    system = open_system(
        SystemConfig(num_clients=3, seed=1, server_factory=server_factory),
        backend="faust",
    )
    sent = []
    with system:
        server = system.server
        send = server.send

        def tap(dst, message) -> None:
            if message.kind == "REPLY" and message.mem is not None:
                sent.append(message.mem.value)
            send(dst, message)

        server.send = tap
        session = system.session(0)
        for k in range(writes):
            session.write_sync(bytes([k + 1]) * size)
        system.run(until=system.now + 200)
        first_at = system.notifications.first_failures()
        first = min(first_at, key=first_at.get, default=None)
        return (None if first is None else system.clients[first].fail_reason), sent


class TestDigestFormDummyReads:
    """A dummy read of a value over 33 bytes is answered ``(t_j, H(x_j),
    delta_j)``; every check still fires at its line, for its reason."""

    @pytest.mark.parametrize(
        "adversary, writes, reason",
        [
            (TamperingServer, 1, "DATA-signature on returned value invalid (line 50)"),
            (
                StaleReadServer,
                2,
                "returned data is not from the writer's latest operation (line 51)",
            ),
        ],
    )
    def test_caught_at_the_same_line_as_on_the_value(self, adversary, writes, reason):
        factory = lambda n, name: adversary(n, 0, name=name)  # noqa: E731
        on_value, value_forms = dummy_reads_of_register_0(factory, 32, writes)
        on_digest, digest_forms = dummy_reads_of_register_0(factory, 64, writes)
        assert on_value == on_digest == f"USTOR detection: {reason}"
        assert not any(type(v) is ValueDigest for v in value_forms)
        assert any(type(v) is ValueDigest for v in digest_forms)

    def test_a_dummy_read_answered_with_the_value_is_accepted(self):
        reason, forms = dummy_reads_of_register_0(SendsFullValues, 64, 2)
        assert reason is None
        assert any(type(v) is bytes and len(v) == 64 for v in forms)
        assert not any(type(v) is ValueDigest for v in forms)
        shipped_reason, shipped_forms = dummy_reads_of_register_0(UstorServer, 64, 2)
        assert shipped_reason is None
        assert not any(type(v) is bytes and len(v) == 64 for v in shipped_forms)

    def test_a_user_read_answered_with_a_digest_fails_at_line_30(self):
        system = build(lambda n, name: DigestsEveryRead(n, name=name))
        run_ops(system, [(0, "write", b"v" * 64)])
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=50)
        assert system.clients[1].fail_reason == (
            "read REPLY carries the value's digest, not the value (line 30)"
        )
        assert not box

    def test_a_user_read_of_a_short_value_is_untouched(self):
        # 33 bytes travel in full even when digested: nothing to refuse.
        system = build(lambda n, name: DigestsEveryRead(n, name=name))
        outcomes = run_ops(system, [(0, "write", b"v" * 33), (1, "read", 0)])
        assert outcomes[1].value == b"v" * 33
        assert not system.clients[1].failed


class TestDetectionMatrixSummary:
    def test_every_line_has_an_adversary(self):
        """Documents the full coverage map (see module docstring)."""
        covered_lines = {35, 36, 41, 43, 49, 50, 51, 52}
        # Lines 35/36/50 are covered in test_ustor_byzantine.py; the rest
        # here.  This test pins the intent: extend it when adding checks.
        assert covered_lines == {35, 36, 41, 43, 49, 50, 51, 52}

"""Edge paths of ``repro.api.session`` / ``handles``: timeouts, naming,
barrier corners.

The happy paths are covered by the facade matrix; these tests pin the
contractual *unhappy* surface: what exactly an ``OperationTimeout`` says
(operation kind, register, client — the only forensics an application
gets when a Byzantine server stonewalls), how ``barrier()`` behaves with
zero in-flight operations, during pipelined submission, and after a
client dies mid-queue.
"""

from __future__ import annotations

import pytest

from repro.api import (
    BatchingPolicy,
    FaustParams,
    OperationFailed,
    OperationTimeout,
    SystemConfig,
    open_system,
)
from repro.common.errors import ProtocolError
from repro.common.types import BOTTOM
from repro.ustor.byzantine import TamperingServer, UnresponsiveServer


def stonewalled_config(victims, backend_seed=5, **overrides) -> SystemConfig:
    """A deployment whose server silently drops the victims' SUBMITs."""
    overrides.setdefault(
        "faust", FaustParams(enable_dummy_reads=False, enable_probes=False)
    )
    return SystemConfig(
        num_clients=2,
        seed=backend_seed,
        server_factory=lambda n, name: UnresponsiveServer(
            n, victims=set(victims), name=name
        ),
        **overrides,
    )


def quiet_config(**overrides) -> SystemConfig:
    overrides.setdefault(
        "faust", FaustParams(enable_dummy_reads=False, enable_probes=False)
    )
    return SystemConfig(num_clients=2, seed=5, **overrides)


# --------------------------------------------------------------------- #
# OperationTimeout naming
# --------------------------------------------------------------------- #


class TestTimeoutNaming:
    def test_write_timeout_names_kind_register_client(self):
        system = open_system(stonewalled_config(victims={0}), backend="faust")
        handle = system.session(0).write(b"never-acked")
        with pytest.raises(OperationTimeout) as excinfo:
            handle.result(timeout=30.0)
        message = str(excinfo.value)
        assert "write" in message
        assert "X1" in message  # the client's own register
        assert "C1" in message
        assert "30.0" in message

    def test_read_timeout_names_the_target_register(self):
        system = open_system(stonewalled_config(victims={1}), backend="faust")
        handle = system.session(1).read(0)
        with pytest.raises(OperationTimeout) as excinfo:
            handle.result(timeout=25.0)
        message = str(excinfo.value)
        assert "read" in message and "X1" in message and "C2" in message

    def test_timeout_uses_session_default_when_unspecified(self):
        system = open_system(
            stonewalled_config(victims={0}, default_timeout=40.0),
            backend="faust",
        )
        session = system.session(0)
        assert session.timeout == 40.0
        handle = session.write(b"x")
        with pytest.raises(OperationTimeout, match="40.0"):
            handle.result()

    def test_timed_out_handle_is_not_settled(self):
        system = open_system(stonewalled_config(victims={0}), backend="faust")
        handle = system.session(0).write(b"x")
        assert not handle.wait(timeout=20.0)
        assert not handle.done()
        with pytest.raises(OperationTimeout):
            handle.exception(timeout=5.0)  # exception() times out too

    def test_sync_forms_propagate_the_timeout(self):
        system = open_system(stonewalled_config(victims={0}), backend="faust")
        session = system.session(0)
        with pytest.raises(OperationTimeout):
            session.write_sync(b"x", timeout=15.0)
        # The non-victim client is still served (unwritten -> BOTTOM).
        value, _ = system.session(1).read_sync(1, timeout=50.0)
        assert value is BOTTOM


# --------------------------------------------------------------------- #
# Timeout during pipelined submission
# --------------------------------------------------------------------- #


class TestPipelinedTimeouts:
    def test_pipelined_faust_submissions_all_time_out(self):
        system = open_system(stonewalled_config(victims={0}), backend="faust")
        session = system.session(0)
        handles = [session.write(b"w%d" % i) for i in range(3)]
        assert session.outstanding == 3
        with pytest.raises(OperationTimeout, match=r"3 operation\(s\)"):
            session.barrier(timeout=40.0)
        assert all(not h.done() for h in handles)
        assert session.outstanding == 3  # still pending, honestly reported

    def test_backlogged_ustor_submissions_time_out_without_issuing(self):
        # USTOR clients take one op at a time; ops 2 and 3 never leave the
        # client's queue because op 1 never completes.
        system = open_system(stonewalled_config(victims={0}), backend="ustor")
        session = system.session(0)
        session.write(b"first")
        session.write(b"second")
        session.read(1)
        assert session.outstanding == 3
        assert session.client.completed_operations == 0
        with pytest.raises(OperationTimeout):
            session.barrier(timeout=40.0)
        # Only the in-flight op ever reached the wire.
        assert system.trace.message_count("SUBMIT") == 1

    def test_partial_timeout_after_partial_progress(self):
        # The server answers the first two ops then goes silent: the
        # settled handles return results, the dangling one times out.
        class StonewallAfter(UnresponsiveServer):
            def __init__(self, n, name="S"):
                super().__init__(n, victims=set(), name=name)
                self._answered = 0

            def handle_submit(self, src, message):
                if self._answered >= 2:
                    self.submits_handled += 1
                    return  # drop silently
                self._answered += 1
                super().handle_submit(src, message)

        system = open_system(
            quiet_config(server_factory=lambda n, name: StonewallAfter(n, name)),
            backend="faust",
        )
        session = system.session(0)
        handles = [session.write(b"w%d" % i) for i in range(3)]
        with pytest.raises(OperationTimeout, match=r"1 operation\(s\)"):
            session.barrier(timeout=60.0)
        assert [h.done() for h in handles] == [True, True, False]
        assert handles[0].result().timestamp == 1
        assert session.outstanding == 1


# --------------------------------------------------------------------- #
# Barrier corners
# --------------------------------------------------------------------- #


class TestBarrierEdges:
    def test_barrier_with_zero_inflight_returns_immediately(self):
        system = open_system(quiet_config(), backend="faust")
        session = system.session(0)
        before = system.now
        session.barrier()  # never issued anything
        assert system.now == before

    def test_barrier_after_everything_settled_is_a_noop(self):
        system = open_system(quiet_config(), backend="faust")
        session = system.session(0)
        session.write_sync(b"x")
        session.barrier()
        session.barrier()  # idempotent
        assert session.outstanding == 0

    def test_barrier_raises_the_first_failure(self):
        system = open_system(
            quiet_config(
                server_factory=lambda n, name: TamperingServer(n, 0, name=name)
            ),
            backend="faust",
        )
        system.session(0).write_sync(b"genuine")
        victim = system.session(1)
        victim.read(0)  # will be tampered with -> fail_i
        with pytest.raises(OperationFailed):
            victim.barrier(timeout=100.0)
        assert victim.failed
        assert victim.outstanding == 0  # failure settles everything

    def test_barrier_only_waits_for_already_issued_handles(self):
        system = open_system(quiet_config(), backend="faust")
        session = system.session(0)
        session.write(b"w1")
        session.barrier()
        handle = session.write(b"w2")  # issued after the barrier returned
        assert not handle.done()  # nothing has driven the simulation yet
        session.barrier()
        assert handle.done()

    def test_submitting_on_a_failed_session_raises_protocol_error(self):
        system = open_system(
            quiet_config(
                server_factory=lambda n, name: TamperingServer(n, 0, name=name)
            ),
            backend="faust",
        )
        system.session(0).write_sync(b"genuine")
        victim = system.session(1)
        with pytest.raises(OperationFailed):
            victim.read_sync(0)
        with pytest.raises(ProtocolError, match="failed and halted"):
            victim.read(0)

    @pytest.mark.parametrize(
        "batching", [None, BatchingPolicy(max_batch=4)], ids=["unbatched", "batched"]
    )
    @pytest.mark.parametrize(
        "call, wording",
        [
            (lambda s: s.read(2), "register 2 out of range"),
            (lambda s: s.write("text"), "register values are bytes"),
        ],
        ids=["register-out-of-range", "non-bytes-value"],
    )
    def test_a_refused_submission_leaves_no_handle(self, call, wording, batching):
        # The client's checks run before the session makes a handle, so
        # a refused submission leaves nothing for a barrier to wait on.
        system = open_system(quiet_config(batching=batching), backend="ustor")
        session = system.session(0)
        with pytest.raises(ProtocolError, match=wording):
            call(session)
        assert session.outstanding == 0 and session.buffered == 0
        session.barrier(timeout=10.0)

    def test_crashed_client_rejects_waiters(self):
        system = open_system(quiet_config(), backend="faust")
        session = system.session(0)
        handle = session.write(b"w")
        session.client.crash()
        with pytest.raises(OperationFailed, match="crashed"):
            handle.result(timeout=50.0)


# --------------------------------------------------------------------- #
# The cluster facade honours the same edge contract
# --------------------------------------------------------------------- #


class TestClusterParity:
    def test_cluster_timeout_naming_matches_single_server(self):
        single = open_system(stonewalled_config(victims={0}), backend="faust")
        clustered = open_system(
            SystemConfig(
                num_clients=2,
                seed=5,
                shards=1,
                shard_server_factories={
                    0: lambda n, name: UnresponsiveServer(
                        n, victims={0}, name=name
                    )
                },
                faust=FaustParams(
                    enable_dummy_reads=False, enable_probes=False
                ),
            ),
            backend="cluster",
        )
        messages = []
        for system in (single, clustered):
            with pytest.raises(OperationTimeout) as excinfo:
                system.session(0).write(b"x").result(timeout=30.0)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

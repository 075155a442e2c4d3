"""The unified ``repro.api`` facade, exercised across every protocol.

The same read/write/failure scenario matrix runs against every backend
(FAUST, plain USTOR, a cluster of two FAUST shards) and the lock-step
baseline: the *interface* stays identical, the *guarantees* differ
exactly as the paper says they must — the tampering scenario is detected
by every protocol, and only fail-aware clients offer stability.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    BACKENDS,
    CapabilityError,
    FailureNotification,
    FaustParams,
    OperationFailed,
    OperationTimeout,
    StabilityNotification,
    SystemConfig,
    open_system,
)
from repro.api.backends import build_deployment
from repro.baselines.lockstep import TamperingLockStepServer, lockstep_protocol
from repro.common.errors import ConfigurationError, ProtocolError, SimulationError
from repro.consistency.linearizability import check_linearizability
from repro.common.types import BOTTOM, OpKind
from repro.sim.faults import Fault
from repro.store.codec import encode_server_state
from repro.ustor.byzantine import RollbackServer, TamperingServer, UnresponsiveServer

#: Every backend and the lock-step baseline.
PROTOCOLS = ["faust", "ustor", "cluster", "lockstep"]


def open_protocol(config: SystemConfig, name: str):
    """``open_system`` on a backend (a cluster of two FAUST shards); the
    lock-step baseline, which is no backend, built from the same config
    by ``build_deployment``."""
    if name == "cluster":
        return open_system(dataclasses.replace(config, shards=2), backend=name)
    if name != "lockstep":
        return open_system(config, backend=name)
    return build_deployment(config, lockstep_protocol())


def down(start: float, duration: float, target=None) -> Fault:
    """One server crash-recovery window (the whole service by default)."""
    return Fault("down", target, start, duration)


def quiet_config(num_clients=2, seed=5, **overrides) -> SystemConfig:
    """A config whose FAUST deployments run no background machinery, so
    the same scripted schedules behave identically across backends."""
    overrides.setdefault(
        "faust", FaustParams(enable_dummy_reads=False, enable_probes=False)
    )
    return SystemConfig(num_clients=num_clients, seed=seed, **overrides)


# --------------------------------------------------------------------- #
# The shared scenario matrix
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", PROTOCOLS)
class TestScenarioMatrix:
    def test_write_read_roundtrip(self, backend):
        system = open_protocol(quiet_config(), backend)
        alice, bob = system.session(0), system.session(1)
        t = alice.write_sync(b"hello")
        assert t >= 1
        value, _ = bob.read_sync(0)
        assert value == b"hello"

    def test_read_unwritten_register_returns_bottom(self, backend):
        system = open_protocol(quiet_config(), backend)
        value, _ = system.session(0).read_sync(1)
        assert value is BOTTOM

    def test_timestamps_monotone_per_client(self, backend):
        system = open_protocol(quiet_config(), backend)
        session = system.session(0)
        stamps = [session.write_sync(b"v%d" % i) for i in range(4)]
        assert stamps == sorted(stamps) and len(set(stamps)) == 4

    def test_pipelined_handles_settle_in_order(self, backend):
        system = open_protocol(quiet_config(), backend)
        session = system.session(0)
        handles = [session.write(b"w%d" % i) for i in range(3)]
        handles.append(session.read(1))
        assert session.outstanding == 4
        session.barrier()
        assert all(h.done() for h in handles)
        assert session.outstanding == 0
        results = [h.result() for h in handles]
        writes = [r.timestamp for r in results[:3]]
        assert writes == sorted(writes)
        assert results[3].kind is OpKind.READ and results[3].value is BOTTOM

    def test_add_done_callback(self, backend):
        system = open_protocol(quiet_config(), backend)
        session = system.session(0)
        seen = []
        handle = session.write(b"x")
        handle.add_done_callback(seen.append)
        assert handle.result().value == b"x"
        assert seen == [handle]
        # Late registration fires immediately.
        handle.add_done_callback(seen.append)
        assert seen == [handle, handle]

    def test_tampering_scenario_matrix(self, backend):
        """The same attack; the guarantee differs per backend."""
        factories = {
            "faust": lambda n, name: TamperingServer(n, 0, name=name),
            "ustor": lambda n, name: TamperingServer(n, 0, name=name),
            "cluster": lambda n, name: TamperingServer(n, 0, name=name),
            "lockstep": lambda n, name: TamperingLockStepServer(n, 0, name=name),
        }
        system = open_protocol(
            quiet_config(seed=7, server_factory=factories[backend]), backend
        )
        writer, reader = system.session(0), system.session(1)
        writer.write_sync(b"genuine")
        with pytest.raises(OperationFailed):
            reader.read_sync(0)
        assert reader.failed
        assert system.notifications.failure_events()
        with pytest.raises(ProtocolError):  # where it failed it takes no step
            reader.read(0)

    def test_honest_run_is_linearizable_and_quiet(self, backend):
        system = open_protocol(quiet_config(), backend)
        alice, bob = system.session(0), system.session(1)
        for i in range(3):
            alice.write_sync(b"a%d" % i)
            assert bob.read_sync(0)[0] == b"a%d" % i
            bob.write_sync(b"b%d" % i)
            assert alice.read_sync(1)[0] == b"b%d" % i
        # A cluster keeps one history per shard (each its own domain).
        histories = (
            list(system.shard_histories().values())
            if backend == "cluster"
            else [system.history()]
        )
        assert sum(len(history) for history in histories) == 12
        assert all(check_linearizability(history) for history in histories)
        assert not alice.failed and not bob.failed
        assert not system.notifications.failure_events()

    def test_stability_surface_matches_capability(self, backend):
        system = open_protocol(quiet_config(), backend)
        session = system.session(0)
        if backend in ("faust", "cluster"):
            assert session.stability_cut == (0, 0)
        else:
            with pytest.raises(CapabilityError):
                _ = session.stability_cut
            with pytest.raises(CapabilityError):
                session.wait_for_stability(1, timeout=10)


# --------------------------------------------------------------------- #
# OpHandle timeout and error paths
# --------------------------------------------------------------------- #


class TestHandleEdges:
    def test_timeout_names_kind_and_register(self):
        system = open_system(
            quiet_config(
                seed=5,
                server_factory=lambda n, name: UnresponsiveServer(
                    n, victims={0}, name=name
                ),
            ),
            backend="faust",
        )
        handle = system.session(0).write(b"never-acked")
        with pytest.raises(OperationTimeout) as excinfo:
            handle.result(timeout=30.0)
        message = str(excinfo.value)
        assert "write" in message and "X1" in message and "withholding" in message
        # The timeout error satisfies both legacy contracts.
        assert isinstance(excinfo.value, OperationFailed)
        assert isinstance(excinfo.value, SimulationError)
        assert not handle.done()  # still pending, not failed

    def test_timeout_leaves_other_sessions_usable(self):
        system = open_system(
            quiet_config(
                seed=6,
                server_factory=lambda n, name: UnresponsiveServer(
                    n, victims={0}, name=name
                ),
            ),
            backend="faust",
        )
        with pytest.raises(OperationTimeout):
            system.session(0).write(b"blocked").result(timeout=20.0)
        assert system.session(1).write_sync(b"fine") >= 1

    def test_failure_rejects_all_outstanding_handles(self):
        system = open_system(
            quiet_config(
                seed=7,
                server_factory=lambda n, name: TamperingServer(n, 0, name=name),
            ),
            backend="faust",
        )
        system.session(0).write_sync(b"genuine")
        reader = system.session(1)
        first = reader.read(0)
        queued = reader.read(0)  # pipelined behind the poisoned read
        with pytest.raises(OperationFailed):
            first.result()
        assert queued.done()
        assert isinstance(queued.exception(), OperationFailed)
        with pytest.raises(OperationFailed):
            queued.result()

    def test_submitting_on_failed_client_raises(self):
        from repro.common.errors import ProtocolError

        system = open_system(
            quiet_config(
                seed=8,
                server_factory=lambda n, name: TamperingServer(n, 0, name=name),
            ),
            backend="faust",
        )
        system.session(0).write_sync(b"genuine")
        reader = system.session(1)
        with pytest.raises(OperationFailed):
            reader.read_sync(0)
        with pytest.raises(ProtocolError):
            reader.read(0)

    def test_barrier_timeout(self):
        system = open_system(
            quiet_config(
                seed=9,
                server_factory=lambda n, name: UnresponsiveServer(
                    n, victims={0}, name=name
                ),
            ),
            backend="faust",
        )
        session = system.session(0)
        session.write(b"stuck")
        with pytest.raises(OperationTimeout, match="barrier"):
            session.barrier(timeout=25.0)


# --------------------------------------------------------------------- #
# The storage/recovery fault axis
# --------------------------------------------------------------------- #



@pytest.mark.parametrize("backend", ["faust", "ustor"])
class TestCrashRecoveryMatrix:
    def test_honest_recovery_is_invisible(self, backend):
        """A crash + WAL/snapshot recovery must look like slowness: every
        operation completes, no failure notification, byte-identical state."""
        system = open_system(
            quiet_config(storage="log", server_outages=(down(5.0, 10.0),)),
            backend=backend,
        )
        alice, bob = system.session(0), system.session(1)
        t1 = alice.write_sync(b"before-outage")
        system.run(until=4.5)
        handle = alice.write(b"during-outage")  # held while the server is down
        t2 = handle.result(timeout=100.0).timestamp
        assert (t1, t2) == (1, 2)
        value, _ = bob.read_sync(0)
        assert value == b"during-outage"
        server = system.server
        assert server.restarts == 1
        assert encode_server_state(server.last_pre_crash_state) == (
            encode_server_state(server.last_recovery_state)
        )
        assert not system.notifications.failure_events()
        assert not alice.failed and not bob.failed

    def test_rollback_adversary_raises_failure(self, backend):
        """Recovering from a stale snapshot forks clients into the past —
        and must be detected, unlike the honest recovery above.  The
        restored state is self-consistent (a COMMIT carries no version
        it could adopt for an operation it forgot), so bob is served the
        past, and alice — whose committed version the restored state no
        longer dominates — hands in the proof (line 36)."""
        system = open_system(
            quiet_config(
                server_factory=lambda n, name: RollbackServer(
                    n,
                    snapshot_after_submits=1,
                    rollback_after_submits=3,
                    outage=2.0,
                    name=name,
                )
            ),
            backend=backend,
        )
        alice, bob = system.session(0), system.session(1)
        for k in range(3):
            alice.write_sync(b"w%d" % k)
        system.run(until=system.now + 5.0)  # the dishonest restart happens
        assert bob.read_sync(0)[0] == b"w0"  # the backup's value, signed
        with pytest.raises(OperationFailed, match="line 36"):
            alice.write_sync(b"w3")
        assert alice.failed
        assert system.notifications.failure_events()
        assert system.server.restarts == 1

    def test_storage_engine_instrumented(self, backend):
        system = open_system(quiet_config(storage="log"), backend=backend)
        system.session(0).write_sync(b"logged")
        engine = system.server.engine
        assert engine.durable and engine.wal_appends >= 1


class TestStorageConfig:
    def test_outage_windows_validated(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=2, server_outages=(down(1.0, 0.0),))
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=2, server_outages=((1.0,),))
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=2, server_outages=(down(-5.0, 10.0),))
        with pytest.raises(ConfigurationError, match="overlap"):
            # The nested window's restart would cut the outer outage short.
            SystemConfig(
                num_clients=2, server_outages=(down(10.0, 30.0), down(20.0, 5.0))
            )
        SystemConfig(num_clients=2, server_outages=(down(10.0, 5.0), down(15.0, 5.0)))

    @pytest.mark.parametrize(
        "window",
        [(float("nan"), 5.0), (5.0, float("nan")), (float("inf"), 5.0)],
        ids=["nan-start", "nan-duration", "inf-start"],
    )
    def test_nan_and_infinite_start_outages_refused(self, window):
        for target in (None, (1, None)):
            with pytest.raises(ConfigurationError, match="start|duration"):
                SystemConfig(
                    num_clients=2, shards=2, server_outages=(down(*window, target),)
                )

    def test_baselines_reject_storage_knobs(self):
        # The lock-step server has no storage engine: build_deployment
        # refuses the knob rather than running it volatile.
        with pytest.raises(ConfigurationError, match="storage"):
            open_protocol(quiet_config(storage="log"), "lockstep")
        with pytest.raises(ConfigurationError, match="storage"):
            open_protocol(
                quiet_config(server_outages=(down(1.0, 1.0),)), "lockstep"
            )

    def test_an_endless_outage_stays_legal(self):
        SystemConfig(num_clients=2, server_outages=(down(5.0, float("inf")),))

    def test_unsorted_back_to_back_outages_both_happen(self):
        """Windows given out of order must still schedule restart-then-crash
        at the shared boundary instant: the server stays down over [10, 20)
        and both recovery cycles occur."""
        system = open_system(
            quiet_config(
                storage="log", server_outages=(down(15.0, 5.0), down(10.0, 5.0))
            ),
            backend="faust",
        )
        system.run(until=17.0)
        assert system.server.crashed  # mid second window
        system.run(until=30.0)
        assert not system.server.crashed
        assert system.server.restarts == 2


# --------------------------------------------------------------------- #
# Notification subscriptions
# --------------------------------------------------------------------- #


class TestNotifications:
    def _stability_system(self, seed=11):
        return open_system(
            SystemConfig(
                num_clients=2,
                seed=seed,
                faust=FaustParams(dummy_read_period=2.0),
            ),
            backend="faust",
        )

    def test_stability_events_ordered_and_monotone(self):
        system = self._stability_system()
        sub = system.notifications.subscribe(kinds=StabilityNotification)
        session = system.session(0)
        t = session.write_sync(b"document")
        assert session.wait_for_stability(t, timeout=2_000)
        events = sub.events
        assert events, "stability must produce notifications"
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        times = [e.time for e in events]
        assert times == sorted(times)
        # Each client's cut only ever grows, component-wise.
        last: dict[int, tuple[int, ...]] = {}
        for event in events:
            previous = last.get(event.client)
            if previous is not None:
                assert all(a >= b for a, b in zip(event.cut, previous))
            last[event.client] = event.cut

    def test_client_filter_and_unsubscribe(self):
        system = self._stability_system(seed=12)
        only_alice = system.notifications.subscribe(
            kinds=StabilityNotification, clients=[0]
        )
        everything = system.notifications.subscribe()
        session = system.session(0)
        t = session.write_sync(b"x")
        session.wait_for_stability(t, timeout=2_000)
        assert only_alice.events and all(e.client == 0 for e in only_alice.events)
        count = len(everything.events)
        assert count >= len(only_alice.events)
        everything.unsubscribe()
        t2 = session.write_sync(b"y")
        session.wait_for_stability(t2, timeout=2_000)
        assert len(everything.events) == count  # frozen after unsubscribe
        assert system.notifications.emitted > count

    def test_callback_delivery_matches_events(self):
        system = self._stability_system(seed=13)
        seen = []
        system.notifications.subscribe(seen.append, kinds=StabilityNotification)
        kept = system.notifications.subscribe(kinds=StabilityNotification)
        session = system.session(0)
        t = session.write_sync(b"z")
        session.wait_for_stability(t, timeout=2_000)
        assert seen == kept.events
        assert len(seen) == system.notifications.emitted  # every one emitted

    def test_failure_events_reach_every_client(self):
        from repro.workloads.scenarios import split_brain_scenario

        result = split_brain_scenario(num_clients=4, seed=11, run_for=2_000.0)
        events = result.system.notifications.failure_events()
        assert {e.client for e in events} == {0, 1, 2, 3}
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        for event in events:
            assert isinstance(event, FailureNotification) and event.reason


# --------------------------------------------------------------------- #
# Backend registry and config validation
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert BACKENDS == ("faust", "ustor", "cluster")
        for name in BACKENDS:
            assert open_system(quiet_config(), backend=name).backend_name == name

    @pytest.mark.parametrize(
        "backend",
        ["sundr", "lockstep", "unchecked", object(), None],
        ids=["unknown", "lockstep", "unchecked", "object", "none"],
    )
    def test_unknown_or_non_string_backend_refused(self, backend):
        with pytest.raises(ConfigurationError, match="choose from"):
            open_system(quiet_config(), backend=backend)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=1, default_timeout=0.0)

    def test_nan_timeout_refused(self):
        # NaN compares false both ways, so the check must be one NaN fails.
        with pytest.raises(ConfigurationError, match="default_timeout"):
            SystemConfig(num_clients=1, default_timeout=float("nan"))

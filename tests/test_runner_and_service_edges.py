"""System-runner and blocking-session edge cases (via the api facade)."""

from __future__ import annotations

import pytest

from repro.api import FaustParams, Session, SystemConfig, open_system
from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.faults import Fault
from repro.ustor.byzantine import UnresponsiveServer


class TestOpenedSystem:
    def test_rejects_zero_clients(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=0)

    def test_client_lookup(self):
        system = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
        assert system.client(1) is system.clients[1]
        assert system.client(1).name == "C2"

    def test_now_tracks_scheduler(self):
        system = open_system(SystemConfig(num_clients=1, seed=1), backend="ustor")
        system.run(until=42.0)
        assert system.now == 42.0

    def test_ed25519_deployment_works(self):
        system = open_system(
            SystemConfig(num_clients=2, seed=1, scheme="ed25519"),
            backend="ustor",
        )
        box = []
        system.clients[0].write(b"real-crypto", box.append)
        assert system.run_until(lambda: bool(box), timeout=50)

    def test_run_until_quiescent(self):
        system = open_system(SystemConfig(num_clients=2, seed=2), backend="ustor")
        system.clients[0].write(b"x", lambda o: None)
        system.clients[1].read(0, lambda o: None)
        system.run_until_quiescent(timeout=100)
        assert not any(c.busy for c in system.clients)

    def test_run_until_quiescent_honors_check_every(self):
        # The poll cadence throttles the O(clients) idle scan: with a
        # coarse cadence the system may overrun the quiescent instant by
        # up to check_every, never by more.
        system = open_system(SystemConfig(num_clients=2, seed=2), backend="ustor")
        system.clients[0].write(b"x", lambda o: None)
        system.run_until_quiescent(check_every=7.0, timeout=100)
        assert not any(c.busy for c in system.clients)
        assert system.now <= 2.0 + 7.0  # one op RTT + at most one cadence

    def test_run_until_quiescent_rejects_bad_cadence(self):
        system = open_system(SystemConfig(num_clients=1, seed=2), backend="ustor")
        with pytest.raises(ConfigurationError):
            system.run_until_quiescent(check_every=0)
        with pytest.raises(ConfigurationError):
            system.run_until_quiescent(check_every=float("nan"))

    def test_run_until_quiescent_skips_crashed(self):
        system = open_system(SystemConfig(num_clients=2, seed=3), backend="ustor")
        system.clients[0].write(b"x", lambda o: None)
        system.clients[0].crash()  # pending op will never finish
        system.run_until_quiescent(timeout=20)
        # Returns (crashed clients are exempt) rather than spinning.
        assert system.now <= 25

    def test_crash_note_recorded(self):
        system = open_system(SystemConfig(num_clients=2, seed=4), backend="ustor")
        system.faults.add(Fault("crash-forever", 0, 5.0))
        system.run(until=10.0)
        assert system.trace.first_note("client-crash", source="C1") is not None


class TestSessionTimeouts:
    def test_withheld_reply_times_out(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=5,
                server_factory=lambda n, name: UnresponsiveServer(n, victims={0}, name=name),
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        session = Session(system, 0, timeout=30.0)
        with pytest.raises(SimulationError, match="withholding"):
            session.write_sync(b"never-acked")

    def test_other_clients_unaffected_by_timeout(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=6,
                server_factory=lambda n, name: UnresponsiveServer(n, victims={0}, name=name),
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        victim = Session(system, 0, timeout=20.0)
        healthy = Session(system, 1)
        with pytest.raises(SimulationError):
            victim.write_sync(b"blocked")
        t = healthy.write_sync(b"fine")
        assert t >= 1

    def test_wait_for_stability_times_out_cleanly(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=7,
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
        )
        session = Session(system, 0)
        t = session.write_sync(b"x")
        # With no propagation machinery at all, stability w.r.t. the other
        # client cannot be reached; the call must return False, not hang.
        assert session.wait_for_stability(t, timeout=50.0) is False

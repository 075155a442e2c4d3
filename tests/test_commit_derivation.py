"""The derived COMMIT version never accuses anyone.

A COMMIT to a lone server carries its operation's ``t`` where Algorithm
1 put ``(V_i, M_i)``: the server folds the version from the REPLY it
sent (``ServerState.expected``) and stores it with the client's
COMMIT-signature.  That is sound only if, on every honest run, the
server's fold is byte for byte the version the client signed — otherwise
``SVER[i]`` would pair a version with a signature over another one and
the next reader would raise ``fail`` against an honest server.

The checker here records, for every operation, the version its client
committed (after ``updateVersion`` accepted the REPLY) and, for every
COMMIT a server applies, the ``expected`` version the server holds for
it — a replica-group COMMIT that carries its version included, whose
replicas fold the same REPLY — and compares their canonical encodings.
It walks every cell of the support table (``FEATURES``) that runs the
USTOR stack, on the simulator and over loopback tcp, plus ``down``
outages over ``storage="log"`` with and without piggybacked COMMITs.
"""

from __future__ import annotations

import random

import pytest

import repro.ustor.server as server_module
from repro.api import SystemConfig, open_system
from repro.api.config import FEATURES
from repro.common.encoding import encode
from repro.common.types import parse_client_name
from repro.sim.faults import Fault
from repro.store.codec import version_to_tuple
from repro.ustor.client import UstorClient
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

from test_support_table import NUM_CLIENTS, asking, loopback  # noqa: F401

_USTOR_STACK = ("faust", "ustor", "cluster")

CELLS = [
    (feature.name, transport, backend)
    for feature in FEATURES
    for transport in ("sim", "tcp")
    for backend in feature.runs_on(transport)
    if backend in _USTOR_STACK
]

#: Outage runs: the server goes down mid-run and recovers its state —
#: ``expected`` included — from the WAL and snapshot.
OUTAGES = [
    (backend, piggyback)
    for backend in _USTOR_STACK
    for piggyback in (False, True)
]


def _encoded(version) -> bytes:
    return encode(version_to_tuple(version))


def _group(server_name: str) -> str:
    """A replica's group: ``S0/r1`` and ``S0`` are both shard ``S0``."""
    return server_name.split("/")[0]


@pytest.fixture
def checker(monkeypatch):
    """``(committed, derived)``: the clients' committed versions by
    ``(group, client, t)``, and one ``(group, client, t, version)`` per
    COMMIT a server applied."""
    committed: dict[tuple[str, int, int], bytes] = {}
    derived: list[tuple[str, int, int, bytes]] = []
    update = UstorClient._update_version
    handle = server_module.UstorServer.handle_commit

    def recording_update(self, reply) -> bool:
        accepted = update(self, reply)
        if accepted:
            key = (_group(self._server), self.client_id, self._pending.timestamp)
            committed[key] = _encoded(self.version)
        return accepted

    def recording_handle(self, src, message) -> None:
        client = parse_client_name(src)
        expected = self.state.expected[client]
        if message.version is None:
            t = message.timestamp
        else:
            t = message.version.vector[client]
        if expected is not None and expected[0] == t:
            derived.append((_group(self.name), client, t, _encoded(expected[1])))
        handle(self, src, message)

    monkeypatch.setattr(UstorClient, "_update_version", recording_update)
    monkeypatch.setattr(server_module.UstorServer, "handle_commit", recording_handle)
    return committed, derived


def _drive(system, transport: str = "sim") -> None:
    """Six operations per client, half reads, overlapping — so REPLYs
    list concurrent operations in ``L`` — then let the COMMITs land."""
    think, timeout = (0.005, 20.0) if transport == "tcp" else (0.5, 2_000.0)
    driver = Driver(system)
    driver.attach_all(
        generate_scripts(
            NUM_CLIENTS,
            WorkloadConfig(
                ops_per_client=6, read_fraction=0.5, mean_think_time=think
            ),
            random.Random(5),
        )
    )
    assert driver.run_to_completion(timeout=timeout)
    if transport == "tcp":
        system.run_until_quiescent(timeout=timeout)
    else:
        system.run(until=system.now + 50.0)


def _assert_no_mismatch(system, committed, derived) -> None:
    assert derived, "no COMMIT reached a server"
    mismatches = [
        entry for entry in derived if committed.get(entry[:3]) != entry[3]
    ]
    assert mismatches == []
    assert not system.notifications.failure_events()


@pytest.mark.parametrize("feature_name,transport,backend", CELLS)
def test_every_supported_cell(feature_name, transport, backend, checker, loopback):
    kwargs = {"num_clients": NUM_CLIENTS, **asking(feature_name)}
    if transport == "tcp":
        kwargs.update(
            transport="tcp",
            default_timeout=10.0,
            endpoints=loopback(
                kwargs.get("replicas", 1),
                kwargs.get("counter"),
                kwargs.get("server_name", "S"),
            ),
        )
    with open_system(SystemConfig(**kwargs), backend=backend) as system:
        _drive(system, transport)
        _assert_no_mismatch(system, *checker)


@pytest.mark.parametrize("backend,piggyback", OUTAGES)
def test_outages_over_the_log(backend, piggyback, checker):
    config = SystemConfig(
        NUM_CLIENTS,
        storage="log",
        server_outages=(Fault("down", None, 2.0, 3.0),),
        commit_piggyback=piggyback,
    )
    with open_system(config, backend=backend) as system:
        _drive(system)
        _assert_no_mismatch(system, *checker)
        assert sum(s.restarts for shard in system.shards for s in shard.replica_servers)

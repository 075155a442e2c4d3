"""Micro-benchmarks of the storage engine hot paths.

The log append is on the critical path of every SUBMIT/COMMIT (the WAL
record is written before the REPLY leaves the server), checkpoints bound
recovery time, and recovery itself bounds how long an outage extends —
the three numbers a deployment of the persistent server must size.  Runs
against both media: in-memory (the deterministic simulation's "disk")
and a real directory.
"""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.common.types import OpKind
from repro.crypto.keystore import KeyStore
from repro.store.codec import decode_server_state, encode_server_state
from repro.store.engine import LogStructuredEngine
from repro.store.media import DirectoryMedium, InMemoryMedium
from repro.ustor.messages import InvocationTuple, SubmitMessage
from repro.ustor.server import ServerState, apply_submit
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

NUM_CLIENTS = 8


def _submit_batch(count: int) -> list[SubmitMessage]:
    """Deterministic, signature-complete SUBMITs round-robining clients."""
    store = KeyStore(NUM_CLIENTS, scheme="hmac")
    messages = []
    timestamps = [0] * NUM_CLIENTS
    for k in range(count):
        client = k % NUM_CLIENTS
        timestamps[client] += 1
        t = timestamps[client]
        signer = store.signer(client)
        messages.append(
            SubmitMessage(
                timestamp=t,
                invocation=InvocationTuple(
                    client=client,
                    opcode=OpKind.WRITE,
                    register=client,
                    submit_sig=signer.sign("SUBMIT", OpKind.WRITE, client, t),
                ),
                value=b"v" * 64,
                data_sig=signer.sign("DATA", t, b"h"),
            )
        )
    return messages


def _loaded_state(messages: list[SubmitMessage]) -> ServerState:
    state = ServerState.initial(NUM_CLIENTS)
    for message in messages:
        apply_submit(state, message)
    return state


@pytest.mark.parametrize(
    "medium_factory",
    [InMemoryMedium, "directory"],
    ids=["memory-medium", "directory-medium"],
)
def test_wal_append_throughput(benchmark, medium_factory, tmp_path):
    """Cost of logging one SUBMIT transition (per-operation overhead)."""
    messages = _submit_batch(200)

    def append_all():
        medium = (
            DirectoryMedium(tmp_path / "wal-bench")
            if medium_factory == "directory"
            else medium_factory()
        )
        medium.truncate(LogStructuredEngine.WAL)
        engine = LogStructuredEngine(
            NUM_CLIENTS, medium=medium, snapshot_interval=10**9
        )
        for message in messages:
            engine.log_submit(message)
        engine.close()
        return engine.wal_appends

    assert benchmark(append_all) == 200


@pytest.mark.parametrize(
    "medium_factory",
    [InMemoryMedium, "directory"],
    ids=["memory-medium", "directory-medium"],
)
def test_raw_append_cost(benchmark, medium_factory, tmp_path):
    """Per-append time of one medium, without the engine: what
    persist-before-reply costs per WAL record on this machine's
    filesystem (`tcp_mixed_ed25519` pays it twice per operation)."""
    frame = b"w" * 325  # the mean WAL frame of tcp_mixed_ed25519
    rounds = 5000
    medium = (
        DirectoryMedium(tmp_path / "append-cost")
        if medium_factory == "directory"
        else medium_factory()
    )
    medium.append("wal", frame)  # open the handle outside the timing

    def per_append():
        for _ in range(rounds):
            medium.append("wal", frame)

    benchmark.pedantic(per_append, rounds=1)
    assert medium.size("wal") == (rounds + 1) * len(frame)
    medium.close()


def test_snapshot_checkpoint(benchmark):
    """Cost of one checkpoint (canonical encode + atomic replace)."""
    state = _loaded_state(_submit_batch(200))
    engine = LogStructuredEngine(NUM_CLIENTS, snapshot_interval=10**9)

    def one_checkpoint():
        engine.checkpoint(state)
        return engine.last_snapshot_bytes

    assert benchmark(one_checkpoint) > 0


def test_recovery_replay_throughput(benchmark):
    """Cost of crash recovery: snapshot load + WAL replay of 200 records."""
    messages = _submit_batch(200)
    live = LogStructuredEngine(NUM_CLIENTS, snapshot_interval=10**9)
    state = live.recover()
    for message in messages:
        apply_submit(state, message)
        live.log_submit(message)

    def recover():
        return LogStructuredEngine(NUM_CLIENTS, medium=live.medium).recover()

    recovered = benchmark(recover)
    assert encode_server_state(recovered) == encode_server_state(state)


def test_state_codec_roundtrip(benchmark):
    """Canonical encode+decode of a populated ServerState."""
    state = _loaded_state(_submit_batch(200))

    def roundtrip():
        return decode_server_state(encode_server_state(state))

    assert benchmark(roundtrip) == state


def test_workload_throughput_log_engine(benchmark):
    """End-to-end simulated throughput with WAL+snapshot persistence on —
    compare against test_ustor_throughput (volatile) in
    test_bench_protocol.py for the durability overhead."""

    def run():
        system = open_system(
            SystemConfig(num_clients=4, seed=9, storage="log"),
            backend="ustor",
        )
        scripts = generate_scripts(
            4,
            WorkloadConfig(
                ops_per_client=25, read_fraction=0.5, mean_think_time=0.0
            ),
            random.Random(9),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion(timeout=10_000_000)
        return driver.stats.total_completed()

    assert benchmark(run) == 100

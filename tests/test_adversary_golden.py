"""Behaviour lock for the Byzantine servers.

``tests/data/adversary_runs.json`` records, for the honest server and each
of the fifteen adversaries (constructed directly) x seeds 1-3 x backends
``ustor`` and ``faust`` (4 clients, 8 ops each, E7's workload shape, no
counter): operations completed, every client's ``fail_reason`` /
``halt_reason``, a SHA-256 over the recorded history's signature (the
signatures themselves would be ~600 KB), message count and bytes per
message kind, and ``RandomDeviationServer``'s ``injected`` list.  It
was generated at the commit *before* the adversaries were folded onto the
two seams of ``UstorServer`` — so whatever the refactor (or a later edit)
changes in what an adversary does on the wire shows up here by name.

Regenerate with ``PYTHONPATH=src python tests/test_adversary_golden.py``
only when a behaviour is *meant* to change.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

import repro.ustor.byzantine as byz
from repro.api import SystemConfig, open_system
from repro.net.trace import history_signature
from repro.ustor.fuzz import RandomDeviationServer
from repro.ustor.server import UstorServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

CORPUS = Path(__file__).parent / "data" / "adversary_runs.json"
SEEDS = (1, 2, 3)
BACKENDS = ("ustor", "faust")
KINDS = ("SUBMIT", "REPLY", "COMMIT")
N = 4


#: label -> (class, constructor keywords), the arguments ``cli.SERVERS``
#: and ``tests/test_ustor_byzantine_targeted.py`` used at generation time.
SERVERS = {
    "correct": (UstorServer, {}),
    "tampering": (byz.TamperingServer, {"target_register": 0}),
    "forging": (byz.ForgingServer, {}),
    "replay": (byz.ReplayServer, {"freeze_after_submits": 4}),
    "crash": (byz.CrashingServer, {"crash_after_submits": 6}),
    "unresponsive": (byz.UnresponsiveServer, {"victims": {0}}),
    "split-brain": (
        byz.SplitBrainServer,
        {"groups": [{0, 2}, {1, 3}], "fork_time": 10.0},
    ),
    "figure3": (byz.Fig3Server, {"writer": 0, "victim": 1}),
    "rollback": (
        byz.RollbackServer,
        {"snapshot_after_submits": 2, "rollback_after_submits": 6, "outage": 5.0},
    ),
    "wrong-proof": (byz.WrongProofServer, {}),
    "fake-pending": (byz.FakePendingServer, {"ghost_client": 2}),
    "self-echo": (byz.SelfEchoServer, {}),
    "bad-reader-version": (byz.BadReaderVersionServer, {"target_register": 0}),
    "stale-read": (byz.StaleReadServer, {"target_register": 0}),
    "lagging-reader-version": (
        byz.LaggingReaderVersionServer,
        {"target_register": 0},
    ),
    "random-deviation": (
        RandomDeviationServer,
        {"deviation_probability": 0.3, "seed": 11},
    ),
}


def record(label: str, backend: str, seed: int) -> dict:
    """Run one (server, backend, seed) cell and return what the lock keeps."""
    cls, kwargs = SERVERS[label]
    system = open_system(
        SystemConfig(
            num_clients=N,
            seed=seed,
            server_factory=lambda n, name: cls(n, name=name, **kwargs),
        ),
        backend=backend,
    )
    with system:
        scripts = generate_scripts(
            N,
            WorkloadConfig(ops_per_client=8, read_fraction=0.5, mean_think_time=1.0),
            random.Random(seed),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=2_000)
        trace = system.trace
        out = {
            "completed": driver.stats.total_completed(),
            "fail_reasons": [c.fail_reason for c in system.clients],
            "halt_reasons": [c.halt_reason for c in system.clients],
            "history_sha256": hashlib.sha256(
                json.dumps(history_signature(system.history())).encode()
            ).hexdigest(),
            "messages": {k: trace.message_count(k) for k in KINDS},
            "bytes": {k: trace.total_bytes(k) for k in KINDS},
            "total_messages": trace.message_count(),
            "total_bytes": trace.total_bytes(),
        }
        injected = getattr(system.server, "injected", None)
        if injected is not None:
            out["injected"] = injected
    # Through JSON so tuples compare as the lists the corpus holds.
    return json.loads(json.dumps(out))


CELLS = [
    (label, backend, seed)
    for label in SERVERS
    for backend in BACKENDS
    for seed in SEEDS
]


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("label,backend,seed", CELLS)
def test_recorded_run_unchanged(corpus, label, backend, seed):
    assert record(label, backend, seed) == corpus[f"{label}/{backend}/{seed}"]


def test_corpus_covers_every_server_and_sees_detections(corpus):
    assert len(corpus) == len(CELLS) == 16 * 2 * 3
    caught = {key.split("/")[0] for key, run in corpus.items() if any(run["fail_reasons"])}
    # Everything but the honest server, the two that merely stop answering
    # and the fork USTOR cannot see is caught by USTOR itself somewhere.
    assert set(SERVERS) - caught == {"correct", "crash", "unresponsive", "split-brain"}
    assert any(run["injected"] for key, run in corpus.items() if "injected" in run)


if __name__ == "__main__":  # pragma: no cover
    CORPUS.parent.mkdir(exist_ok=True)
    rows = ",\n".join(
        f"{json.dumps('/'.join(map(str, cell)))}: "
        f"{json.dumps(record(*cell), separators=(',', ':'))}"
        for cell in CELLS
    )
    CORPUS.write_text(f"{{\n{rows}\n}}\n")
    print(f"wrote {CORPUS}")

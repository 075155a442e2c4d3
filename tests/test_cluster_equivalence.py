"""Property-based cross-backend equivalence under one adversary seed.

Random operation programs — executed strictly sequentially, with the
FAUST background machinery quiet — must be *observationally identical*
across protocol stacks: the same register values come back, the same
operations fail, and the same clients end up detecting, because the
guarantees differ only in what the protocols can *detect*, never in what
an honest run returns.

Three layers of the property:

* **honest equivalence** — faust / ustor / cluster (several
  shard counts and both shard maps) and the lock-step baseline all
  return identical value sequences with zero failures;
* **adversarial equivalence** — the randomized-deviation adversary from
  :mod:`repro.ustor.fuzz`, seeded identically, produces identical per-op
  outcomes *and* identical per-client verdicts on the backends that
  speak the USTOR wire protocol (faust, ustor, and their 1-shard
  cluster embeddings — the cluster layer must be a zero-cost wrapper);
* **accuracy everywhere** — across all seeds and backends, a client
  verdict of "failed" only ever appears in runs where the adversary
  actually injected a deviation.
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    FaustParams,
    OperationFailed,
    OperationTimeout,
    SystemConfig,
    open_system,
)
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.common.errors import ProtocolError
from repro.common.types import BOTTOM, OpKind
from repro.ustor.fuzz import RandomDeviationServer
from repro.workloads.generator import unique_value

NUM_CLIENTS = 3
OPS_PER_PROGRAM = 14


def generate_program(seed: int) -> list[tuple[int, OpKind, int, bytes | None]]:
    """A random, sequentially executed op sequence over all clients."""
    rng = random.Random(seed)
    program = []
    writes = 0
    for _ in range(OPS_PER_PROGRAM):
        client = rng.randrange(NUM_CLIENTS)
        if rng.random() < 0.5:
            program.append((client, OpKind.READ, rng.randrange(NUM_CLIENTS), None))
        else:
            writes += 1
            program.append(
                (client, OpKind.WRITE, client, unique_value(client, writes, 16))
            )
    return program


def quiet_config(seed: int, **overrides) -> SystemConfig:
    overrides.setdefault(
        "faust", FaustParams(enable_dummy_reads=False, enable_probes=False)
    )
    return SystemConfig(num_clients=NUM_CLIENTS, seed=seed, **overrides)


def execute(backend: str, config: SystemConfig, program) -> tuple[tuple, tuple]:
    """Run a program; return (per-op outcomes, per-client verdicts).

    Outcomes normalise to comparable tokens: ``("ok", value-ish)`` for a
    completed op, ``"fail"`` for one rejected by the protocol, ``"halted"``
    for ops submitted to an already-halted client.  ``"lockstep"`` is the
    baseline, which ``build_deployment`` builds.
    """
    if backend == "lockstep":
        system = build_deployment(config, lockstep_protocol())
    else:
        system = open_system(config, backend=backend)
    outcomes = []
    for client, kind, register, value in program:
        session = system.session(client)
        try:
            if kind is OpKind.WRITE:
                session.write_sync(value, timeout=2_000.0)
                outcomes.append(("ok", "w"))
            else:
                read_value, _ = session.read_sync(register, timeout=2_000.0)
                token = "BOTTOM" if read_value is BOTTOM else bytes(read_value)
                outcomes.append(("ok", token))
        except (OperationFailed, OperationTimeout):
            outcomes.append(("fail",))
        except ProtocolError:
            outcomes.append(("halted",))
        # A settle gap keeps consecutive ops strictly ordered in real time
        # (identical schedules across protocol stacks).
        system.run(until=system.now + 0.1)
    verdicts = tuple(
        bool(system.session(c).failed) for c in range(NUM_CLIENTS)
    )
    return tuple(outcomes), verdicts


# --------------------------------------------------------------------- #
# Honest equivalence: every backend observes the same values
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(8))
def test_honest_backends_observe_identical_values(seed):
    program = generate_program(seed)
    reference, reference_verdicts = execute("faust", quiet_config(seed), program)
    assert reference_verdicts == (False,) * NUM_CLIENTS
    assert all(outcome[0] == "ok" for outcome in reference)

    variants = [
        ("ustor", quiet_config(seed)),
        ("lockstep", quiet_config(seed)),
        ("cluster", quiet_config(seed, shards=1)),
        ("cluster", quiet_config(seed, shards=2)),
        ("cluster", quiet_config(seed, shards=3)),
        ("cluster", quiet_config(seed, shards=2, shard_protocol="ustor")),
    ]
    for backend, config in variants:
        outcomes, verdicts = execute(backend, config, program)
        label = f"{backend}/{config.shards}-{config.shard_protocol}"
        assert outcomes == reference, f"{label} diverged from faust"
        assert verdicts == reference_verdicts, f"{label} raised a false alarm"


# --------------------------------------------------------------------- #
# Adversarial equivalence: same adversary seed, same verdicts
# --------------------------------------------------------------------- #


def deviation_factory(adversary_seed: int, probability: float = 0.2):
    def factory(n, name):
        return RandomDeviationServer(
            n, deviation_probability=probability, seed=adversary_seed, name=name
        )

    return factory


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(12))
def test_cluster_embedding_preserves_adversarial_verdicts(seed):
    """The 1-shard cluster must be byte-for-byte the wrapped protocol:
    identical outcomes and identical detection verdicts under the same
    randomized adversary."""
    program = generate_program(100 + seed)
    factory = deviation_factory(adversary_seed=seed)
    for protocol in ("ustor", "faust"):
        single = execute(
            protocol, quiet_config(seed, server_factory=factory), program
        )
        clustered = execute(
            "cluster",
            quiet_config(
                seed,
                shards=1,
                shard_protocol=protocol,
                shard_server_factories={0: factory},
            ),
            program,
        )
        assert clustered == single, f"cluster({protocol}) != {protocol}"


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(12))
def test_faust_and_ustor_agree_on_first_detection(seed):
    """Up to the first detection the two checked stacks are the same
    algorithm, so their outcome prefixes and the fact of detection must
    agree (after it, FAUST additionally spreads alerts — a superset)."""
    program = generate_program(200 + seed)
    factory = deviation_factory(adversary_seed=seed)
    ustor_outcomes, ustor_verdicts = execute(
        "ustor", quiet_config(seed, server_factory=factory), program
    )
    faust_outcomes, faust_verdicts = execute(
        "faust", quiet_config(seed, server_factory=factory), program
    )
    first_fail = next(
        (i for i, o in enumerate(ustor_outcomes) if o[0] != "ok"),
        len(ustor_outcomes),
    )
    assert faust_outcomes[: first_fail + 1] == ustor_outcomes[: first_fail + 1]
    assert any(ustor_verdicts) == any(faust_verdicts)
    # FAUST's alert propagation can only widen the detecting set.
    assert all(u <= f for u, f in zip(ustor_verdicts, faust_verdicts))


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(10))
def test_detection_accuracy_on_multi_shard_clusters(seed):
    """Accuracy on the shard axis: a multi-shard cluster under per-shard
    randomized adversaries raises a verdict only if some shard's server
    actually injected a deviation, and deviation-free runs (probability
    0) are verdict-free."""
    program = generate_program(300 + seed)
    config = quiet_config(
        seed,
        shards=2,
        shard_server_factories={
            0: deviation_factory(seed, probability=0.25),
            1: deviation_factory(seed + 1, probability=0.25),
        },
    )
    system = open_system(config, backend="cluster")
    any_failed = False
    for client, kind, register, value in program:
        session = system.session(client)
        try:
            if kind is OpKind.WRITE:
                session.write_sync(value, timeout=2_000.0)
            else:
                session.read_sync(register, timeout=2_000.0)
        except (OperationFailed, OperationTimeout, ProtocolError):
            any_failed = True
        system.run(until=system.now + 0.1)
    injected = {
        shard: len(server.injected)
        for shard, server in enumerate(system.servers)
    }
    if any_failed or system.notifications.failure_events():
        assert sum(injected.values()) > 0, "verdict without any deviation"
    for event in system.notifications.failure_events():
        assert injected[event.shard] > 0, (
            f"shard {event.shard} was blamed but injected nothing"
        )

    # The probability-0 control: same programs, never a verdict.
    control_config = quiet_config(
        seed,
        shards=2,
        shard_server_factories={
            0: deviation_factory(seed, probability=0.0),
            1: deviation_factory(seed + 1, probability=0.0),
        },
    )
    control_outcomes, control_verdicts = execute(
        "cluster", control_config, program
    )
    assert control_verdicts == (False,) * NUM_CLIENTS
    assert all(o[0] == "ok" for o in control_outcomes)

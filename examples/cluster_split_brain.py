#!/usr/bin/env python3
"""A sharded cluster with one forking shard: detection stays scoped.

Scaling the fail-aware store out means partitioning registers over many
untrusted servers — and a multi-server adversary has a trick the paper's
single server does not: *be honest on one shard and fork another*.  The
cluster contract (`repro.cluster`) is that each shard is its own
fail-aware trust domain:

1. clients whose operations touched the forked shard receive a
   shard-tagged failure notification — the proof names the guilty shard;
2. clients that never used that shard hear nothing (none of their data
   was at stake);
3. the honest shards keep serving *everyone*, including clients that
   just caught the forked shard red-handed.

Run:  python examples/cluster_split_brain.py
"""

from repro.api import (
    FaustParams,
    OperationFailed,
    SystemConfig,
    open_system,
)
from repro.common.errors import ProtocolError
from repro.ustor.byzantine import SplitBrainServer

CLIENTS, SHARDS, FORKED = 6, 3, 1
FORK_TIME = 12.0


def forking(n, name):
    groups = [{c for c in range(n) if c % 2 == 0},
              {c for c in range(n) if c % 2 == 1}]
    return SplitBrainServer(n, groups=groups, fork_time=FORK_TIME, name=name)


def main() -> None:
    system = open_system(
        SystemConfig(
            num_clients=CLIENTS,
            seed=7,
            shards=SHARDS,
            shard_server_factories={FORKED: forking},
            faust=FaustParams(delta=15.0, probe_check_period=5.0),
        ),
        backend="cluster",
    )
    placement = [system.shard_of(r) for r in range(CLIENTS)]
    print(f"{SHARDS} shards over {CLIENTS} registers; register->shard {placement}")
    print(f"shard {FORKED} will fork its clients at t={FORK_TIME}\n")

    sessions = system.sessions()
    forked_registers = [r for r in range(CLIENTS) if placement[r] == FORKED]
    honest_registers = [r for r in range(CLIENTS) if placement[r] != FORKED]

    # Everyone writes its own register; the even clients additionally read
    # from the doomed shard, the odd ones stay entirely on honest shards.
    for client, session in enumerate(sessions):
        session.write_sync(b"v1-of-C%d" % (client + 1))
        if client % 2 == 0:
            session.read_sync(forked_registers[client % len(forked_registers)])
        else:
            session.read_sync(honest_registers[client % len(honest_registers)])

    print("fork happens; background version exchange exposes it ...")
    system.run(until=FORK_TIME + 60.0)

    failures = system.notifications.failure_events()
    notified = sorted({e.client for e in failures})
    print(f"failure notifications: {len(failures)}, "
          f"clients {[f'C{c + 1}' for c in notified]}, "
          f"all tagged shard {sorted({e.shard for e in failures})}")

    # The forked shard is dead to the clients that used it ...
    caught = sessions[notified[0]]
    try:
        caught.read_sync(forked_registers[0])
        raise AssertionError("the forked shard must stay rejected")
    except (OperationFailed, ProtocolError) as exc:
        print(f"C{caught.client_id + 1} re-reading the forked shard: "
              f"{type(exc).__name__}")

    # ... but honest shards still serve them, and everyone else.
    value, _ = caught.read_sync(honest_registers[0])
    print(f"C{caught.client_id + 1} reading an honest shard still works: "
          f"{value!r}")
    for session in sessions:
        if session.client_id not in notified:
            assert not session.failed, "an avoider must not be failed"
    print(f"avoiders {[f'C{c + 1}' for c in range(CLIENTS) if c not in notified]} "
          f"were never notified — none of their data lived on shard {FORKED}")

    assert failures and all(e.shard == FORKED for e in failures)
    assert not caught.failed or caught.failed_shards == (FORKED,)
    print("\none forking shard, surgically detected; the rest of the "
          "cluster never missed a beat.")


if __name__ == "__main__":
    main()

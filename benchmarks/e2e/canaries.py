"""Detection canaries: a fast result must not be one that stopped checking.

Three untimed runs against misbehaving servers, each through the same
public surface the workloads use.  Every canary must *fire* (the attack
is detected the way the paper says it is); ``run.py`` exits non-zero when
one does not.  Run one with ``--canary NAME``; the last stdout line is
``{"canary": ..., "fired": bool, "detail": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.api import (  # noqa: E402
    FailureNotification,
    OperationFailed,
    SystemConfig,
    open_system,
)
from repro.sim.network import FixedLatency  # noqa: E402
from repro.ustor.byzantine import RollbackServer, SplitBrainServer  # noqa: E402

from workloads import SimFaustBounded, spawn_server, stop_server  # noqa: E402


def tcp_tampering(seed: int, scheme: str) -> dict:
    """``repro serve --server tampering``: the reading client must fail."""
    server, endpoint = spawn_server(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--clients", "2", "--server", "tampering"]
    )
    try:
        system = open_system(
            SystemConfig(
                num_clients=2, seed=seed, scheme=scheme, transport="tcp",
                endpoints=(endpoint,), default_timeout=20.0,
            ),
            backend="ustor",
        )
        try:
            writer, reader = system.sessions()
            writer.write_sync(b"canary value the server will corrupt")
            rejected = False
            try:
                reader.read_sync(0)
            except OperationFailed:
                rejected = True
            return {
                "fired": rejected and reader.failed and not writer.failed,
                "detail": {"reader_failed": reader.failed, "read_rejected": rejected},
            }
        finally:
            system.close()
    finally:
        stop_server(server)


class _SplitBrain(SimFaustBounded):
    """The ``sim_faust_bounded`` load shape against a forking server."""

    fork_time = 300.0
    horizon = 2_000.0

    def config(self) -> SystemConfig:
        evens = {c for c in range(self.clients) if c % 2 == 0}
        odds = set(range(self.clients)) - evens
        return SystemConfig(
            num_clients=self.clients,
            seed=self.seed,
            latency=FixedLatency(1.0),
            offline_latency=FixedLatency(0.5),
            server_factory=lambda n, name: SplitBrainServer(
                n, groups=[evens, odds], fork_time=self.fork_time, name=name
            ),
            default_timeout=10_000.0,
        )


def split_brain(seed: int) -> dict:
    """Every client emits a ``FailureNotification``, none before the fork;
    the last one's distance from the fork is ``faust.detect_lag_vt``."""
    run = _SplitBrain(seed, 1.0, Path("."), traced=False)
    run.open()
    run.system.run_until(
        lambda: len({e.client for e in run.fail_events}) == run.clients,
        timeout=run.horizon,
    )
    times = {}
    for event in run.fail_events:
        assert isinstance(event, FailureNotification)
        times.setdefault(event.client, event.time)
    early = [t for t in times.values() if t < run.fork_time]
    fired = len(times) == run.clients and not early
    return {
        "fired": fired,
        "detail": {
            "clients_failed": len(times),
            "failed_before_fork": len(early),
            "fork_time_vt": run.fork_time,
            "detect_lag_vt": max(times.values()) - run.fork_time if fired else None,
        },
    }


def replica_rollback(seed: int) -> dict:
    """One replica of three recovers from a stale snapshot: the durable
    counter convicts it while the honest majority keeps serving."""
    clients, rounds = 4, 12
    system = open_system(
        SystemConfig(
            num_clients=clients, seed=seed, shards=1, replicas=3,
            counter="durable",
            replica_server_factories={
                1: lambda n, name: RollbackServer(
                    n, snapshot_after_submits=2, rollback_after_submits=6,
                    outage=5.0, name=name,
                )
            },
        ),
        backend="cluster",
    )
    sessions = system.sessions()
    failed_ops = 0
    for round_index in range(rounds):
        for client, session in enumerate(sessions):
            try:
                session.write_sync(b"c%d#%d" % (client, round_index))
                session.read_sync((client + 1) % clients)
            except OperationFailed:
                failed_ops += 1
    convicted = {}
    for client in system.shards[0].clients:
        convicted.update(client.quorum_coordinator.stats()["convicted"])
    honest_failed = any(session.failed for session in sessions)
    return {
        "fired": bool(convicted) and failed_ops == 0 and not honest_failed,
        "detail": {
            "convicted": sorted(convicted),
            "failed_ops": failed_ops,
            "ops": 2 * clients * rounds,
            "client_raised_fail": honest_failed,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--canary", required=True,
        choices=("tcp_tampering", "split_brain", "replica_rollback"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scheme", default="hmac")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.canary == "tcp_tampering":
        result = tcp_tampering(args.seed, args.scheme)
    elif args.canary == "split_brain":
        result = split_brain(args.seed)
    else:
        result = replica_rollback(args.seed)
    print(json.dumps({"canary": args.canary, **result}))
    return 0 if result["fired"] else 1


if __name__ == "__main__":
    sys.exit(main())

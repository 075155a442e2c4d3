"""Command-line exploration tool.

Run randomized workloads against a chosen server behaviour and print the
recorded history, the consistency-checker verdicts, detection outcomes and
message statistics::

    python -m repro run --clients 3 --ops 6 --server correct --check
    python -m repro run --server split-brain --backend faust --until 600
    python -m repro run --batch 8 --audit-every 50 --check  # throughput pipeline
    python -m repro run --storage log --outage 25 20 --backend faust
    python -m repro run --server rollback --backend faust  # stale-snapshot attack
    python -m repro run --backend cluster --clients 6 --shards 3  # sharded
    python -m repro run --backend cluster --clients 6 --shards 4 \
        --server split-brain --server-shard 1      # fork one shard only
    python -m repro run --backend cluster --clients 6 --shards 2 \
        --storage log --shard-outage 1 25 20       # one shard's outage
    python -m repro attacks                       # list server behaviours
    python -m repro experiments --quick           # run the E* harness

Observability (``repro.obs``) — metrics, health gauges, causal spans::

    python -m repro run --server rollback --backend faust --metrics
    python -m repro run --ops 20 --batch 4 --span-log spans.jsonl \
        --chrome-trace trace.json --metrics-snapshot metrics.jsonl
    python -m repro serve --metrics-port 0        # announces METRICS host port
    python -m repro stats --endpoint 127.0.0.1:PORT   # scrape /metrics

Real deployments (``repro.net``) — servers as OS processes, clients over
real TCP, every run recorded and replayable::

    python -m repro serve --clients 3 --port 4800 --storage dir:/tmp/srv
    python -m repro run --clients 3 --transport tcp \
        --endpoints 127.0.0.1:4800 --trace-file run.jsonl --check
    python -m repro replay --trace run.jsonl --check   # re-derive verdicts
    python -m repro serve-cluster --clients 6 --shards 3  # one proc/shard

The CLI is a thin veneer over the library; everything it does is one or
two calls into :mod:`repro.api`, :mod:`repro.workloads` and
:mod:`repro.consistency`.  ``--backend`` selects the protocol stack the
same workload runs on (``faust`` / ``ustor`` / ``cluster``).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from typing import TYPE_CHECKING

from repro.common.errors import (
    ConfigurationError,
    SimulationError,
    StorageError,
    UnknownSignerError,
)
from repro.common.types import BACKENDS
from repro.obs.registry import enable_metrics, get_registry
from repro.ustor.byzantine import ADVERSARIES, catalogue_lines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import SystemConfig
    from repro.workloads.generator import WorkloadConfig

#: ``--server`` name -> ``(n, name)`` factory: one column of the catalogue.
SERVERS = {name: adversary.factory for name, adversary in ADVERSARIES.items()}

#: Behaviours that also run behind ``repro serve`` (real TCP).
TCP_SERVERS = tuple(name for name, adversary in ADVERSARIES.items() if adversary.tcp)


def _cmd_attacks(_args) -> int:
    for line in catalogue_lines():
        print(f"  {line}")
    print()
    print("[tcp] behaviours also run as real processes: "
          "python -m repro serve --server NAME")
    return 0


def _obs_enable(args) -> None:
    """Honour the run's metrics flags.

    Must run *before* the deployment is built: instrumented objects
    capture their registry handles at construction, so a registry swapped
    in afterwards would never see their events.
    """
    if args.metrics or args.metrics_snapshot or args.metrics_port is not None:
        enable_metrics()


def _check_output_paths(*flags: tuple[str, str | None]) -> None:
    """Refuse an output path whose directory does not exist, before
    anything runs: a finished run must not be lost to a typo."""
    for flag, path in flags:
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigurationError(
                f"{flag} {path}: directory {os.path.dirname(path)!r} does not exist"
            )


def _obs_snapshot_writer(args, health=None):
    """The JSONL snapshot writer for ``--metrics-snapshot`` (or None)."""
    if not args.metrics_snapshot:
        return None
    from repro.obs.exposition import JsonlSnapshotWriter

    return JsonlSnapshotWriter(
        get_registry(),
        args.metrics_snapshot,
        on_snapshot=health.refresh if health is not None else None,
    )


def _obs_finish(args, span_log, now, health=None, writer=None) -> None:
    """Write the obs artifacts and print the fail-aware summary lines."""
    registry = get_registry()
    if health is not None:
        stats = health.refresh()
        detection = stats.get("health.time_to_detection")
        if detection is not None:
            print(f"# detection: first fail_i {detection:.3f} time unit(s) "
                  f"after the first known deviation")
        print(f"# stability: max per-client lag "
              f"{stats['health.max_stability_lag']} op(s)")
    if writer is not None:
        writer.write(now)
        print(f"# metrics snapshot: {writer.path} "
              f"({writer.snapshots_written} snapshot(s))")
    if span_log is not None and args.span_log:
        span_log.write_jsonl(args.span_log)
        print(f"# span log: {args.span_log} "
              f"({len(span_log.records)} span record(s))")
    if span_log is not None and args.chrome_trace:
        span_log.write_chrome(args.chrome_trace)
        print(f"# chrome trace: {args.chrome_trace} "
              f"(open in chrome://tracing or Perfetto)")
    if args.metrics and registry.enabled:
        from repro.obs.exposition import render_prometheus

        print()
        print("# metrics (repro.obs)")
        print(render_prometheus(registry), end="")


def _cmd_stats(args) -> int:
    """Scrape a live ``/metrics`` endpoint (``repro stats``)."""
    import urllib.error
    import urllib.request

    from repro.net.client import parse_endpoint

    try:
        host, port = parse_endpoint(args.endpoint)
    except ConfigurationError:
        print("--endpoint takes HOST:PORT — the METRICS line printed by "
              "'repro serve --metrics-port' or 'repro run --metrics-port'")
        return 2
    if not 0 < args.timeout < math.inf:  # NaN fails too
        print(f"--timeout takes a positive, finite number of seconds, "
              f"got {args.timeout}")
        return 2
    path = "/metrics.json" if args.json else "/metrics"
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        print(f"cannot scrape {url}: {exc}")
        return 1
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


def _print_quorum_stats(protocol_clients) -> None:
    """Print the replica-group stats summed over the protocol clients."""
    from repro.replica.coordinator import group_stats

    totals = group_stats(protocol_clients)
    if totals is None:
        return
    print(f"# replicas: {totals['replicas']} per group, quorum "
          f"{totals['quorum']}: {totals['rounds_resolved']} round(s) "
          f"resolved, {totals['masked_deviations']} deviant reply(ies) "
          f"masked, {totals['read_repairs']} read repair(s)")
    for replica, violation in sorted(totals["convicted"].items()):
        print(f"#   convicted {replica}: {violation}")


def _server_placement(args):
    """Resolve ``--server`` and where it is placed into the three factory
    knobs of :class:`SystemConfig`.

    These are the CLI-only notions: a behaviour *name* (a row of the
    catalogue every backend's USTOR server runs) and the
    ``--server-shard``/``--server-replica`` flags that place it.  Whether
    a backend or transport takes the resulting knobs is the API's call.
    """
    if args.server not in SERVERS:
        raise ConfigurationError(
            f"unknown server {args.server!r}; see 'python -m repro attacks'"
        )
    placed = args.server_shard is not None or args.server_replica is not None
    if args.server == "correct":
        if placed:
            raise ConfigurationError(
                "--server-shard/--server-replica place a Byzantine "
                "behaviour; pick a --server"
            )
        # The backend's protocol builds the correct server, with its
        # engine from --storage.
        return None, {}, {}
    if args.server_shard is not None and args.server_replica is not None:
        raise ConfigurationError(
            "--server-replica and --server-shard both place the behaviour; "
            "pick one"
        )
    if args.server_replica is not None and args.replicas < 2:
        raise ConfigurationError(
            "--server-replica targets one replica of a group; add --replicas"
        )
    if not placed and (args.storage != "memory" or args.outage or args.shard_outage):
        raise ConfigurationError(
            f"--storage/--outage configure the correct server; the "
            f"{args.server!r} behaviour owns its durability and fault "
            f"schedule (the rollback server, e.g., builds its own log engine)"
        )
    factory = SERVERS[args.server]
    if args.server_shard is not None:
        # The chosen behaviour hits one shard; every other shard is honest.
        return None, {args.server_shard: factory}, {}
    if args.server_replica is not None:
        # The behaviour hits one replica of every group; with quorum-many
        # honest peers left, its deviation is masked rather than fatal.
        return None, {}, {args.server_replica: factory}
    return factory, {}, {}


def _run_config(args) -> tuple[SystemConfig, WorkloadConfig]:
    """The flags of ``repro run`` as one :class:`SystemConfig` and the
    :class:`WorkloadConfig` driven over it.

    Raises ``ConfigurationError`` for the checks only the CLI can make
    (server names and placement, operand types, flags that are not config
    fields); everything else is the two configs' to validate.
    """
    from repro.api import BatchingPolicy, SystemConfig
    from repro.sim.faults import Fault
    from repro.workloads.generator import WorkloadConfig

    tcp = args.transport == "tcp"
    if not 0 < args.until < math.inf:  # NaN fails too
        raise ConfigurationError(
            f"--until takes a positive, finite budget, got {args.until}"
        )
    workload = WorkloadConfig(
        ops_per_client=args.ops,
        read_fraction=args.read_fraction,
        mean_think_time=0.01 if tcp else 1.0,
    )
    factory, shard_factories, replica_factories = _server_placement(args)
    for shard, _start, _duration in args.shard_outage or ():
        # nargs=3 forces one argparse type for all operands; reject a
        # fractional shard rather than silently truncating to the wrong one.
        if shard != int(shard):
            raise ConfigurationError(
                f"--shard-outage: shard index must be an integer, got {shard}"
            )
    if args.audit_every is not None and not args.audit_every > 0:
        raise ConfigurationError("--audit-every takes a positive cadence")
    if args.metrics_port is not None and not tcp:
        raise ConfigurationError(
            "--metrics-port exposes a live process over HTTP; a simulated "
            "run is synchronous — use --metrics to print the final "
            "registry (or add --transport tcp)"
        )
    _check_output_paths(
        ("--span-log", args.span_log),
        ("--chrome-trace", args.chrome_trace),
        ("--metrics-snapshot", args.metrics_snapshot),
        ("--trace-file", args.trace_file),
    )
    config = SystemConfig(
        num_clients=args.clients,
        seed=args.seed,
        server_factory=factory,
        storage=args.storage,
        server_outages=(
            *(Fault("down", None, *window) for window in args.outage or ()),
            *(
                Fault("down", (int(shard), None), start, duration)
                for shard, start, duration in args.shard_outage or ()
            ),
        ),
        shards=args.shards,
        shard_server_factories=shard_factories,
        replicas=args.replicas,
        quorum=args.quorum,
        counter=args.counter,
        replica_server_factories=replica_factories,
        batching=(
            BatchingPolicy(max_batch=args.batch)
            if args.batch is not None
            else None
        ),
        transport=args.transport,
        endpoints=args.endpoints or (),
        server_name=args.server_name,
        trace_path=args.trace_file,
        default_timeout=args.timeout,
    )
    return config, workload


def _cmd_run(args) -> int:
    """``repro run``: one workload, one report, on either transport.

    What a backend or transport does not run is the API's verdict: config
    misuse exits 2 before anything is built or connected, a deployment
    that cannot be reached exits 1.
    """
    from repro import api
    from repro.api.config import check_supported

    backend = args.backend
    try:
        config, workload = _run_config(args)
        check_supported(config, backend)
    except ConfigurationError as exc:
        print(exc)
        return 2
    _obs_enable(args)
    try:
        system = api.open_system(config, backend=backend)
    except ConfigurationError as exc:
        print(f"cannot open the deployment: {exc}")
        return 1
    with system:
        _run_and_report(args, system, config, workload, backend)
    return 0


def _run_and_report(args, system, config, workload, backend) -> None:
    """Drive the workload over an opened system and print the report.

    The workload reaches the clients through their sessions, as every
    workload does; batching, span logs and metrics only observe or
    buffer it, so they never change which run is reported.
    """
    from repro.cluster.system import ClusterSystem
    from repro.obs.health import HealthMonitor, deployment_counts
    from repro.obs.tracing import SpanLog
    from repro.workloads.generator import run_closed_loop

    tcp = config.transport == "tcp"
    # The one place the report differs by kind: a cluster labels its shards.
    sharded = isinstance(system, ClusterSystem)
    batching = config.batching
    span_log = (
        SpanLog.attach(system) if args.span_log or args.chrome_trace else None
    )
    auditor = (
        system.attach_audit(every=args.audit_every)
        if args.audit_every is not None
        else None
    )
    health = (
        HealthMonitor(system, auditor=auditor) if get_registry().enabled else None
    )
    writer = _obs_snapshot_writer(args, health)
    if writer is not None:
        writer.write(system.now)  # the t=0 baseline line
    if args.metrics_port is not None:
        metrics_server = system.start_metrics(
            port=args.metrics_port,
            on_scrape=health.refresh if health is not None else None,
        )
        print(f"METRICS {metrics_server.host} {metrics_server.port}", flush=True)
    # Over tcp the run ends when the workload has settled (a failed client
    # never finishes its script); the simulator runs out its horizon.
    driver = run_closed_loop(
        system,
        workload,
        random.Random(args.seed),
        **({"timeout": args.until, "or_halted": True} if tcp else {"until": args.until}),
    )
    if tcp:
        # Give trailing COMMITs a moment to land before tearing down.
        system.run_until_quiescent(timeout=2.0)

    print(f"# run: {args.clients} clients x {args.ops} ops, "
          f"server={'remote' if tcp else args.server}, "
          f"backend={backend}{'/tcp' if tcp else ''}, seed={args.seed}")
    if tcp:
        print(f"# endpoints: {args.endpoints}")
    if sharded:
        placement = [system.shard_of(r) for r in range(args.clients)]
        print(f"# cluster: {system.num_shards} shard(s), "
              f"register->shard {placement}")
    counts = deployment_counts(system)
    _print_quorum_stats([c for shard in system.shards for c in shard.clients])
    print(f"# completed {driver.stats.total_completed()}"
          f"/{driver.stats.total_planned()} operations "
          + (f"in {system.now:.2f}s wall clock" if tcp else f"by t={system.now:.1f}"))
    if tcp:
        print(f"# transport: {counts['net.frames_sent']} frame(s) sent, "
              f"{counts['net.frames_received']} received, "
              f"{counts['net.reconnects']} reconnect(s) with retransmission")
    if batching is not None:
        print(f"# batching: max_batch={batching.max_batch}, "
              f"{counts.get('sim.network.messages_coalesced', 0)} message(s) "
              f"coalesced onto {counts.get('sim.network.bursts_formed', 0)} "
              f"burst(s), {counts.get('ustor.server.group_commits', 0)} server "
              f"group commit(s)")
    if auditor is not None:
        final = auditor.final()
        worst = max((a.delta_ops for a in auditor.audits), default=0)
        verdicts = " ".join(
            f"{name}={'OK' if result.ok else 'VIOLATED'}"
            for name, result in sorted(final.verdicts.items())
        )
        print(f"# audits: {len(auditor.audits)} incremental audit(s) every "
              f"{args.audit_every:g}{'s wall clock' if tcp else ' time units'}, "
              f"max delta {worst} op(s)/audit")
        print(f"# audit verdicts: {verdicts}")
        for name, result in sorted(final.verdicts.items()):
            if not result.ok:
                print(f"#   {name}: {result.violation}")
    for server in (s for shard in system.shards for s in shard.replica_servers):
        if getattr(server, "restarts", 0):
            engine = server.engine
            print(f"# server {server.name} storage={engine.name}: "
                  f"{server.restarts} restart(s), "
                  f"{getattr(engine, 'last_recovery_replayed', 0)} WAL record(s) "
                  f"replayed, {getattr(engine, 'snapshots_taken', 0)} snapshot(s)")
    # Each shard is its own consistency domain: histories (and the
    # checkers below) are per shard, labelled on a cluster.
    histories = [(k, shard, shard.history()) for k, shard in enumerate(system.shards)]
    if args.history:
        for k, _domain, history in histories:
            print()
            if sharded:
                print(f"--- shard {k} ---")
            print(history.describe())
    if args.timeline:
        from repro.analysis.timeline import render_timeline

        for k, _domain, history in histories:
            print()
            if sharded:
                print(f"--- shard {k} ---")
            print(render_timeline(history, width=96))

    if args.check:
        for k, domain, history in histories:
            print()
            _print_verdicts(
                history, domain.clients,
                label=f" [shard {k}]" if sharded else "",
            )

    print()
    for client in system.clients:
        # Fail-aware clients (FAUST, or a cluster of FAUST shards) are the
        # ones that track stability.
        tracker = getattr(client, "tracker", None)
        flags = []
        if client.crashed:
            flags.append("crashed")
        if client.failed:
            flags.append(f"fail: {client.fail_reason}")
        elif tracker is not None and not client.crashed:
            flags.append(f"stability cut {list(tracker.stability_cut())}")
        print(f"{client.name}: {'; '.join(flags) if flags else 'ok'}")

    print()
    if tcp:
        # Offline mail is handed over in-process: only frames are wired.
        frames = [
            tally for kind, tally in system.trace.tallies().items()
            if not kind.startswith("offline")
        ]
        print(f"messages: {sum(count for count, _ in frames)} "
              f"({sum(size for _, size in frames)} bytes on the wire)")
    else:
        print(f"messages: {system.trace.message_count()} "
              f"({system.trace.total_bytes()} bytes simulated)")
    for kind in ("SUBMIT", "REPLY", "COMMIT"):
        count = system.trace.message_count(kind)
        if count:
            print(f"  {kind:7s} x{count:5d}  "
                  f"avg {system.trace.total_bytes(kind) / count:7.1f} B")

    hub = system.notifications
    if hub.emitted:
        failures = len(hub.failure_events())
        print(f"notifications: {hub.emitted} "
              f"({failures} failure, {hub.emitted - failures} stability)")
    if args.trace_file:
        print()
        print(f"# wire trace: {args.trace_file} "
              f"(python -m repro replay --trace {args.trace_file} --check)")

    _obs_finish(args, span_log, system.now, health, writer)


def _cmd_serve(args) -> int:
    """Run one server process until interrupted (``repro serve``)."""
    from repro.net.server import serve_forever

    if args.server not in TCP_SERVERS:
        known = ", ".join(TCP_SERVERS)
        print(f"server behaviour {args.server!r} does not run over tcp "
              f"(available: {known}; the rest script virtual-time events "
              f"the simulator owns — see 'python -m repro attacks')")
        return 2
    if args.server != "correct" and args.storage != "memory":
        print("--storage configures the correct server; Byzantine "
              "behaviours own their durability")
        return 2
    factory = None if args.server == "correct" else SERVERS[args.server]
    try:
        return serve_forever(
            args.clients,
            host=args.host,
            port=args.port,
            server_name=args.server_name,
            storage=args.storage,
            server_factory=factory,
            metrics_port=args.metrics_port,
            counter=args.counter,
            # The supervisor and CI block on this line; an unflushed pipe
            # buffer would deadlock them.
            announce=lambda line: print(line, flush=True),
        )
    except ConfigurationError as exc:
        print(f"cannot serve: {exc}")
        return 2
    except (StorageError, OSError) as exc:
        # A store another build wrote, a port already taken, an unknown host.
        print(f"cannot serve: {exc}")
        return 1


def _cmd_serve_cluster(args) -> int:
    """Launch one ``repro serve`` process per shard and babysit them."""
    import time

    from repro.net.supervisor import ClusterSupervisor

    try:
        supervisor = ClusterSupervisor(
            args.clients,
            args.shards,
            host=args.host,
            base_port=args.base_port,
            storage=args.storage,
            replicas=args.replicas,
            counter=args.counter,
        )
    except ConfigurationError as exc:
        print(exc)
        return 2
    try:
        endpoints = supervisor.start()
    except ConfigurationError as exc:
        print(f"cluster failed to start: {exc}")
        return 1
    try:
        # Endpoints are flat, shard-major then replica-minor — the order
        # the TCP client layer expects back via --endpoints.
        for proc in supervisor.processes:
            print(f"SHARD {proc.server_name} LISTENING {proc.host} "
                  f"{proc.port}", flush=True)
        print(f"CLUSTER {','.join(endpoints)}", flush=True)
        while True:
            time.sleep(0.5)
            for proc in supervisor.processes:
                code = proc.process.poll() if proc.process else None
                if code is not None:
                    print(f"server {proc.server_name} exited with code "
                          f"{code}; stopping the cluster")
                    return 1
    except KeyboardInterrupt:
        return 0
    finally:
        supervisor.stop()


def _print_verdicts(history, clients, *, label="") -> None:
    """The three consistency verdict lines over one history."""
    from repro.consistency.causal import check_causal_consistency
    from repro.consistency.forking import validate_weak_fork_linearizability
    from repro.consistency.linearizability import check_linearizability
    from repro.ustor.viewhistory import build_client_views

    print(f"linearizability{label}:            {check_linearizability(history)}")
    print(f"causal consistency{label}:         "
          f"{check_causal_consistency(history)}")
    views = build_client_views(history, clients)
    print(f"weak fork-linearizability{label}:  "
          f"{validate_weak_fork_linearizability(history, views)}")


def _cmd_replay(args) -> int:
    """Replay a recorded TCP run on the simulator and re-derive verdicts."""
    from repro.net.trace import replay_trace

    try:
        result = replay_trace(args.trace)
    except (ConfigurationError, UnknownSignerError, OSError) as exc:
        print(f"cannot replay {args.trace!r}: {exc}")
        return 1
    history = result.history
    print(f"# replayed {len(history)} operation(s) from {args.trace}")
    for divergence in result.divergences:
        print(f"DIVERGENCE: {divergence}")
    print(f"# replay equivalent to recording: "
          f"{'yes' if result.ok else 'NO'}")
    failures = result.fail_reasons()
    for client_id, reason in sorted(failures.items()):
        print(f"C{client_id + 1}: fail: {reason}")
    if args.check:
        print()
        _print_verdicts(history, result.clients)
    if args.history:
        print()
        print(history.describe())
    return 0 if result.ok else 1


def _cmd_scale(args) -> int:
    import json as _json

    from repro.faust.checkpoint import CheckpointPolicy
    from repro.faust.membership import MembershipPolicy
    from repro.obs.exposition import render_prometheus
    from repro.obs.registry import Registry
    from repro.workloads.generator import OpenLoopConfig
    from repro.workloads.scale import ScaleConfig, run_scale

    # Misuse is one line and exit 2, before anything is built: every
    # refusal run_scale could make is made by ScaleConfig already.
    try:
        policy = None
        if args.checkpoint_interval:
            policy = CheckpointPolicy(
                interval=args.checkpoint_interval, keep_tail=args.keep_tail
            )
        membership = None
        if args.membership:
            membership = MembershipPolicy(
                lease_checkpoints=args.lease_checkpoints,
                evict_after=args.evict_after,
                check_period=args.membership_check_period,
            )
        config = ScaleConfig(
            num_clients=args.clients,
            seed=args.seed,
            open_loop=OpenLoopConfig(
                rate=args.rate,
                duration=args.duration,
                read_fraction=args.read_fraction,
                zipf_exponent=args.zipf,
            ),
            checkpoint=policy,
            membership=membership,
            churn_windows=args.churn_windows,
            churn_mean_duration=args.churn_mean_duration,
            client_faults=tuple(args.client_faults),
            sample_every=args.sample_every,
            trace_malloc=args.trace_malloc,
        )
        _check_output_paths(("--json", args.json), ("--metrics-out", args.metrics_out))
    except (ConfigurationError, SimulationError) as exc:
        print(exc)
        return 2
    report = run_scale(config)
    rendered = _json.dumps(report.to_dict(), indent=2)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    print(rendered)
    if args.metrics_out:
        registry = Registry()
        report.publish(registry)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(registry))
        print(f"METRICS WRITTEN {args.metrics_out}")
    if not all(report.checker_ok.values()):
        print("CONSISTENCY CHECK FAILED", file=sys.stderr)
        return 1
    if report.failed_clients:
        print("FAIL NOTIFICATIONS RAISED UNDER A CORRECT SERVER",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a workload and analyse the history")
    run.add_argument("--clients", type=int, default=3)
    run.add_argument("--ops", type=int, default=6)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--server", default="correct", help="see 'attacks'")
    run.add_argument("--read-fraction", type=float, default=0.5)
    run.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="ustor",
        help="protocol stack to run the workload on (default: ustor)",
    )
    run.add_argument(
        "--storage",
        choices=("memory", "log"),
        default="memory",
        help="server durability: volatile (paper) or WAL+snapshots",
    )
    run.add_argument(
        "--outage",
        nargs=2,
        type=float,
        action="append",
        metavar=("START", "DURATION"),
        help="schedule a server crash-recovery window (repeatable; on a "
        "cluster it takes every shard down)",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of shards (requires --backend cluster)",
    )
    run.add_argument(
        "--server-shard",
        type=int,
        default=None,
        metavar="SHARD",
        help="apply the chosen --server behaviour to this shard only "
        "(every other shard stays honest; requires --backend cluster)",
    )
    run.add_argument(
        "--shard-outage",
        nargs=3,
        type=float,
        action="append",
        metavar=("SHARD", "START", "DURATION"),
        help="crash-recovery window for one shard's server (repeatable; "
        "an unsharded deployment is shard 0)",
    )
    run.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replicas per shard (k-of-n quorum groups; --backend cluster, "
        "or one endpoint per replica over --transport tcp)",
    )
    run.add_argument(
        "--quorum",
        type=int,
        default=None,
        metavar="K",
        help="replies that must agree per operation (default: majority "
        "of --replicas)",
    )
    run.add_argument(
        "--counter",
        choices=("durable",),
        default=None,
        help="arm the durable monotonic-counter trust anchor: every REPLY "
        "carries a counter attestation the clients verify (rollback caught "
        "in O(1); over tcp this arms the client-side verifier only)",
    )
    run.add_argument(
        "--server-replica",
        type=int,
        default=None,
        metavar="REPLICA",
        help="apply the chosen --server behaviour to this replica of every "
        "shard only (the rest of each group stays honest; requires "
        "--replicas > 1)",
    )
    run.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="enable the throughput pipeline (session auto-flush every N "
        "operations, transport burst coalescing, server group commit)",
    )
    run.add_argument(
        "--audit-every",
        type=float,
        default=None,
        metavar="T",
        help="run streaming incremental consistency audits every T virtual "
        "time units (O(delta) per audit; per shard on a cluster)",
    )
    run.add_argument(
        "--transport",
        choices=("sim", "tcp"),
        default="sim",
        help="world to run in: the discrete-event simulator (default) or "
        "real sockets against 'repro serve' processes (faust and ustor "
        "backends; not cluster)",
    )
    run.add_argument(
        "--endpoints",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="server address(es) for --transport tcp "
        "(one per replica with --replicas)",
    )
    run.add_argument(
        "--server-name",
        default="S",
        metavar="NAME",
        help="name the tcp server process answers as ('repro serve "
        "--server-name'; serve-cluster names its shard S0)",
    )
    run.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="record the tcp run's wire trace (JSONL) for 'repro replay'",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline for synchronous waits (default: 30 wall-clock "
        "seconds over tcp, 1000 virtual time units on sim)",
    )
    run.add_argument("--until", type=float, default=500.0,
                     help="virtual time budget (wall-clock seconds over tcp)")
    run.add_argument(
        "--metrics",
        action="store_true",
        help="enable the repro.obs registry and print the final metrics "
        "(Prometheus text) after the run",
    )
    run.add_argument(
        "--metrics-snapshot",
        default=None,
        metavar="PATH",
        help="write whole-registry snapshots (JSONL) to PATH "
        "(implies --metrics)",
    )
    run.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics over HTTP for the run's lifetime "
        "(0 picks an ephemeral port; see the METRICS line; "
        "--transport tcp only)",
    )
    run.add_argument(
        "--span-log",
        default=None,
        metavar="PATH",
        help="write per-operation trace spans (JSONL) to PATH",
    )
    run.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="write the span log as a Chrome trace-event file "
        "(chrome://tracing / Perfetto)",
    )
    run.add_argument("--check", action="store_true", help="run consistency checkers")
    run.add_argument("--history", action="store_true", help="print the history")
    run.add_argument(
        "--timeline", action="store_true", help="render an ASCII timeline"
    )
    run.set_defaults(func=_cmd_run)

    attacks = sub.add_parser("attacks", help="list available server behaviours")
    attacks.set_defaults(func=_cmd_attacks)

    serve = sub.add_parser(
        "serve", help="run one server as a real TCP process"
    )
    serve.add_argument("--clients", type=int, default=3)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks an ephemeral one; see the LISTENING line)",
    )
    serve.add_argument(
        "--server", default="correct",
        help=f"behaviour to serve ({', '.join(TCP_SERVERS)})",
    )
    serve.add_argument("--server-name", default="S")
    serve.add_argument(
        "--storage", default="memory",
        help="server durability: 'memory', 'log', or 'dir:PATH' "
        "(WAL + snapshots in a directory, survives process restarts)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="expose GET /metrics over HTTP (0 picks an ephemeral port; "
        "the METRICS line announces it; scrape with 'repro stats')",
    )
    serve.add_argument(
        "--counter", choices=("durable",), default=None,
        help="attach a durable monotonic counter: every REPLY carries an "
        "attestation clients can verify; with dir: storage its value is "
        "kept next to the WAL across restarts",
    )
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser(
        "stats", help="scrape a live /metrics endpoint and print it"
    )
    stats.add_argument(
        "--endpoint", required=True, metavar="HOST:PORT",
        help="the metrics listener (the METRICS line of 'repro serve "
        "--metrics-port' or 'repro run --metrics-port')",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="fetch /metrics.json (raw snapshot) instead of Prometheus text",
    )
    stats.add_argument("--timeout", type=float, default=5.0,
                       metavar="SECONDS")
    stats.set_defaults(func=_cmd_stats)

    serve_cluster = sub.add_parser(
        "serve-cluster", help="run one server process per shard"
    )
    serve_cluster.add_argument("--clients", type=int, default=6)
    serve_cluster.add_argument("--shards", type=int, default=2)
    serve_cluster.add_argument("--host", default="127.0.0.1")
    serve_cluster.add_argument(
        "--base-port", type=int, default=0,
        help="shard i listens on BASE+i (0 picks ephemeral ports)",
    )
    serve_cluster.add_argument(
        "--storage", default="memory",
        help="per-process durability; '{shard}' and '{replica}' "
        "placeholders are expanded, e.g. 'dir:/tmp/faust/shard-{shard}'",
    )
    serve_cluster.add_argument(
        "--replicas", type=int, default=1,
        help="server processes per shard (a k-of-n replica group; clients "
        "connect with matching 'run --transport tcp --replicas')",
    )
    serve_cluster.add_argument(
        "--counter", choices=("durable",), default=None,
        help="attach a durable monotonic counter to every server process "
        "(kept next to the WAL with dir: storage)",
    )
    serve_cluster.set_defaults(func=_cmd_serve_cluster)

    replay = sub.add_parser(
        "replay", help="replay a recorded tcp run on the simulator"
    )
    replay.add_argument("--trace", required=True, metavar="PATH")
    replay.add_argument(
        "--check", action="store_true", help="run consistency checkers"
    )
    replay.add_argument(
        "--history", action="store_true", help="print the replayed history"
    )
    replay.set_defaults(func=_cmd_replay)

    scale = sub.add_parser(
        "scale",
        help="open-loop scale run: Poisson arrivals, Zipf keys, "
        "resident-memory sampling",
    )
    scale.add_argument("--clients", type=int, default=4)
    scale.add_argument("--seed", type=int, default=20260730)
    scale.add_argument(
        "--rate", type=float, default=0.15,
        help="per-client Poisson arrival rate (ops per time unit)",
    )
    scale.add_argument("--duration", type=float, default=800.0,
                       metavar="TIME", help="arrival horizon (virtual time)")
    scale.add_argument("--read-fraction", type=float, default=0.5)
    scale.add_argument("--zipf", type=float, default=1.0,
                       help="Zipf exponent for read-key popularity")
    scale.add_argument(
        "--checkpoint-interval", type=int, default=0, metavar="OPS",
        help="co-sign a checkpoint every N stable ops (0 disables "
        "checkpointing: the unbounded baseline)",
    )
    scale.add_argument("--keep-tail", type=int, default=2,
                       help="writes per register kept across compaction")
    scale.add_argument("--churn-windows", type=int, default=0,
                       help="random churn windows over the run (each "
                       "takes a present client away; rejected when the plan "
                       "needs more clients away at once than --clients "
                       "provides)")
    scale.add_argument("--churn-mean-duration", type=float, default=5.0,
                       metavar="TIME",
                       help="mean offline duration of a churn window")
    scale.add_argument("--membership", action="store_true",
                       help="lease-based membership (requires "
                       "--checkpoint-interval): the checkpoint chain "
                       "evicts lapsed clients so it survives crash-forever")
    scale.add_argument("--lease-checkpoints", type=int, default=2,
                       metavar="N",
                       help="membership ticks a client may miss before its "
                       "lease lapses")
    scale.add_argument("--evict-after", type=int, default=3,
                       metavar="N",
                       help="further lapsed ticks before the quorum "
                       "proposes eviction")
    scale.add_argument("--membership-check-period", type=float, default=20.0,
                       metavar="TIME",
                       help="virtual-time period of the membership tick")
    scale.add_argument("--client-faults", action="append", default=[],
                       metavar="SPEC",
                       help="inject a client fault, kind:client@start"
                       "[+duration] with kind one of crash-forever, "
                       "crash-restart, lease-expiry (repeatable)")
    scale.add_argument("--sample-every", type=float, default=20.0,
                       metavar="TIME")
    scale.add_argument("--trace-malloc", action="store_true",
                       help="track Python allocations for a bytes/op figure")
    scale.add_argument("--json", default=None, metavar="PATH",
                       help="also write the report as JSON to PATH")
    scale.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a Prometheus-style rendering of the report to PATH",
    )
    scale.set_defaults(func=_cmd_scale)

    # The harness's own parser reads everything after ``experiments``.
    sub.add_parser("experiments", help="run the E* harness", add_help=False)

    args, rest = parser.parse_known_args(argv)
    if args.command == "experiments":
        from repro.experiments.runner import main as experiments_main

        return experiments_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

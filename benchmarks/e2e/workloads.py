"""The four workloads: load generation, driving, and the verify phase.

Each workload generates its script from the pass seed with its own
``random.Random`` streams (the program receives only the generated
operations, plus ``SystemConfig.seed``), drives the deployment from one
thread through ``repro.api`` sessions, and times every operation with
the harness's own clock.  Op counts are frozen for ``--scale 1`` (about
:data:`metrics.PASS_SECONDS` measured seconds per pass on the 2-core box
at the commit that added the benchmark) and scale linearly.

Why these four is argued in ``README.md``; the short form is on each
class.
"""

from __future__ import annotations

import bisect
import os
import random
import subprocess
import sys
import time
from collections import deque
from itertools import accumulate
from pathlib import Path

from repro.api import (
    BatchingPolicy,
    CheckpointPolicy,
    FailureNotification,
    StabilityNotification,
    SystemConfig,
    open_system,
)
from repro.consistency import (
    IncrementalCausalChecker,
    IncrementalLinearizabilityChecker,
    replay_history,
)
from repro.obs.registry import enable_metrics, get_registry
from repro.perf.profile import hot_path_cache_stats
from repro.sim.network import FixedLatency

from metrics import WARMUP_FRACTION, SpeedGauge, percentile

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Wall seconds a TCP phase may take before the unsettled ops count as failed.
TCP_PHASE_TIMEOUT = 120.0

clock = time.perf_counter_ns


def make_value(client: int, sequence: int, size: int, rng: random.Random) -> bytes:
    """A unique ``size``-byte register value (the model assumes written
    values are unique): a readable stem padded with seeded random bytes."""
    stem = b"c%d#%d|" % (client, sequence)
    return stem + rng.randbytes(size - len(stem))


def replay_ok(history) -> list[str]:
    """Replay one history through the incremental checkers; problems found."""
    problems = []
    for label, checker in (
        ("linearizability", IncrementalLinearizabilityChecker()),
        ("causal", IncrementalCausalChecker()),
    ):
        verdict = replay_history(checker, history)
        if not verdict.ok:
            problems.append(f"{label}: {verdict}")
    return problems


def spawn_server(command: list[str]) -> tuple[subprocess.Popen, str]:
    """Start a server child and wait for its ``LISTENING host port`` line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    line = child.stdout.readline().split()
    if len(line) != 3 or line[0] != "LISTENING":
        stop_server(child)
        raise RuntimeError(f"server did not announce LISTENING: {line!r}")
    return child, f"{line[1]}:{line[2]}"


def stop_server(child: subprocess.Popen) -> None:
    """SIGTERM the server child and wait until it has ended."""
    child.terminate()
    try:
        child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    child.stdout.close()


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc`` (Linux)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Workload:
    """One pass of one workload: open, warm up, measure, verify, close."""

    name = ""
    clients = 0

    def __init__(self, seed: int, scale: float, workdir: Path, traced: bool) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.traced = traced
        self.system = None
        self.sessions: list = []
        #: Ops the pass planned (set by open/measure), ops whose handle
        #: settled, and ops that settled rejected or never settled.
        self.planned = 0
        self.settled = 0
        self.failed = 0
        #: Ops issued in the measured phase, and their wall latencies in
        #: completion order (``metrics.windowed_percentile`` relies on it).
        self.measured_ops = 0
        self.latencies_ns: list[int] = []
        #: Sliced in between measured ops by each load generator.
        self.gauge = SpeedGauge()

    def rng(self, stream: object) -> random.Random:
        """An independent seeded stream (``random.Random`` seeds on str)."""
        return random.Random(f"{self.name}/{self.seed}/{stream}")

    def scaled(self, count: int) -> int:
        return max(1, round(count * self.scale))

    # -- the pass, in order -------------------------------------------- #

    def open(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Untimed: every planned op settled, nobody failed, history ok."""
        problems = []
        unsettled = self.planned - self.settled
        if unsettled:
            problems.append(f"{unsettled} op(s) never settled")
            self.failed += unsettled
        if self.failed:
            problems.append(f"{self.failed} op(s) failed")
        if any(session.failed for session in self.sessions):
            problems.append("an honest run raised fail")
        return problems

    def close(self) -> None:
        pass

    @classmethod
    def size(cls) -> str:
        """The frozen op count ``--scale 1`` means, for the result file."""
        raise NotImplementedError

    # -- what the worker reads ----------------------------------------- #

    def wire_bytes(self) -> int:
        """Protocol bytes sent so far (sim: exact; tcp: frame payloads)."""
        return self.system.trace.total_bytes()

    def extra_metrics(self) -> dict:
        """Workload-specific metrics that do not depend on wall time."""
        return {}

    def counts(self) -> dict:
        """Counters the program already keeps (read in the traced pass)."""
        return {"chain_cache": hot_path_cache_stats()["digest_chain"]}

    def server_pid(self) -> int | None:
        return None


# ---------------------------------------------------------------------- #
# tcp_mixed_ed25519 / tcp_reads_hmac
# ---------------------------------------------------------------------- #


class TcpWorkload(Workload):
    """Two closed-loop clients over loopback against one server process."""

    clients = 2
    scheme = ""
    storage = "memory"
    read_fraction = 0.0
    ops_per_client = 0
    value_size = 64

    @classmethod
    def size(cls) -> str:
        return f"{cls.clients} x {cls.ops_per_client} ops"

    def open(self) -> None:
        storage = self.storage
        if storage == "dir":
            wal_dir = self.workdir / "wal"
            wal_dir.mkdir()
            storage = f"dir:{wal_dir}"
        self.dump_path = self.workdir / "server_trace.json"
        if self.traced:
            command = [
                sys.executable, str(HERE / "serve_traced.py"),
                "--clients", str(self.clients), "--storage", storage,
                "--dump", str(self.dump_path),
            ]
        else:
            command = [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--clients", str(self.clients), "--storage", storage,
            ]
        self.server, endpoint = spawn_server(command)
        if self.traced:
            # net.retransmissions exists only as a registry counter.
            enable_metrics()
        try:
            self.system = open_system(
                SystemConfig(
                    num_clients=self.clients,
                    seed=self.seed,
                    scheme=self.scheme,
                    transport="tcp",
                    endpoints=(endpoint,),
                    default_timeout=TCP_PHASE_TIMEOUT,
                ),
                backend="ustor",
            )
        except Exception:
            stop_server(self.server)
            raise
        self.sessions = self.system.sessions()
        self.per_client = self.scaled(self.ops_per_client)
        self.planned = self.clients * self.per_client
        self.warm = max(1, round(self.per_client * WARMUP_FRACTION))
        self.script = [self._script(client) for client in range(self.clients)]

    def _script(self, client: int) -> list[tuple[bool, object]]:
        rng = self.rng(client)
        script = []
        for sequence in range(self.per_client):
            if rng.random() < self.read_fraction:
                script.append((True, rng.randrange(self.clients)))
            else:
                script.append(
                    (False, make_value(client, sequence, self.value_size, rng))
                )
        return script

    def _closed_loop(self, first: int, last: int, measured: bool) -> None:
        """Each client runs ops ``first..last-1``, one outstanding at a time."""
        sessions = self.sessions

        def issue(client: int, index: int) -> None:
            is_read, argument = self.script[client][index]
            session = sessions[client]
            if measured and index % 8 == 0:
                self.gauge.slice()
            started = clock()
            handle = session.read(argument) if is_read else session.write(argument)

            def done(_handle) -> None:
                self.settled += 1
                if session.failed:  # a handle is rejected only with its client
                    self.failed += 1
                    return
                if measured:
                    self.latencies_ns.append(clock() - started)
                if index + 1 < last:
                    issue(client, index + 1)

            handle.add_done_callback(done)

        target = self.settled + self.clients * (last - first)
        for client in range(self.clients):
            issue(client, first)
        self.system.run_until(
            lambda: self.settled >= target or any(s.failed for s in sessions),
            timeout=TCP_PHASE_TIMEOUT,
        )

    def warm_up(self) -> None:
        self._closed_loop(0, self.warm, measured=False)

    def measure(self) -> None:
        self.measured_ops = self.clients * (self.per_client - self.warm)
        self._closed_loop(self.warm, self.per_client, measured=True)

    def verify(self) -> list[str]:
        return super().verify() + replay_ok(self.system.history())

    def counts(self) -> dict:
        connections = self.system.connections
        return {
            **super().counts(),
            "retransmissions": get_registry().counter("net.retransmissions").value,
            "frames": sum(c.frames_sent + c.frames_received for c in connections),
            "reconnects": sum(c.reconnects for c in connections),
            "verify_cache": self.system.keystore.verification_cache_stats(),
        }

    def server_pid(self) -> int | None:
        return self.server.pid

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
        stop_server(self.server)


class TcpMixedEd25519(TcpWorkload):
    """The north-star number: checked ops over real sockets with real
    signatures and a real WAL — crypto, net and store all carry weight."""

    name = "tcp_mixed_ed25519"
    scheme = "ed25519"
    storage = "dir"
    read_fraction = 0.5
    ops_per_client = 4_400


class TcpReadsHmac(TcpWorkload):
    """Smallest messages, near-free crypto, no WAL: the per-message cost
    of net and common.encoding dominates; crypto/store changes show nothing."""

    name = "tcp_reads_hmac"
    scheme = "hmac"
    storage = "memory"
    read_fraction = 0.95
    ops_per_client = 14_000


# ---------------------------------------------------------------------- #
# sim_faust_bounded
# ---------------------------------------------------------------------- #


class SimFaustBounded(Workload):
    """The paper's contribution under open-loop load on the simulator:
    faust, sim, consistency and history do the work and net does none."""

    name = "sim_faust_bounded"
    clients = 8
    rate = 0.2  # ops per virtual time unit per client (Poisson)
    horizon = 12_000.0  # virtual time of arrivals at scale 1
    read_fraction = 0.5
    zipf_exponent = 1.0
    value_size = 64
    #: Virtual time the verify phase allows for the last ops to turn stable.
    stability_drain = 2_000.0
    resident_samples = 100  # over the arrival horizon (traced pass only)

    @classmethod
    def size(cls) -> str:
        return f"{cls.clients} clients x {cls.rate} ops/vt over {cls.horizon:g} vt"

    def config(self) -> SystemConfig:
        """Dummy reads and probes stay on (the ``FaustParams`` defaults)."""
        return SystemConfig(
            num_clients=self.clients,
            seed=self.seed,
            latency=FixedLatency(1.0),
            offline_latency=FixedLatency(0.5),
            storage="log",
            checkpoint=CheckpointPolicy(interval=32),
            membership=True,
            default_timeout=10_000.0,
        )

    def open(self) -> None:
        self.system = open_system(self.config(), backend="faust")
        self.sessions = self.system.sessions()
        self.auditor = self.system.attach_audit(every=50.0)
        self.end = self.horizon * self.scale
        self.warm_until = self.end * WARMUP_FRACTION
        self.vt_latencies: list[float] = []
        self.stable_lags: list[float] = []
        self.fail_events: list = []
        #: Per client: (timestamp, completion vt, measured?) awaiting stability.
        self.unstable = [deque() for _ in range(self.clients)]
        self.resident: list[int] = []
        self.system.notifications.subscribe(self._on_notification)
        weights = [1.0 / (k + 1) ** self.zipf_exponent for k in range(self.clients)]
        total = sum(weights)
        self.zipf_cdf = [acc / total for acc in accumulate(weights)]
        self.zipf_cdf[-1] = 1.0  # guard the tail against float drift
        for client in range(self.clients):
            self._arrive(client, self.rng(client), 0.0, 0)
        if self.traced:
            self.system.scheduler.schedule(
                self.end / self.resident_samples, self._sample_resident
            )

    def _arrive(self, client: int, rng: random.Random, now: float, writes: int) -> None:
        """Schedule this client's next arrival; each arrival chains the
        next *before* it issues, so a slow op never delays the schedule."""
        due = now + rng.expovariate(self.rate)
        if due <= self.end:
            self.system.scheduler.schedule_at(
                due, self._issue, client, rng, due, writes
            )

    def _issue(self, client: int, rng: random.Random, due: float, writes: int) -> None:
        is_read = rng.random() < self.read_fraction
        if is_read:
            argument = bisect.bisect_left(self.zipf_cdf, rng.random())
        else:
            writes += 1
            argument = make_value(client, writes, self.value_size, rng)
        self._arrive(client, rng, due, writes)
        measured = due >= self.warm_until
        session = self.sessions[client]
        self.planned += 1
        if session.failed:  # a halted client refuses new ops
            self.settled += 1
            self.failed += 1
            return
        self.measured_ops += measured
        if measured and self.planned % 5 == 0:
            self.gauge.slice()
        started = clock()
        handle = session.read(argument) if is_read else session.write(argument)

        def done(handle) -> None:
            self.settled += 1
            if session.failed:
                self.failed += 1
                return
            now = self.system.now
            if measured:
                self.latencies_ns.append(clock() - started)
                self.vt_latencies.append(now - due)
            self.unstable[client].append((handle.result().timestamp, now, measured))

        handle.add_done_callback(done)

    def _on_notification(self, event) -> None:
        if isinstance(event, FailureNotification):
            self.fail_events.append(event)
        elif isinstance(event, StabilityNotification):
            stable_up_to = min(event.cut)
            waiting = self.unstable[event.client]
            while waiting and waiting[0][0] <= stable_up_to:
                _timestamp, completed_at, measured = waiting.popleft()
                if measured:
                    self.stable_lags.append(event.time - completed_at)

    def _sample_resident(self) -> None:
        """Entries in the structures checkpointing is meant to bound."""
        system = self.system
        self.resident.append(
            len(system.server.state.pending)
            + system.recorder.completed_count
            + system.recorder.pending_count
            + sum(len(c.vh_records) for c in system.clients)
            + sum(len(c.stable_notifications) for c in system.clients)
        )
        if system.now < self.end:
            system.scheduler.schedule(
                self.end / self.resident_samples, self._sample_resident
            )

    def warm_up(self) -> None:
        self.system.run(until=self.warm_until)

    def measure(self) -> None:
        self.system.run(until=self.end)
        self.system.run_until(
            lambda: self.settled >= self.planned, timeout=1_000.0
        )

    def verify(self) -> list[str]:
        problems = super().verify()
        self.system.run_until(
            lambda: not any(self.unstable), timeout=self.stability_drain
        )
        never_stable = sum(len(waiting) for waiting in self.unstable)
        if never_stable:
            problems.append(
                f"{never_stable} completed op(s) never covered by a "
                f"StabilityNotification"
            )
        if self.fail_events:
            problems.append(f"FailureNotification on an honest run: {self.fail_events[0]}")
        audit = self.auditor.final()
        if not audit.ok:
            problems.append(f"streaming audit: {audit.verdicts}")
        return problems

    def extra_metrics(self) -> dict:
        if not self.vt_latencies or not self.stable_lags:
            return {}
        latencies = sorted(self.vt_latencies)
        lags = sorted(self.stable_lags)
        return {
            "faust.op_p99_vt": percentile(latencies, 0.99),
            "faust.stable_lag_p50_vt": percentile(lags, 0.50),
            "faust.stable_lag_p99_vt": percentile(lags, 0.99),
        }

    def counts(self) -> dict:
        system = self.system
        samples = self.resident[len(self.resident) // 4:]
        half = len(samples) // 2
        growth = None
        if half >= 2:
            growth = (sum(samples[half:]) / (len(samples) - half)) / (
                sum(samples[:half]) / half
            )
        return {
            **super().counts(),
            **sim_counts(system, [system.raw]),
            "checkpoints_installed": min(
                c.checkpoint_manager.installed.seq for c in system.clients
            ),
            "resident_growth_ratio": growth,
        }


# ---------------------------------------------------------------------- #
# sim_replica3_writes_4k
# ---------------------------------------------------------------------- #


class SimReplica3Writes4k(Workload):
    """Bulk values through replica groups: hashing/encoding/WAL cost
    scales with bytes, and replica + cluster + batching run nowhere else."""

    name = "sim_replica3_writes_4k"
    clients = 4
    writes_per_client = 4_000
    barrier_every = 16  # rounds; one round = one write per client
    value_size = 4096

    @classmethod
    def size(cls) -> str:
        return f"{cls.clients} x {cls.writes_per_client} writes of {cls.value_size} B"

    def open(self) -> None:
        self.system = open_system(
            SystemConfig(
                num_clients=self.clients,
                seed=self.seed,
                shards=2,
                replicas=3,
                counter="durable",
                shard_protocol="faust",
                storage="log",
                batching=BatchingPolicy(max_batch=8),
                default_timeout=100_000.0,
            ),
            backend="cluster",
        )
        self.sessions = self.system.sessions()
        self.rounds = self.scaled(self.writes_per_client)
        self.planned = self.clients * self.rounds
        self.warm = max(1, round(self.rounds * WARMUP_FRACTION))
        self.value_rngs = [self.rng(client) for client in range(self.clients)]

    def _rounds(self, first: int, last: int, measured: bool) -> None:
        sessions = self.sessions
        for round_index in range(first, last):
            if measured:
                self.gauge.slice()
            for client, session in enumerate(sessions):
                value = make_value(
                    client, round_index, self.value_size, self.value_rngs[client]
                )
                started = clock()
                handle = session.write(value)

                def done(_handle, _session=session, _started=started) -> None:
                    self.settled += 1
                    if _session.failed:
                        self.failed += 1
                    elif measured:
                        self.latencies_ns.append(clock() - _started)

                handle.add_done_callback(done)
            if (round_index + 1) % self.barrier_every == 0:
                for session in sessions:
                    session.barrier()
        for session in sessions:
            session.barrier()

    def warm_up(self) -> None:
        self._rounds(0, self.warm, measured=False)

    def measure(self) -> None:
        self.measured_ops = self.clients * (self.rounds - self.warm)
        self._rounds(self.warm, self.rounds, measured=True)

    def verify(self) -> list[str]:
        problems = super().verify()
        for shard, history in self.system.shard_histories().items():
            problems += [f"shard {shard}: {p}" for p in replay_ok(history)]
        return problems

    def counts(self) -> dict:
        return {
            **super().counts(),
            **sim_counts(self.system, self.system.shards),
            "user_bytes_per_op": self.value_size,
        }


def sim_counts(system, deployments: list) -> dict:
    """Counters the simulated deployment(s) already keep."""
    servers = [s for d in deployments for s in (d.replica_servers or [d.server])]
    engines = [server.engine for server in servers]
    hits = misses = 0
    for deployment in deployments:
        stats = deployment.keystore.verification_cache_stats()
        hits += stats["hits"]
        misses += stats["misses"]
    clients = [c for d in deployments for c in d.clients]
    return {
        "events": system.scheduler.events_processed,
        "messages_coalesced": sum(d.network.messages_coalesced for d in deployments),
        "verify_cache": {"hits": hits, "misses": misses},
        "max_pending_len": max(server.max_pending_len for server in servers),
        **engine_counts(engines),
        "dummy_reads": sum(getattr(c, "dummy_reads_issued", 0) for c in clients),
    }


def engine_counts(engines: list) -> dict:
    """WAL / snapshot / group-commit counters summed over storage engines."""
    total = lambda attr: sum(getattr(engine, attr, 0) for engine in engines)  # noqa: E731
    return {
        "wal_appends": total("wal_appends"),
        "wal_bytes": total("wal_bytes_written"),
        "snapshots": total("snapshots_taken"),
        "group_commit_batches": total("group_commit_batches"),
        "group_commit_records": total("group_commit_records"),
    }


WORKLOADS = {
    cls.name: cls
    for cls in (TcpMixedEd25519, TcpReadsHmac, SimFaustBounded, SimReplica3Writes4k)
}

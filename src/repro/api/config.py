"""Declarative configuration for opening a storage system through a backend.

One :class:`SystemConfig` describes a deployment independently of the
protocol that will run it; the backend named to
:func:`~repro.api.backends.open_system` interprets the knobs it
understands.  FAUST-specific tuning lives in the
nested :class:`FaustParams` so that experiments can sweep fail-aware
parameters without touching the common deployment shape.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigurationError
from repro.sim.faults import Fault, overlap
from repro.sim.network import LatencyModel

if TYPE_CHECKING:  # import cycle: repro.faust pulls this module back in
    from repro.faust.checkpoint import CheckpointPolicy
    from repro.faust.membership import MembershipPolicy


@dataclass(frozen=True)
class BatchingPolicy:
    """The throughput pipeline's knobs: the client flush policy; setting
    one also turns the transport and server amortizations on.

    ``max_batch``/``max_delay`` shape the *session* flush policy:
    operations submitted through a
    :class:`~repro.api.session.Session` are buffered and handed to the
    protocol layer when the buffer reaches ``max_batch`` operations
    (size), when ``max_delay`` virtual time units have passed since the
    first buffered operation (time), or when ``barrier()`` — or any
    blocking wait — needs them issued (barrier).  ``max_delay=None``
    disables the timer (size/barrier flushes only).

    Under any policy the transport coalesces same-destination message
    bursts into single scheduler events
    (:class:`~repro.sim.network.Network` batching) and the server batches
    wakeups and WAL appends (:class:`~repro.ustor.server.UstorServer`
    group commit).  Both preserve the per-operation SUBMIT/REPLY/COMMIT
    protocol — histories, digests and checker verdicts are unchanged (see
    ``tests/test_batching_equivalence.py``); only the per-message
    machinery is amortized.
    """

    max_batch: int = 8
    max_delay: float | None = 1.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if self.max_delay is not None and not self.max_delay > 0:
            raise ConfigurationError(
                "max_delay must be positive (or None to disable time flush)"
            )


@dataclass
class FaustParams:
    """Tuning for the fail-aware layer (Section 6); ignored by backends
    that do not run it."""

    delta: float = 40.0
    dummy_read_period: float = 7.0
    probe_check_period: float = 11.0
    enable_dummy_reads: bool = True
    enable_probes: bool = True

    def as_kwargs(self) -> dict:
        """The parameters as :class:`~repro.faust.client.FaustClient`
        keyword arguments (this class is their only default)."""
        return asdict(self)


@dataclass
class SystemConfig:
    """Backend-agnostic description of one simulated deployment.

    ``server_factory`` receives ``(num_clients, server_name)`` and must
    return a server appropriate to the protocol it serves (a USTOR server
    for every backend, a lock-step server for the lock-step baseline);
    ``None`` selects the protocol's honest server.

    ``transport`` picks the world the deployment runs in: ``"sim"`` (the
    default discrete-event simulator) or ``"tcp"`` (real sockets against
    server processes started with ``python -m repro serve``).  Which
    backend runs which knob on which transport is declared once, in
    :data:`FEATURES` below; a knob set where no cell runs it is rejected
    by :func:`check_supported`, never silently ignored.

    Server crash-recovery windows are declared here, as ``down``
    :class:`~repro.sim.faults.Fault` records in ``server_outages``; every
    other fault is added to the opened system's ``faults`` schedule.
    """

    num_clients: int
    seed: int = 0
    scheme: str = "hmac"
    latency: LatencyModel | None = None
    offline_latency: LatencyModel | None = None
    server_factory: Callable | None = None
    commit_piggyback: bool = False
    #: Default time budget for synchronous waits (``result``, ``barrier``);
    #: ``None`` resolves to ``1_000.0`` virtual time units on ``sim`` and
    #: ``30.0`` wall-clock seconds on ``tcp``.
    default_timeout: float | None = None
    #: Server durability: ``"memory"`` (the paper's volatile server),
    #: ``"log"`` (WAL + snapshots, crash-recoverable) or ``"dir:PATH"``
    #: (the log over real files in ``PATH``); each replica opens its own
    #: engine.  Ignored when ``server_factory`` is given (a custom server
    #: owns its durability).
    storage: str = "memory"
    #: Scheduled server crash-recovery windows: ``down``
    #: :class:`~repro.sim.faults.Fault` records targeting ``(shard,
    #: replica)`` (``None`` in either place = every one; an unsharded
    #: deployment is shard 0).  Each server goes down at ``start`` and
    #: recovers from its storage engine ``duration`` later; windows one
    #: server would see overlapping are refused here.
    server_outages: tuple[Fault, ...] = ()
    #: Number of shards.  Each shard is an independent server owning one
    #: balanced contiguous range of the register space.
    shards: int = 1
    #: The protocol every shard runs: ``"faust"`` (fail-aware) or
    #: ``"ustor"`` (detection without notifications).
    shard_protocol: str = "faust"
    #: Per-shard server overrides ``{shard: factory}`` — lets one shard
    #: run a Byzantine server while the rest stay honest.  Shards not
    #: named here use ``server_factory`` (or the honest default).
    shard_server_factories: dict = field(default_factory=dict)
    #: Replicas per shard (:mod:`repro.replica`).  ``1`` is the paper's
    #: single untrusted server; ``>1`` puts a client-side quorum group
    #: behind each shard (over tcp: one endpoint per replica).
    replicas: int = 1
    #: REPLYs that must be equal (dataclass ``==``) to elect a round's winner.
    #: ``None`` = majority (``replicas // 2 + 1``); ``replicas`` demands
    #: unanimity (nothing masked, everything detected).
    quorum: int | None = None
    #: Trusted monotonic counter per replica (``None`` = no trust
    #: anchor): ``"durable"`` survives server crashes (the hardware
    #: model, catches rollbacks in O(1) operations).  Over tcp the flag
    #: only arms the client-side verifier — the counter itself belongs to
    #: ``repro serve --counter``.
    counter: str | None = None
    #: Per-replica server overrides ``{replica: factory}`` — lets one
    #: replica run a Byzantine server while the rest stay honest.
    replica_server_factories: dict = field(default_factory=dict)
    #: The throughput pipeline: ``None`` (default) runs fully unbatched —
    #: one scheduler event per message, one WAL append per record, ops
    #: issued as submitted.  A :class:`BatchingPolicy` (or ``True`` for
    #: the default policy) enables session auto-flush batching, transport
    #: burst coalescing and server group commit.
    batching: "BatchingPolicy | bool | None" = None
    #: Bounded state: ``None`` (default) keeps full history everywhere; a
    #: :class:`~repro.faust.checkpoint.CheckpointPolicy` (or ``True`` for
    #: the default policy) makes clients co-sign checkpoints over the
    #: all-clients stable cut, after which servers truncate the covered
    #: ``pending`` prefix and compact their WAL, clients prune view-history
    #: records, and the recorder + incremental checkers drop operations
    #: behind the cut.  Needs fail-aware clients (``shard_protocol='faust'``).
    checkpoint: "CheckpointPolicy | bool | None" = None
    #: Lease-based membership: ``None`` (default) requires every client
    #: to co-sign every checkpoint forever; a
    #: :class:`~repro.faust.membership.MembershipPolicy` (or ``True`` for
    #: the default policy) lets the live quorum co-sign checkpoint links
    #: that evict crashed-forever clients (and re-admit returning ones),
    #: so the checkpoint chain keeps advancing.  Requires ``checkpoint=``.
    membership: "MembershipPolicy | bool | None" = None
    faust: FaustParams = field(default_factory=FaustParams)
    #: ``"sim"`` (discrete-event simulator) or ``"tcp"`` (real asyncio
    #: sockets).
    transport: str = "sim"
    #: Server addresses for ``transport="tcp"``: ``host:port`` strings
    #: (or one comma-separated string), one endpoint per replica.
    endpoints: tuple[str, ...] = ()
    #: The name the tcp server process answers as (``repro serve
    #: --server-name``; ``serve-cluster`` names shard *i* ``S{i}``).  The
    #: handshake cross-checks it, so it must match the process exactly.
    server_name: str = "S"
    #: Record the run's wire trace (JSONL) here; replayable with
    #: :func:`repro.net.trace.replay_trace`.
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigurationError("need at least one client")
        # Imported lazily: repro.faust imports repro.workloads which
        # imports this module back, so the policy classes cannot be
        # top-level dependencies here.
        from repro.faust.checkpoint import CheckpointPolicy
        from repro.faust.membership import MembershipPolicy

        self.batching = _as_policy("batching", self.batching, BatchingPolicy)
        self.checkpoint = _as_policy(
            "checkpoint", self.checkpoint, CheckpointPolicy
        )
        self.membership = _as_policy(
            "membership", self.membership, MembershipPolicy
        )
        if self.membership is not None and self.checkpoint is None:
            raise ConfigurationError(
                "membership= lets the checkpoint chain evict lapsed "
                "clients; it needs checkpoint= enabled"
            )
        if self.default_timeout is None:
            self.default_timeout = 30.0 if self.transport == "tcp" else 1_000.0
        if not self.default_timeout > 0:  # NaN fails too
            raise ConfigurationError("default_timeout must be positive")
        if self.shards < 1:
            raise ConfigurationError("a deployment needs at least one shard")
        if self.shards > self.num_clients:
            raise ConfigurationError(
                f"{self.shards} shards over {self.num_clients} registers "
                f"would leave shards owning nothing (the register space is one "
                f"register per client)"
            )
        if self.shard_protocol not in ("faust", "ustor"):
            raise ConfigurationError(
                f"shard_protocol must be 'faust' or 'ustor', "
                f"got {self.shard_protocol!r}"
            )
        if self.checkpoint is not None and self.shard_protocol != "faust":
            raise ConfigurationError(
                "checkpoint= (and membership=) need fail-aware shards to "
                "co-sign the stable cut: they require shard_protocol='faust'"
            )
        for shard in self.shard_server_factories:
            if not 0 <= shard < self.shards:
                raise ConfigurationError(
                    f"shard_server_factories names shard {shard!r} but the "
                    f"cluster has {self.shards} shard(s)"
                )
        if self.replicas < 1:
            raise ConfigurationError("a shard needs at least one replica")
        if self.quorum is not None:
            if self.replicas == 1:
                raise ConfigurationError(
                    "quorum= tunes a replica group; it needs replicas > 1"
                )
            if not 1 <= self.quorum <= self.replicas:
                raise ConfigurationError(
                    f"quorum must be in [1, {self.replicas}], "
                    f"got {self.quorum!r}"
                )
        if self.counter not in (None, "durable"):
            raise ConfigurationError(
                f"counter must be None or 'durable', got {self.counter!r}"
            )
        for replica in self.replica_server_factories:
            if not 0 <= replica < self.replicas:
                raise ConfigurationError(
                    f"replica_server_factories names replica {replica!r} but "
                    f"each shard has {self.replicas} replica(s)"
                )
        self._check_server_outages()
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"transport must be 'sim' or 'tcp', got {self.transport!r}"
            )
        if isinstance(self.endpoints, str):
            self.endpoints = tuple(
                part.strip() for part in self.endpoints.split(",") if part.strip()
            )
        else:
            self.endpoints = tuple(self.endpoints)
        if self.endpoints:
            from repro.net.client import parse_endpoint

            for endpoint in self.endpoints:
                parse_endpoint(endpoint)
        if self.transport == "tcp" and len(self.endpoints) != self.replicas:
            raise ConfigurationError(
                f"transport='tcp' needs endpoints= ('host:port', e.g. from "
                f"'python -m repro serve'), one endpoint per replica: "
                f"replicas={self.replicas} but {len(self.endpoints)} "
                f"endpoint(s) given"
            )
        # What no backend runs on this transport can be refused before a
        # backend is even chosen; open_system repeats the check per backend.
        check_supported(self)

    def _check_server_outages(self) -> None:
        """Each entry is a ``down`` fault naming a shard and replica that
        exist, and no server sees two of its windows overlap (the
        schedule's own rule, applied before anything opens)."""
        for fault in self.server_outages:
            if not isinstance(fault, Fault) or fault.kind != "down":
                raise ConfigurationError(
                    f"server_outages holds down Faults, got {fault!r}"
                )
            shard, replica = fault.target
            if shard is not None and shard >= self.shards:
                raise ConfigurationError(
                    f"server outage names shard {shard} but the deployment "
                    f"has {self.shards} shard(s)"
                )
            if replica is not None and replica >= self.replicas:
                raise ConfigurationError(
                    f"server outage names replica {replica} but each shard "
                    f"has {self.replicas} replica(s)"
                )
        for shard in range(self.shards):
            for replica in range(self.replicas):
                clash = overlap(
                    (fault.start, fault.duration)
                    for fault in self.server_outages
                    if fault.target[0] in (None, shard)
                    and fault.target[1] in (None, replica)
                )
                if clash is not None:
                    raise ConfigurationError(
                        f"{f'shard {shard}: ' if self.shards > 1 else ''}"
                        f"{f'replica {replica}: ' if self.replicas > 1 else ''}"
                        f"server outage windows overlap: {clash[0]} and "
                        f"{clash[1]}"
                    )


def _as_policy(name: str, value, policy_class):
    """Normalise a policy knob: ``True`` = the default policy, ``False`` =
    off (``None``), a ready policy or ``None`` passes through."""
    if value is True:
        return policy_class()
    if value is False or value is None:
        return None
    if not isinstance(value, policy_class):
        raise ConfigurationError(
            f"{name} must be a {policy_class.__name__}, True/False or None, "
            f"got {value!r}"
        )
    return value


# --------------------------------------------------------------------- #
# The support table: backend x transport x feature, declared once
# --------------------------------------------------------------------- #

TRANSPORTS = ("sim", "tcp")


@dataclass(frozen=True)
class Feature:
    """One row of the support table.

    A feature claims the :class:`SystemConfig` fields that ask for it (a
    config *asks* when one of them is set away from its default), says in
    one phrase what it is, and lists per transport the backends that run
    it.  Flipping a cell is an edit to ``sim``/``tcp`` in :data:`FEATURES`
    and nowhere else: :func:`check_supported` is the only reader.
    """

    name: str
    fields: tuple[str, ...]
    what: str
    sim: tuple[str, ...] = ()
    tcp: tuple[str, ...] = ()

    def asked(self, config: SystemConfig) -> list[str]:
        """The fields of this feature that ``config`` sets."""
        return [f for f in self.fields if getattr(config, f) != _DEFAULTS[f]]

    def runs_on(self, transport: str) -> tuple[str, ...]:
        """The backends that run this feature over ``transport``."""
        return getattr(self, transport)


_USTOR_STACK = ("faust", "ustor", "cluster")
_FAIL_AWARE = ("faust", "cluster")
_WIRED = ("faust", "ustor")

#: Every field that is not universal, claimed exactly once.
FEATURES: tuple[Feature, ...] = (
    Feature("storage", ("storage", "server_outages"),
            "a server storage engine and its crash-recovery windows",
            sim=_USTOR_STACK),
    Feature("batching", ("batching",),
            "the throughput pipeline", sim=_USTOR_STACK),
    Feature("checkpoint", ("checkpoint",),
            "checkpoints co-signed over the fail-aware layer's offline "
            "channel", sim=_FAIL_AWARE, tcp=("faust",)),
    Feature("membership", ("membership",),
            "member changes co-signed in the checkpoint chain over the "
            "fail-aware layer's offline channel", sim=_FAIL_AWARE, tcp=("faust",)),
    Feature("shards",
            ("shards", "shard_protocol", "shard_server_factories"),
            "the shard axis", sim=("cluster",)),
    Feature("replicas", ("replicas", "quorum"),
            "the replica axis", sim=_USTOR_STACK, tcp=_WIRED),
    Feature("replica_factories", ("replica_server_factories",),
            "per-replica server overrides", sim=_USTOR_STACK),
    Feature("counter", ("counter",),
            "monotonic-counter attestations", sim=_USTOR_STACK, tcp=_WIRED),
    Feature("commit_piggyback", ("commit_piggyback",),
            "USTOR's COMMIT piggybacking", sim=_USTOR_STACK, tcp=_WIRED),
    Feature("wire", ("endpoints", "server_name"),
            "a real deployment's addresses and handshake name", tcp=_WIRED),
    Feature("trace", ("trace_path",),
            "a wire trace of the run's frames", tcp=("ustor",)),
    Feature("latency", ("latency", "offline_latency"),
            "simulated network latency models", sim=_USTOR_STACK),
    Feature("server_factory", ("server_factory",),
            "a custom server object", sim=_USTOR_STACK),
)

#: Fields every backend takes on every transport (``scheme`` and ``faust``
#: tune layers a backend may lack; there they are inert by definition).
UNIVERSAL_FIELDS = frozenset(
    {"num_clients", "seed", "scheme", "default_timeout", "faust",
     "transport"}
)

_DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default
    for f in fields(SystemConfig)
    if f.name != "num_clients"
}


def check_supported(config: SystemConfig, backend: str | None = None) -> None:
    """Raise :class:`ConfigurationError` for a knob ``backend`` does not
    run over ``config.transport`` (``backend=None``: that *no* backend
    runs over it).  ``open_system`` calls this first, so nothing is
    built or connected for a config that would be ignored."""
    transport = config.transport
    speakers = {b for f in FEATURES for b in f.runs_on(transport)}
    if backend is not None and backend not in speakers:
        raise ConfigurationError(
            f"the {backend!r} backend is simulator-only; "
            f"transport={transport!r} runs on: {', '.join(sorted(speakers))}"
        )
    for feature in FEATURES:
        runners = feature.runs_on(transport)
        asked = feature.asked(config)
        if not asked or backend in runners or (backend is None and runners):
            continue
        where = "; ".join(
            f"{', '.join(map(repr, feature.runs_on(t)))} over transport={t!r}"
            for t in TRANSPORTS
            if feature.runs_on(t)
        )
        raise ConfigurationError(
            f"{'/'.join(f'{name}=' for name in asked)} ({feature.what}) is "
            f"not supported by "
            f"{'any backend' if backend is None else f'the {backend!r} backend'}"
            f" over transport={transport!r}; it runs on {where}"
            + (
                " — over tcp the server is its own process and takes the "
                "server-side knobs on the 'repro serve' command line"
                if transport == "tcp"
                else ""
            )
        )

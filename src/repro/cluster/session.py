"""The client-side shard router: one session over many servers.

A :class:`ClusterSession` presents exactly the single-server
:class:`~repro.api.session.Session` surface — future-returning ``write``
/``read``, blocking ``*_sync`` forms, ``barrier()``, the fail-aware
stability calls — while routing every operation to the shard owning its
register.  Under the hood it keeps one real per-shard ``Session`` per
shard it has touched, so all handle semantics (settling order, timeout
and failure behaviour) are literally the single-server ones.

Two deliberate semantic choices:

* **Per-shard failure isolation.**  A ``fail_i`` on one shard is proof
  that *that shard's server* misbehaved; other shards are independent
  trust domains.  Operations routed to healthy shards keep completing
  after a detection — only the failed shard's handles are rejected.
  ``failed`` reports whether *any* touched shard failed;
  ``failed_shards`` names them.
* **Home-shard stability.**  All of a client's writes live on the shard
  owning its own register (the *home shard*), so ``wait_for_stability``
  and ``stability_cut`` are home-shard questions; per-partition cuts for
  every touched shard are available via :meth:`stability_cuts`.
"""

from __future__ import annotations

from repro.api.errors import OperationTimeout
from repro.api.handles import OpHandle
from repro.api.session import Session
from repro.common.types import Bottom, RegisterId, Value


class ClusterSession:
    """Operations of one client against a sharded deployment."""

    def __init__(self, cluster, client_id: int, timeout: float | None = None) -> None:
        self._cluster = cluster
        self._client_id = client_id
        if timeout is None:
            timeout = cluster.default_timeout
        self._timeout = timeout
        #: Real per-shard sessions, created on first touch.
        self._shard_sessions: dict[int, Session] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def client(self):
        """The cluster-level client proxy."""
        return self._cluster.clients[self._client_id]

    @property
    def client_id(self) -> int:
        """The bound client's id."""
        return self._client_id

    @property
    def system(self):
        """The cluster deployment this session operates against."""
        return self._cluster

    @property
    def timeout(self) -> float:
        """Default time budget (virtual time units) for blocking calls."""
        return self._timeout

    @property
    def home_shard(self) -> int:
        """The shard owning this client's own register."""
        return self._cluster.shard_of(self._client_id)

    @property
    def touched_shards(self) -> tuple[int, ...]:
        """Shards this session has routed at least one operation to."""
        return tuple(sorted(self._shard_sessions))

    @property
    def failed(self) -> bool:
        """Has any touched shard's instance output ``fail``?"""
        return any(s.failed for s in self._shard_sessions.values())

    @property
    def failed_shards(self) -> tuple[int, ...]:
        """Touched shards whose server was caught misbehaving."""
        return tuple(
            sorted(k for k, s in self._shard_sessions.items() if s.failed)
        )

    @property
    def outstanding(self) -> int:
        """Operations issued through this session and not yet settled."""
        return sum(s.outstanding for s in self._shard_sessions.values())

    def shard_session(self, shard: int) -> Session:
        """The per-shard session for ``shard`` (created and wired on first
        use; creating it counts as touching the shard)."""
        session = self._shard_sessions.get(shard)
        if session is None:
            self._cluster.check_shard(shard)
            session = Session(
                self._cluster.shards[shard], self._client_id, timeout=self._timeout
            )
            self._shard_sessions[shard] = session
            self._cluster.touch(self._client_id, shard)
        return session

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def write(self, value: Value) -> OpHandle:
        """Write the client's own register (routed to the home shard)."""
        return self.shard_session(self.home_shard).write(value)

    def read(self, register: RegisterId) -> OpHandle:
        """Read any register (routed to the shard owning it)."""
        return self.shard_session(self._cluster.shard_of(register)).read(register)

    def write_sync(self, value: Value, timeout: float | None = None) -> int:
        """Blocking write; returns the home-shard operation timestamp."""
        return self.write(value).result(timeout).timestamp

    def read_sync(
        self, register: RegisterId, timeout: float | None = None
    ) -> tuple[Value | Bottom, int]:
        """Blocking read; returns ``(value, timestamp)``."""
        result = self.read(register).result(timeout)
        return result.value, result.timestamp

    def flush(self) -> None:
        """Flush the batch buffer of every touched shard session (a no-op
        on unbatched deployments)."""
        for session in self._shard_sessions.values():
            session.flush()

    def barrier(self, timeout: float | None = None) -> None:
        """Drive the simulation until every handle on *every* shard this
        session touched has settled.

        Mirrors the single-server contract — batch buffers are flushed
        first per the batching policy, and the call raises the first
        failure among the operations waited on, or
        :class:`OperationTimeout` naming the shards still in flight —
        but drains all shards: the cross-shard ordering point of a
        sharded deployment.
        """
        self.flush()
        sessions = dict(self._shard_sessions)
        # Operations parked in a batch buffer meanwhile (submitted from a
        # completion callback) are not waited on — they have not been
        # issued.  The exclusion logic is the per-shard Session's.
        per_session = {
            shard: s._issued_unsettled() for shard, s in sessions.items()
        }
        waited = [h for handles in per_session.values() for h in handles]
        limit = self._timeout if timeout is None else timeout

        touched = tuple(sessions.values())

        def drained() -> bool:
            # Per shard: every issued handle settled, or the instance
            # died (crash/fail) — a dead instance's handles can never
            # settle, so waiting out the budget would only burn virtual
            # time for everyone else.  Polled after every event: a plain
            # loop, no generator to build each time.
            for s in touched:
                if not (s._all_issued_settled() or s.client.halted):
                    return False
            return True

        self._cluster.run_until(drained, timeout=limit)
        for session in sessions.values():
            session._reject_if_dead()
        pending_shards = sorted(
            shard
            for shard, handles in per_session.items()
            if any(not h.done() for h in handles)
        )
        if pending_shards:
            count = sum(
                1
                for shard in pending_shards
                for h in per_session[shard]
                if not h.done()
            )
            raise OperationTimeout(
                f"barrier: {count} operation(s) still in flight on shard(s) "
                f"{pending_shards} after {limit} time units (a Byzantine "
                f"server may be withholding the REPLY)"
            )
        for handle in waited:
            if handle._exception is not None:
                raise handle._exception

    # ------------------------------------------------------------------ #
    # Fail-aware surface
    # ------------------------------------------------------------------ #

    @property
    def stability_cut(self) -> tuple[int, ...]:
        """The home shard's latest ``W`` vector — the cut governing this
        client's writes."""
        return self.shard_session(self.home_shard).stability_cut

    def stability_cuts(self) -> dict[int, tuple[int, ...]]:
        """Per-partition stability: the ``W`` vector of every touched
        shard, keyed by shard."""
        return {
            shard: session.stability_cut
            for shard, session in sorted(self._shard_sessions.items())
        }

    def wait_for_stability(self, timestamp: int, timeout: float | None = None) -> bool:
        """Block until the home-shard write with ``timestamp`` is stable
        w.r.t. every client (or failure / timeout)."""
        return self.shard_session(self.home_shard).wait_for_stability(
            timestamp, timeout=timeout
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterSession client={self._client_id} "
            f"touched={list(self.touched_shards)} failed={self.failed}>"
        )

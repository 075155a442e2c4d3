"""The FAUST protocol — fail-aware untrusted storage (Section 6).

A :class:`FaustClient` layers three mechanisms over the USTOR client
(Figure 4's architecture):

* **Version bookkeeping** — every version received (own commits, writers'
  versions in read replies, offline VERSION messages) flows through a
  :class:`~repro.faust.stability.StabilityTracker`; stability cuts ``W_i``
  emerge as ``stable_i(W)`` notifications.
* **Dummy reads** — a periodic round-robin read over all registers while
  the application is idle, so versions keep propagating through the
  server even without user operations.
* **Offline probing** — peers not heard from for more than ``delta`` are
  probed directly; PROBE / VERSION / FAILURE messages travel over the
  offline channel and keep stability (and failure) detection complete
  even when the server crashes or partitions clients.

Failure is detected in exactly the paper's three ways: a USTOR ``fail_i``
(signature/version check failed), an incomparable version (forking
evidence), or a FAILURE message from another client.  On any of them the
client alerts everyone, outputs ``fail_i``, and halts.

Operations return the timestamp ``t`` of the underlying USTOR operation
(Definition 5's Integrity: timestamps at one client increase
monotonically).  User operations invoked while another is in flight are
queued, preserving the well-formedness of each client's history.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.common.errors import ProtocolError
from repro.common.types import ClientId, OpKind, RegisterId, Value, client_name
from repro.crypto.keystore import ClientSigner
from repro.history.recorder import HistoryRecorder
from repro.sim.offline import OfflineChannel
from repro.sim.timers import PeriodicTimer
from repro.ustor.client import OpOutcome, UstorClient
from repro.ustor.messages import ReplyMessage
from repro.faust.checkpoint import Checkpoint, CheckpointManager, CheckpointPolicy
from repro.faust.membership import Epoch, MembershipManager, MembershipPolicy
from repro.faust.messages import (
    CheckpointShareMessage,
    EpochAnnounceMessage,
    EpochShareMessage,
    FailureMessage,
    ProbeMessage,
    VersionMessage,
)
from repro.faust.stability import StabilityTracker


class FaustClient(UstorClient):
    """Client ``C_i`` of the fail-aware untrusted storage service."""

    #: User operations invoked while one is in flight are queued (the
    #: application may pipeline submissions through this client).
    pipelines_operations = True

    #: A fail-aware client that crash-*restarts* recovers with its
    #: reliable-channel traffic replayed (the same modelling choice as
    #: ``UstorServer`` outages: the channels outlive one endpoint's
    #: restart).  This covers the in-flight REPLY — without it a client
    #: that crashed mid-operation would stay busy forever, its own
    #: version frozen below the fleet's next checkpoint cut, and the
    #: membership layer would (correctly, but uselessly) evict an
    #: otherwise healthy returnee.  It also honours the offline
    #: channel's eventual-delivery guarantee (Section 2: messages are
    #: delivered "even if the clients are not simultaneously
    #: connected"), since offline mail funnels through the same
    #: ``deliver`` entry point.  Crash-*stop* clients never restart, so
    #: for them the flag only parks undeliverable mail.
    holds_mail_while_down = True

    def __init__(
        self,
        client_id: ClientId,
        num_clients: int,
        signer: ClientSigner,
        server_name: str = "S",
        recorder: HistoryRecorder | None = None,
        commit_piggyback: bool = False,
        *,
        offline: OfflineChannel,
        # Tuning without defaults here: FaustParams is their one home.
        delta: float,
        dummy_read_period: float,
        probe_check_period: float,
        enable_dummy_reads: bool,
        enable_probes: bool,
        replica_servers: tuple | None = None,
        quorum: int | None = None,
        counter: bool = False,
        checkpoint: CheckpointPolicy | None = None,
        membership: MembershipPolicy | None = None,
    ) -> None:
        super().__init__(
            client_id=client_id,
            num_clients=num_clients,
            signer=signer,
            server_name=server_name,
            recorder=recorder,
            on_fail=self._ustor_failed,
            commit_piggyback=commit_piggyback,
            replica_servers=replica_servers,
            quorum=quorum,
            counter=counter,
        )
        self.tracker = StabilityTracker(client_id, num_clients)
        self.delta = delta
        self._dummy_period = dummy_read_period
        self._probe_period = probe_check_period
        self._enable_dummy = enable_dummy_reads
        self._enable_probes = enable_probes
        self._stable_listeners: list[Callable[[tuple[int, ...]], None]] = []
        self._faust_fail_listeners: list[Callable[[str], None]] = []

        self._offline = offline
        self._queue: deque = deque()
        self._dummy_timer: PeriodicTimer | None = None
        self._probe_timer: PeriodicTimer | None = None
        self._next_dummy_register = (client_id + 1) % num_clients
        self._last_probe_sent: list[float] = [float("-inf")] * num_clients
        self._peer_names = tuple(client_name(peer) for peer in range(num_clients))

        self.faust_failed = False
        self.faust_fail_reason: str | None = None
        self.faust_fail_time: float | None = None
        #: (time, W) of every stable_i notification, for tests/experiments.
        #: With checkpointing on, installed checkpoints trim this list
        #: (bounded state); ``stable_notifications_total`` keeps the count.
        self.stable_notifications: list[tuple[float, tuple[int, ...]]] = []
        self.stable_notifications_total = 0
        self.user_operations_completed = 0
        self.dummy_reads_issued = 0

        self._checkpoint_listeners: list[Callable[[Checkpoint], None]] = []
        self._membership_timer: PeriodicTimer | None = None
        self.checkpoint_manager: CheckpointManager | None = None
        self.membership_manager: MembershipManager | None = None
        if membership is not None and checkpoint is None:
            raise ProtocolError(
                "membership requires checkpointing: leases are judged "
                "against (and renewed by) checkpoint shares"
            )
        if membership is not None:
            self.membership_manager = MembershipManager(
                client_id,
                num_clients,
                signer,
                membership,
                tracker=self.tracker,
                delta=delta,
                send_share=self._broadcast_epoch_share,
                send_announce=self._send_epoch_announce,
                request_rejoin=self._request_rejoin,
                on_epoch=self._epoch_installed,
                on_fail=self._fail_faust,
            )
        if checkpoint is not None:
            self.checkpoint_manager = CheckpointManager(
                client_id,
                num_clients,
                signer,
                checkpoint,
                send_share=self._broadcast_checkpoint_share,
                send_server=self._send_server,
                on_install=self._checkpoint_installed,
                on_fail=self._fail_faust,
                membership=self.membership_manager,
                clock=lambda: self.now,
            )
        if self.membership_manager is not None:
            self.membership_manager.bind(self.checkpoint_manager)

    # ---------------------------------------------------------------- #
    # Wiring
    # ---------------------------------------------------------------- #

    def add_stable_listener(
        self, listener: Callable[[tuple[int, ...]], None]
    ) -> None:
        """Invoke ``listener(W)`` on every ``stable_i(W)`` notification."""
        self._stable_listeners.append(listener)

    def add_checkpoint_listener(
        self, listener: Callable[[Checkpoint], None]
    ) -> None:
        """Invoke ``listener(checkpoint)`` on every installed checkpoint."""
        self._checkpoint_listeners.append(listener)

    def add_failure_listener(self, listener: Callable[[str], None]) -> None:
        """Invoke ``listener(reason)`` on the (single) ``fail_i`` output.

        Registers at the FAUST layer, which subsumes USTOR-level
        detections: every local ``fail_i`` flows through
        :meth:`_fail_faust` exactly once."""
        self._faust_fail_listeners.append(listener)

    def start(self) -> None:
        """Arm the periodic machinery (after binding to scheduler/network)."""
        if self._enable_dummy and self._dummy_timer is None:
            self._dummy_timer = PeriodicTimer(
                self.scheduler,
                self._dummy_period,
                self._dummy_tick,
                jitter=0.2,
            )
            self._dummy_timer.start()
        if self._enable_probes and self._probe_timer is None:
            self._probe_timer = PeriodicTimer(
                self.scheduler,
                self._probe_period,
                self._probe_tick,
                jitter=0.2,
            )
            self._probe_timer.start()
        if (
            self.membership_manager is not None
            and self._membership_timer is None
        ):
            # Deliberately jitter-free: a fault-free membership-on run
            # must draw exactly the same RNG stream as a membership-off
            # run (bit-identical equivalence), and the tick itself sends
            # nothing unless somebody is blocking the chain.
            self._membership_timer = PeriodicTimer(
                self.scheduler,
                self.membership_manager.policy.check_period,
                self._membership_tick,
                jitter=0.0,
            )
            self._membership_timer.start()

    def stop_timers(self) -> None:
        if self._dummy_timer is not None:
            self._dummy_timer.stop()
        if self._probe_timer is not None:
            self._probe_timer.stop()
        if self._membership_timer is not None:
            self._membership_timer.stop()

    def enable_background(self, dummy_reads: bool = True, probes: bool = True) -> None:
        """(Re)enable the periodic machinery — used by scenarios that start
        a client quiet and wake its background activity later."""
        self._enable_dummy = dummy_reads
        self._enable_probes = probes
        self.start()

    def pause(self) -> None:
        """Model a client going offline/asleep: background activity stops.

        The client remains correct (it will resume) — contrast with
        :meth:`crash`.  Going *away* is this plus deferred offline mail:
        :meth:`repro.sim.faults.FaultInjector.away` does both.
        """
        if self._dummy_timer is not None:
            self._dummy_timer.stop()
            self._dummy_timer = None
        if self._probe_timer is not None:
            self._probe_timer.stop()
            self._probe_timer = None
        if self._membership_timer is not None:
            self._membership_timer.stop()
            self._membership_timer = None

    def resume(self) -> None:
        """Wake up after :meth:`pause`."""
        self.start()

    @property
    def halt_reason(self) -> str | None:
        """Why :attr:`halted`: this layer's ``fail`` reason (which wraps a
        USTOR detection), else ``"crashed"``; ``None`` while up."""
        return self.faust_fail_reason or super().halt_reason

    # ---------------------------------------------------------------- #
    # The application-facing operations (queued; responses carry t)
    # ---------------------------------------------------------------- #

    def write(
        self, value: Value, callback: Callable[[OpOutcome], None] | None = None
    ) -> None:
        if not isinstance(value, bytes):
            raise ProtocolError("register values are bytes")
        self._enqueue(OpKind.WRITE, self._id, value, callback)

    def read(
        self,
        register: RegisterId,
        callback: Callable[[OpOutcome], None] | None = None,
    ) -> None:
        if not 0 <= register < self._n:
            raise ProtocolError(f"register {register} out of range")
        self._enqueue(OpKind.READ, register, None, callback)

    def _enqueue(self, kind, register, value, callback) -> None:
        if self.faust_failed or self.failed:
            raise ProtocolError(f"{self.name} has failed and halted")
        if self.crashed:
            raise ProtocolError(f"{self.name} has crashed")
        self._queue.append((kind, register, value, callback))
        self._pump()

    def _pump(self) -> None:
        if self.busy or not self._queue or self.failed or self.crashed:
            return
        kind, register, value, callback = self._queue.popleft()

        def completed(outcome: OpOutcome, _cb=callback) -> None:
            self._operation_completed(outcome, _cb, dummy=False)

        if kind is OpKind.WRITE:
            super().write(value, completed)
        else:
            super().read(register, completed)

    @property
    def idle(self) -> bool:
        """No user operation in flight or queued."""
        return not self.busy and not self._queue

    # ---------------------------------------------------------------- #
    # Version intake and notifications
    # ---------------------------------------------------------------- #

    def _operation_completed(self, outcome: OpOutcome, callback, dummy: bool) -> None:
        if not dummy:
            self.user_operations_completed += 1
        # My own committed version.
        self._absorb(self._id, outcome.version)
        # The writer's version returned by a read.
        if outcome.kind is OpKind.READ and outcome.reader_version is not None:
            self._absorb(outcome.register, outcome.reader_version)
        if callback is not None and not self.faust_failed:
            callback(outcome)
        self._pump()

    def _absorb(self, source: ClientId, version) -> None:
        if self.faust_failed:
            return
        result = self.tracker.absorb(source, version, self.now)
        if result.incomparable:
            self._fail_faust(
                f"version received from {client_name(source)} is incomparable "
                f"with the known maximum (forking evidence)"
            )
            return
        if result.stability_advanced:
            self._notify_stable()
        if result.updated and self.checkpoint_manager is not None:
            self.checkpoint_manager.on_stability(self._checkpoint_stable())

    def _checkpoint_stable(self) -> tuple[int, ...]:
        """The cut the checkpoint protocol folds: epoch-scoped if any.

        With membership on, stability is taken over the current epoch's
        member rows only (an evicted client's frozen row must not pin
        the cut); identical to the all-rows cut while every client is a
        member.
        """
        manager = self.membership_manager
        if manager is not None:
            return self.tracker.stable_vector(members=manager.members)
        return self.tracker.stable_vector()

    def _notify_stable(self) -> None:
        cut = self.tracker.stability_cut()
        self.stable_notifications.append((self.now, cut))
        self.stable_notifications_total += 1
        trace = self.network.trace
        if trace is not None:
            trace.note(self.now, self.name, "stable", cut)
        for listener in list(self._stable_listeners):
            listener(cut)

    # ---------------------------------------------------------------- #
    # Periodic machinery
    # ---------------------------------------------------------------- #

    def _dummy_tick(self) -> None:
        if self.faust_failed or self.failed or self.crashed or not self.idle:
            return
        register = self._next_dummy_register
        self._next_dummy_register = (register + 1) % self._n
        self.dummy_reads_issued += 1

        def completed(outcome: OpOutcome) -> None:
            self._operation_completed(outcome, None, dummy=True)

        # Bypass the queue: dummy reads run only when the application is idle.
        UstorClient.read(self, register, completed)

    def _probe_tick(self) -> None:
        if self.faust_failed or self.crashed:
            return
        now = self.now
        for peer in self.tracker.stale_peers(now, self.delta):
            if now - self._last_probe_sent[peer] <= self.delta:
                continue  # an answer to the previous probe may be in flight
            self._last_probe_sent[peer] = now
            self._offline.send(
                self.name, self._peer_names[peer], ProbeMessage(sender=self._id)
            )

    def _membership_tick(self) -> None:
        if self.faust_failed or self.crashed or self.membership_manager is None:
            return
        self.membership_manager.on_tick(self.now)

    # ---------------------------------------------------------------- #
    # Message dispatch
    # ---------------------------------------------------------------- #

    def on_message(self, src: str, message) -> None:
        if isinstance(message, ReplyMessage):
            super().on_message(src, message)
            return
        if self.faust_failed:
            return
        if isinstance(message, ProbeMessage):
            self._handle_probe(message)
            self._note_membership_contact(message.sender)
        elif isinstance(message, VersionMessage):
            self._absorb(message.sender, message.version)
            self._note_membership_contact(message.sender)
        elif isinstance(message, CheckpointShareMessage):
            if self.checkpoint_manager is not None:
                self.checkpoint_manager.on_share(message)
        elif isinstance(message, EpochShareMessage):
            if self.membership_manager is not None:
                self.membership_manager.on_share(message)
        elif isinstance(message, EpochAnnounceMessage):
            if self.membership_manager is not None:
                self.membership_manager.on_announce(message)
        elif isinstance(message, FailureMessage):
            # The paper's third detection condition: another client holds
            # proof.  Re-alerting is harmless (each client alerts at most
            # once) and makes propagation robust to client crashes.
            self._fail_faust(
                f"FAILURE alert from {client_name(message.sender)}: {message.reason}"
            )

    def _handle_probe(self, message: ProbeMessage) -> None:
        self._offline.send(
            self.name,
            client_name(message.sender),
            VersionMessage(sender=self._id, version=self.tracker.max_version),
        )

    # ---------------------------------------------------------------- #
    # Checkpointing (bounded state)
    # ---------------------------------------------------------------- #

    def _broadcast_checkpoint_share(self, share: CheckpointShareMessage) -> None:
        for peer in range(self._n):
            if peer == self._id:
                continue
            self._offline.send(self.name, self._peer_names[peer], share)

    def _checkpoint_installed(self, checkpoint: Checkpoint) -> None:
        """Prune local state behind an installed checkpoint.

        Only *own* bookkeeping goes: view-history records at or below my
        entry of the cut (their operations are stable everywhere, so no
        future comparability check needs them) and the accumulated
        stability-notification log.  The version vectors in the tracker —
        what rollback/fork detection actually compares against — are O(n)
        and are never pruned.
        """
        trace = self.network.trace
        if trace is not None:
            trace.note(
                self.now, self.name, "checkpoint", (checkpoint.seq, checkpoint.cut)
            )
        floor = checkpoint.cut[self._id]
        stale = [key for key in self.vh_records if key[1] <= floor]
        for key in stale:
            del self.vh_records[key]
        keep = self.checkpoint_manager.policy.keep_tail
        if len(self.stable_notifications) > keep:
            del self.stable_notifications[:-keep]
        for listener in list(self._checkpoint_listeners):
            listener(checkpoint)

    # ---------------------------------------------------------------- #
    # Membership (lease-based epochs)
    # ---------------------------------------------------------------- #

    def _note_membership_contact(self, sender: ClientId) -> None:
        """Probe/version traffic from an evicted client: sponsor a rejoin."""
        if self.membership_manager is not None:
            self.membership_manager.note_contact(sender)

    def _broadcast_epoch_share(self, share: EpochShareMessage) -> None:
        # Epoch shares go to *every* client, evicted ones included —
        # they keep tracking the membership chain while out.
        for peer in range(self._n):
            if peer == self._id:
                continue
            self._offline.send(self.name, self._peer_names[peer], share)

    def _send_epoch_announce(
        self, peer: ClientId, announce: EpochAnnounceMessage
    ) -> None:
        self._offline.send(self.name, self._peer_names[peer], announce)

    def _request_rejoin(self, peer: ClientId) -> None:
        """As an evictee: make contact with a member (a VERSION suffices)."""
        if self.crashed:
            return
        self._offline.send(
            self.name,
            self._peer_names[peer],
            VersionMessage(sender=self._id, version=self.tracker.max_version),
        )

    def _epoch_installed(self, epoch: Epoch) -> None:
        """Act on a newly installed membership epoch."""
        trace = self.network.trace
        if trace is not None:
            trace.note(
                self.now, self.name, "epoch", (epoch.epoch, epoch.members)
            )
        if self.checkpoint_manager is not None:
            self.checkpoint_manager.on_members_changed()
            # Re-feed stability: the member-scoped cut may jump the
            # moment a frozen row leaves the min.
            self.checkpoint_manager.on_stability(self._checkpoint_stable())

    # ---------------------------------------------------------------- #
    # fail_i
    # ---------------------------------------------------------------- #

    def _ustor_failed(self, reason: str) -> None:
        self._fail_faust(f"USTOR detection: {reason}")

    def _fail_faust(self, reason: str, alert_others: bool = True) -> None:
        if self.faust_failed:
            return
        self.faust_failed = True
        self.faust_fail_reason = reason
        self.faust_fail_time = self.now
        self.halt_protocol()
        self.stop_timers()
        trace = self.network.trace
        if trace is not None:
            trace.note(self.now, self.name, "faust-fail", reason)
        if alert_others:
            for peer in range(self._n):
                if peer == self._id:
                    continue
                self._offline.send(
                    self.name,
                    self._peer_names[peer],
                    FailureMessage(sender=self._id, reason=reason),
                )
        for listener in list(self._faust_fail_listeners):
            listener(reason)

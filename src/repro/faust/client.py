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
monotonically).  User operations wait in the client's one queue
(:class:`~repro.sim.process.ClientNode`), as every client's do; a dummy
read starts only when that queue is empty and nothing is in flight.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.common.errors import ProtocolError
from repro.common.types import ClientId, OpKind, client_name
from repro.crypto.keystore import ClientSigner
from repro.history.recorder import HistoryRecorder
from repro.sim.offline import OfflineChannel
from repro.sim.timers import PeriodicTimer
from repro.ustor.client import OpOutcome, UstorClient
from repro.ustor.messages import ReplyMessage
from repro.faust.checkpoint import Checkpoint, CheckpointManager, CheckpointPolicy
from repro.faust.membership import MembershipManager, MembershipPolicy
from repro.faust.messages import (
    CheckpointShareMessage,
    FailureMessage,
    ProbeMessage,
    RejoinMessage,
    VersionMessage,
)
from repro.faust.stability import StabilityLog, StabilityTracker


class FaustClient(UstorClient):
    """Client ``C_i`` of the fail-aware untrusted storage service."""

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

        self._offline = offline
        self._dummy_timer: PeriodicTimer | None = None
        self._probe_timer: PeriodicTimer | None = None
        self._next_dummy_register = (client_id + 1) % num_clients
        self._last_probe_sent: list[float] = [float("-inf")] * num_clients
        self._peer_names = tuple(client_name(peer) for peer in range(num_clients))

        #: (time, W) of the stable_i notifications, for tests/experiments.
        #: With checkpointing on, installed checkpoints trim this log
        #: (bounded state); the deployment's notification hub is their
        #: full record.
        self.stable_notifications = StabilityLog(num_clients)
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
        if checkpoint is not None:
            self.checkpoint_manager = CheckpointManager(
                client_id,
                num_clients,
                signer,
                checkpoint,
                send_share=self._broadcast_checkpoint_share,
                send_server=self._send_server,
                send_rejoin=self._send_rejoin,
                on_install=self._checkpoint_installed,
                on_fail=partial(self._fail, ustor=False),
                clock=lambda: self.now,
            )
        if membership is not None:
            self.membership_manager = MembershipManager(
                client_id,
                num_clients,
                membership,
                chain=self.checkpoint_manager,
                tracker=self.tracker,
                delta=delta,
            )

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

    # ---------------------------------------------------------------- #
    # Version intake and notifications
    # ---------------------------------------------------------------- #

    def _completed(self, callback, outcome: OpOutcome) -> None:
        """Absorb the versions an operation returned, then return it."""
        # My own committed version.
        self._absorb(self._id, outcome.version)
        # The writer's version returned by a read.
        if outcome.kind is OpKind.READ and outcome.reader_version is not None:
            self._absorb(outcome.register, outcome.reader_version)
        super()._completed(callback, outcome)

    def _absorb(self, source: ClientId, version) -> None:
        if self._failed:
            return
        result = self.tracker.absorb(source, version, self.now)
        if result.incomparable:
            self._fail(
                f"version received from {client_name(source)} is incomparable "
                f"with the known maximum (forking evidence)",
                ustor=False,
            )
            return
        if result.stability_advanced:
            self._notify_stable()
        if result.updated and self.checkpoint_manager is not None:
            self.checkpoint_manager.on_stability(self._checkpoint_stable())

    def _checkpoint_stable(self) -> tuple[int, ...]:
        """The cut the checkpoint protocol folds: member-scoped if any.

        With membership on, stability is taken over the installed link's
        member rows only (an evicted client's frozen row must not pin
        the cut); identical to the all-rows cut while every client is a
        member.
        """
        if self.membership_manager is not None:
            return self.tracker.stable_vector(
                members=self.checkpoint_manager.installed.members
            )
        return self.tracker.stable_vector()

    def _notify_stable(self) -> None:
        cut = self.tracker.stability_cut()
        self.stable_notifications.append(self.now, cut)
        for listener in list(self._stable_listeners):
            listener(cut)

    # ---------------------------------------------------------------- #
    # Periodic machinery
    # ---------------------------------------------------------------- #

    def _dummy_tick(self) -> None:
        if self._failed or self.crashed or not self.idle:
            return
        register = self._next_dummy_register
        self._next_dummy_register = (register + 1) % self._n
        self.dummy_reads_issued += 1
        # Bypass the queue: dummy reads run only when the application is
        # idle.  The value is never used, so MEM[j] may come as its digest.
        completed = partial(self._completed, None)
        self._invoke(OpKind.READ, register, None, completed, digest_only=True)

    def _probe_tick(self) -> None:
        if self._failed or self.crashed:
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
        if self._failed or self.crashed or self.membership_manager is None:
            return
        self.membership_manager.on_tick(self.now)

    # ---------------------------------------------------------------- #
    # Message dispatch
    # ---------------------------------------------------------------- #

    def on_message(self, src: str, message) -> None:
        if isinstance(message, ReplyMessage):
            super().on_message(src, message)
            return
        if self._failed:
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
        elif isinstance(message, RejoinMessage):
            if self.checkpoint_manager is not None:
                self.checkpoint_manager.on_rejoin(message)
        elif isinstance(message, FailureMessage):
            # The paper's third detection condition: another client holds
            # proof.  Re-alerting is harmless (each client alerts at most
            # once) and makes propagation robust to client crashes.
            self._fail(
                f"FAILURE alert from {client_name(message.sender)}: {message.reason}",
                ustor=False,
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
        self.vh_records.trim(checkpoint.cut[self._id])
        self.stable_notifications.keep_last(self.checkpoint_manager.policy.keep_tail)
        for listener in list(self._checkpoint_listeners):
            listener(checkpoint)

    # ---------------------------------------------------------------- #
    # Membership (the lease ledger)
    # ---------------------------------------------------------------- #

    def _note_membership_contact(self, sender: ClientId) -> None:
        """Probe/version traffic from an evicted client: sponsor a rejoin."""
        if self.membership_manager is not None:
            self.membership_manager.note_contact(sender)

    def _send_rejoin(self, peer: ClientId, message: RejoinMessage) -> None:
        self._offline.send(self.name, self._peer_names[peer], message)

    # ---------------------------------------------------------------- #
    # fail_i
    # ---------------------------------------------------------------- #

    def _fail(self, reason: str, *, ustor: bool = True) -> bool:
        """Output ``fail_i``.  A check of Algorithm 1 (the USTOR layer
        under this one) passes its own reason, which reads ``"USTOR
        detection: <reason>"``; this layer's detections — forking
        evidence, a FAILURE alert, the checkpoint and membership
        managers' proof — pass ``ustor=False``."""
        return super()._fail(f"USTOR detection: {reason}" if ustor else reason)

    def _halt(self, reason: str) -> None:
        """Stop the timers and alert every peer, before any listener
        hears of ``fail_i``."""
        self.stop_timers()
        for peer in range(self._n):
            if peer == self._id:
                continue
            self._offline.send(
                self.name,
                self._peer_names[peer],
                FailureMessage(sender=self._id, reason=reason),
            )

"""A trusted monotonic counter bound to each replica's REPLYs.

The one attack the wire protocol cannot *prevent* is the rollback: a
server that restarts from a stale-but-internally-consistent state serves
perfectly well-formed REPLYs, and detection has to wait until the rolled
state contradicts some client's committed version (Algorithm 1, lines
36/43/51).  A small trusted component — a monotonic counter the
untrusted server cannot rewind — collapses that window to O(1), by the
state-continuity argument of Memoir/TrInc-style systems:

* the server's durable state records its own **position in the SUBMIT
  stream** (``ServerState.submits_applied`` — incremented on every
  apply, captured by snapshots, reconstructed by WAL replay);
* on every SUBMIT the server presents that position to the counter;
  the counter increments and attests **both** numbers — its own fresh
  value and the state-reported position — under a MAC the server never
  holds;
* a memoryless client checks ``attestation.value ==
  attestation.state_value`` on each REPLY, in O(1).

For a server whose recoveries are honest the two march in lockstep: one
counter step per applied SUBMIT.  A rollback breaks the lockstep
*permanently*: the restored state under-reports ``submits_applied`` by
exactly the operations the rollback discarded, and nothing heals it —
client COMMITs rebuild the committed version vector and prune the
pending list, but the state's stream position only ever advances by one
per *newly applied* SUBMIT, so the deficit against the durable counter
is carried forward forever.  The first post-rollback REPLY (and every
one after it) arrives with the counter ahead of the state it vouches
for — caught without cross-client communication and without waiting for
a version conflict.

The threat model is the crash-recovery adversary (the realistic one: a
server that "restores yesterday's backup" and then runs honest code over
the stale state).  A server that additionally *lies* to its own trusted
component about the state position forfeits this O(1) detection — but it
is then actively forging, and the protocol's signature checks and the
quorum's REPLY comparison (dataclass ``==``) own that case.

Authenticity is an HMAC under a key shared between the counter (the
trusted component) and the clients — the *server* never holds it, so it
can neither mint attestations for forged positions nor strip/replay them
undetected: each attestation is bound to the client's own SUBMIT
signature, which the client compares against the operation it actually
has in flight.

The counter is durable: its value survives every crash of the server
process around it (the hardware-monotonic model; ``state_path`` keeps it
on disk for real server processes).  A trusted component must be at
least as durable as the state it vouches for: one that forgot its value
on restart would make an honest recovery indistinguishable from the
attack.

The server logs a SUBMIT before the counter persists its step, so a
process killed between the two restarts with its state exactly one
SUBMIT ahead of the counter file.  :meth:`MonotonicCounter.recover`
closes that window when the server binds its counter at process start:
it adopts that one step and nothing else.  A rollback leaves the state
*behind* the counter, which no adoption touches, so it is still convicted.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import os
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, StorageError
from repro.ustor.messages import INT_BYTES

#: Attestation MACs are SHA-256 HMACs.
COUNTER_MAC_BYTES = 32


def derive_counter_key(counter_id: str) -> bytes:
    """The MAC key shared by counter ``counter_id`` and the clients.

    Deterministic derivation models the pre-shared key of the trust
    anchor (provisioned out of band, like the clients' signing keys);
    the untrusted server is *not* given it.
    """
    return hashlib.sha256(
        b"repro.replica.counter-key\x00" + counter_id.encode("utf-8")
    ).digest()


def ops_accounted(reply) -> int:
    """How many SUBMITs the state behind ``reply`` has ever absorbed.

    Sum of the committed timestamp vector plus the still-pending
    invocations: each SUBMIT adds one pending entry, and a dominating
    COMMIT moves entries from pending into the vector one-for-one (a
    non-dominating COMMIT touches neither) — so the total is invariant
    under COMMITs and counts SUBMITs exactly.
    """
    return sum(reply.last_version.version.vector) + len(reply.pending)


@dataclass(frozen=True)
class CounterAttestation:
    """One attested counter reading, bound to one SUBMIT.

    ``binding`` is the submitting client's SUBMIT signature — a value
    the client knows and the server cannot forge — so a replayed
    attestation from an earlier operation fails the binding check at
    the one client able to judge it.  ``state_value`` is the stream
    position the server's durable state reported when the attestation
    was minted (``ServerState.submits_applied`` after the apply); the
    MAC covers it, so the server cannot adjust it after the fact.
    """

    counter_id: str
    value: int
    state_value: int
    binding: bytes
    mac: bytes

    def wire_size(self) -> int:
        """Approximate serialized size (for the message-size accounting)."""
        return (
            len(self.counter_id.encode("utf-8"))
            + 2 * INT_BYTES
            + len(self.binding)
            + len(self.mac)
        )


def _mac(
    key: bytes, counter_id: str, value: int, state_value: int, binding: bytes
) -> bytes:
    payload = (
        counter_id.encode("utf-8")
        + b"\x00"
        + value.to_bytes(INT_BYTES, "big")
        + state_value.to_bytes(INT_BYTES, "big")
        + binding
    )
    return hmac_mod.new(key, payload, hashlib.sha256).digest()


class MonotonicCounter:
    """The trusted component: an attested counter the server cannot rewind.

    Its value survives every crash of the server process around it.
    ``state_path`` optionally persists the value to disk so real (TCP)
    server processes keep it across process restarts.
    """

    def __init__(self, counter_id: str, state_path: str | None = None) -> None:
        if not counter_id:
            raise ConfigurationError("a counter needs a non-empty id")
        self.counter_id = counter_id
        self._key = derive_counter_key(counter_id)
        self._state_path = state_path
        self._value = 0
        #: Attestations issued.
        self.attestations = 0
        if state_path is not None and os.path.exists(state_path):
            self._value = self._load(state_path)

    @property
    def value(self) -> int:
        """The current counter value (number of attestations ever issued)."""
        return self._value

    def attest(self, binding: bytes, state_value: int) -> CounterAttestation:
        """Increment and attest: one monotonic step per SUBMIT applied.

        ``state_value`` is the stream position the server's state claims
        *after* applying the SUBMIT (``ServerState.submits_applied``);
        both numbers go under the MAC so the pair is tamper-evident.
        """
        self._value += 1
        self.attestations += 1
        if self._state_path is not None:
            self._persist()
        return CounterAttestation(
            counter_id=self.counter_id,
            value=self._value,
            state_value=state_value,
            binding=binding,
            mac=_mac(self._key, self.counter_id, self._value, state_value, binding),
        )

    def recover(self, state_value: int) -> None:
        """Adopt a recovered state exactly one SUBMIT ahead of the counter.

        ``state_value`` is the position of the state the server recovered
        at process start.  The server appends a SUBMIT to its log before
        :meth:`attest` persists the step, so a kill between the two
        leaves the state one ahead; that step is the only one adopted.
        A state behind the counter (a rollback) or further ahead leaves
        the counter as it is, for the verifier to judge.
        """
        if state_value == self._value + 1:
            self._value = state_value
            if self._state_path is not None:
                self._persist()

    # -- persistence (real server processes) ---------------------------- #

    def _persist(self) -> None:
        tmp = self._state_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(f"{self.counter_id} {self._value}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._state_path)

    def _load(self, path: str) -> int:
        with open(path, "r", encoding="utf-8") as handle:
            fields = handle.read().split()
        if len(fields) != 2 or fields[0] != self.counter_id:
            raise StorageError(
                f"counter state file {path!r} does not belong to counter "
                f"{self.counter_id!r}"
            )
        value = int(fields[1])
        if value < 0:
            raise StorageError(f"counter state file {path!r} holds {value}")
        return value


class CounterVerifier:
    """The client-side O(1) check over each attested REPLY.

    Memoryless about history except for one integer per counter (the
    last value seen, for strict monotonicity across this client's own
    REPLY stream).  Returns a human-readable violation or ``None``.
    """

    def __init__(self) -> None:
        self._last_seen: dict[str, int] = {}
        #: MAC key per counter id, derived once (one per replica judged).
        self._keys: dict[str, bytes] = {}

    def check(self, counter_id: str, reply, binding: bytes) -> str | None:
        """Judge one REPLY from the replica owning ``counter_id``.

        ``binding`` is this client's SUBMIT signature for the operation
        the REPLY answers.  Checks, in order: the attestation exists, is
        MAC-authentic, is bound to this operation, moved strictly
        forward, and its counter value matches the stream position the
        server's durable state vouched for.
        """
        attestation = getattr(reply, "attestation", None)
        if attestation is None:
            return "REPLY carries no counter attestation"
        if attestation.counter_id != counter_id:
            return (
                f"attestation names counter {attestation.counter_id!r}, "
                f"expected {counter_id!r}"
            )
        key = self._keys.get(counter_id)
        if key is None:
            key = self._keys[counter_id] = derive_counter_key(counter_id)
        expected_mac = _mac(
            key,
            counter_id,
            attestation.value,
            attestation.state_value,
            attestation.binding,
        )
        if not hmac_mod.compare_digest(expected_mac, attestation.mac):
            return "attestation MAC is not authentic"
        if attestation.binding != binding:
            return "attestation is bound to a different operation (replayed)"
        last = self._last_seen.get(counter_id, 0)
        if attestation.value <= last:
            return (
                f"counter went backwards: attested {attestation.value} "
                f"after {last}"
            )
        # Counter and state each advance exactly once per applied SUBMIT;
        # a rollback rewinds the state's position but never the counter,
        # so the first divergence convicts.
        if attestation.value != attestation.state_value:
            return (
                f"counter at {attestation.value} but the state vouches for "
                f"{attestation.state_value} applied SUBMITs — the state "
                f"{'was rolled back' if attestation.value > attestation.state_value else 'ran ahead of the counter'}"
            )
        self._last_seen[counter_id] = attestation.value
        return None

"""A multi-writer key-value store on top of fail-aware untrusted storage.

The paper's functionality is n single-writer registers; real applications
want a shared map that *anyone* can update.  This layer shows how to build
one — the construction the paper's Section 1 examples (wikis, shared
documents) imply:

* each client serialises its own update log into **its own register**
  (single-writer, so USTOR applies unchanged);
* the merged map view orders all updates by ``(timestamp, client)`` —
  Lamport's classic total order on the per-client operation timestamps
  already maintained by the protocol — with last-writer-wins per key;
* reading merges the logs the client currently knows, which inherits the
  layer-below guarantees: linearizable under a correct server, weakly
  fork-linearizable always, fail-aware through FAUST.

The store is deliberately simple (full-log serialisation per write); the
point is the *composition*, exercised by tests and the shopping-list
example, not storage engineering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ProtocolError
from repro.common.types import BOTTOM, ClientId


@dataclass(frozen=True)
class KvUpdate:
    """One update in a client's log."""

    key: str
    value: Any  # JSON-serialisable; None encodes deletion
    timestamp: int  # Lamport clock at the writer when the update was made
    writer: ClientId

    def order_key(self) -> tuple[int, int]:
        """Lamport order: by logical timestamp, ties broken by writer id."""
        return (self.timestamp, self.writer)


def _serialize_log(log: list[KvUpdate]) -> bytes:
    return json.dumps(
        [[u.key, u.value, u.timestamp, u.writer] for u in log],
        separators=(",", ":"),
    ).encode()


def _deserialize_log(raw: bytes) -> list[KvUpdate]:
    try:
        entries = json.loads(raw.decode())
        return [
            KvUpdate(key=k, value=v, timestamp=t, writer=w) for k, v, t, w in entries
        ]
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed key-value log: {exc}") from exc


class KvStore:
    """A per-client handle to the shared map."""

    def __init__(self, system, client_id: ClientId) -> None:
        """``system`` is an opened deployment (``open_system``) or one
        built directly; the store uses its cached session for
        ``client_id``."""
        self._system = system
        self._client_id = client_id
        self._session = system.session(client_id)
        self._log: list[KvUpdate] = []
        self._clock = 0  # Lamport clock, advanced by updates and merges

    # ------------------------------------------------------------------ #
    # Updates (writes to the client's own register)
    # ------------------------------------------------------------------ #

    def put(self, key: str, value: Any) -> int:
        """Set ``key``; returns the underlying write's USTOR timestamp
        (usable with :meth:`wait_until_stable`)."""
        return self._append(key, value)

    def delete(self, key: str) -> int:
        """Remove ``key`` (a tombstone in the log)."""
        return self._append(key, None)

    def _append(self, key: str, value: Any) -> int:
        self._clock += 1
        update = KvUpdate(
            key=key, value=value, timestamp=self._clock, writer=self._client_id
        )
        self._log.append(update)
        return self._session.write_sync(_serialize_log(self._log))

    # ------------------------------------------------------------------ #
    # Reads (merge of all logs)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, Any]:
        """Read every register and merge: last writer (in Lamport order)
        wins per key.  Merging also advances the local Lamport clock, so
        later local updates order after everything observed."""
        updates: list[KvUpdate] = []
        for register in range(len(self._system.clients)):
            raw, _t = self._session.read_sync(register)
            if raw is BOTTOM:
                continue
            updates.extend(_deserialize_log(raw))
        updates.sort(key=KvUpdate.order_key)
        if updates:
            self._clock = max(self._clock, updates[-1].timestamp)
        merged: dict[str, Any] = {}
        for update in updates:
            if update.value is None:
                merged.pop(update.key, None)
            else:
                merged[update.key] = update.value
        return merged

    def get(self, key: str, default: Any = None) -> Any:
        return self.snapshot().get(key, default)

    # ------------------------------------------------------------------ #
    # Fail-awareness passthrough
    # ------------------------------------------------------------------ #

    def wait_until_stable(self, timestamp: int, timeout: float | None = None) -> bool:
        """Block until the update with ``timestamp`` is stable w.r.t. all."""
        return self._session.wait_for_stability(timestamp, timeout=timeout)

    @property
    def failed(self) -> bool:
        return self._session.failed

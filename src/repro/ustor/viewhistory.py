"""Reconstruction of USTOR view histories for offline analysis.

``VH(o)`` (Section 5) is defined recursively from the REPLY message each
operation received:

    VH(o) = omega_1 .. omega_m || o                 if V^c = 0^n
    VH(o) = VH(o_c) || omega_1 .. omega_m || o      otherwise

Clients record, per operation, the identity ``(c, V^c[c])`` of the parent
operation ``o_c`` and the ``(client, timestamp)`` pairs of the concurrent
operations in ``L`` (:class:`~repro.ustor.client.ViewHistoryRecord`),
packed in each client's :class:`~repro.ustor.client.ViewHistoryLog`.
This module replays those records into concrete operation sequences and
assembles the per-client views that the paper's correctness argument
exhibits — the inputs to
:func:`repro.consistency.validate_weak_fork_linearizability`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.common.errors import ProtocolError
from repro.common.types import ClientId
from repro.history.events import Operation
from repro.history.history import History
from repro.ustor.client import UstorClient, ViewHistoryRecord

#: An operation identity as USTOR sees it: (client, timestamp).
OpKey = tuple[ClientId, int]


def merge_vh_records(
    clients: Iterable[UstorClient],
) -> dict[OpKey, ViewHistoryRecord]:
    """Union of all clients' view-history records, keyed by (client, ts)."""
    merged: dict[OpKey, ViewHistoryRecord] = {}
    for client in clients:
        merged.update(client.vh_records)
    return merged


def reconstruct_view_history(
    records: Mapping[OpKey, ViewHistoryRecord],
    op_key: OpKey,
) -> tuple[OpKey, ...]:
    """``VH(o)`` as a sequence of (client, timestamp) identities.

    One walk up the parent chain collects each record's segment
    ``omega_1 .. omega_m || o``; the segments, root first, are ``VH(o)``.
    Iterative: long histories — one record per operation of the run —
    would blow Python's recursion limit under the recursive definition.
    """
    segments: list[tuple[OpKey, ...]] = []
    key: OpKey | None = op_key
    while key is not None:
        try:
            record = records[key]
        except KeyError:
            raise ProtocolError(
                f"no view-history record for operation {key} — only operations "
                f"that completed updateVersion have one"
            ) from None
        segments.append(record.concurrent + (record.own,))
        key = record.parent
    return tuple(key for segment in reversed(segments) for key in segment)


def view_from_keys(history: History, keys: Iterable[OpKey]) -> list[Operation]:
    """Map VH identities onto recorded operations, building a view.

    Incomplete reads are omitted (Definition 1 lets each view complete
    them with whatever legal value, so dropping them preserves view-hood);
    incomplete writes are included as their ``+inf``-completed versions,
    matching :meth:`History.completed_for_checking`.
    """
    return _view(_available(history), keys)


def _available(history: History) -> dict[OpKey, Operation | None]:
    """Every recorded operation by its ``(client, timestamp)``, mapped to
    its prepared version — ``None`` for an incomplete read, which
    :meth:`History.completed_for_checking` drops."""
    prepared = {op.op_id: op for op in history.completed_for_checking()}
    return {
        (op.client, op.timestamp): prepared.get(op.op_id)
        for op in history
        if op.timestamp is not None
    }


def _view(
    available: Mapping[OpKey, Operation | None],
    keys: Iterable[OpKey],
) -> list[Operation]:
    view: list[Operation] = []
    for key in keys:
        if key not in available:
            raise ProtocolError(
                f"view history mentions operation {key} that was never recorded"
            )
        op = available[key]
        if op is None:
            continue  # an incomplete read, dropped from the prepared history
        view.append(op)
    return view


def build_client_views(
    history: History,
    clients: Iterable[UstorClient],
    view_clients: Iterable[ClientId] | None = None,
) -> dict[ClientId, list[Operation]]:
    """Per-client views from each client's *last completed* operation.

    ``clients`` supplies the view-history records and should include
    *every* client of the run — even crashed ones, since a survivor's view
    history may pass through an operation a crashed client committed.
    ``view_clients`` restricts whose views are built (default: all).
    Clients that completed no operations get no view (they impose no
    constraints: an empty view is trivially valid).  These views are the
    constructive witnesses for weak fork-linearizability of the run.
    """
    client_list = list(clients)
    records = merge_vh_records(client_list)
    wanted = set(view_clients) if view_clients is not None else None
    available = _available(history)
    views: dict[ClientId, list[Operation]] = {}
    for client in client_list:
        if wanted is not None and client.client_id not in wanted:
            continue
        if not client.vh_records:
            continue
        keys = reconstruct_view_history(records, max(client.vh_records))
        views[client.client_id] = _view(available, keys)
    return views

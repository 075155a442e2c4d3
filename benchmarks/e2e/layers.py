"""Per-layer metrics of one traced pass, from span aggregates and counters.

Client spans are the measured phase only (a snapshot delta) and divide by
measured ops; the traced TCP server's spans cover its whole life and
divide by every op it served, warm-up included.  A layer that runs in
both processes (``crypto``, ``common.encoding``, ``net``) reports the sum
of the two per-op figures: the CPU the whole deployment spends per op.

A metric is reported only where its layer ran: no span calls, no metric.
"""

from __future__ import annotations

#: metric stem -> span names whose calls / self time it sums.
SPAN_METRICS = {
    "common.encoding.encode": ("common.encoding.encode",),
    "common.encoding.decode": ("common.encoding.decode",),
    "crypto.sign": ("crypto.sign",),
    "crypto.verify": ("crypto.verify",),
    "crypto.hash": (
        "crypto.hash_values", "crypto.hash_bytes", "crypto.hash_register_value",
    ),
    "ustor.digests.extend": ("ustor.digests.extend",),
    "ustor.client.invoke": ("ustor.client.invoke",),
    "ustor.client.on_message": ("ustor.client.on_message",),
    "ustor.server.on_message": ("ustor.server.on_message",),
    "store.log": ("store.log",),
    "store.snapshot": ("store.snapshot",),
    "net.frame": ("net.frame",),
    "net.wire_codec": ("net.wire_codec",),
    "sim.scheduler": ("sim.scheduler",),
    "sim.network": ("sim.network", "sim.offline"),
    "faust.client": ("faust.client",),
    "faust.stability": ("faust.stability",),
    "faust.checkpoint": ("faust.checkpoint",),
    "faust.membership": ("faust.membership",),
    "consistency.audit": ("consistency.audit",),
    "history.recorder": ("history.recorder",),
    "replica.coordinator": (
        "replica.coordinator.begin_round", "replica.coordinator.absorb",
    ),
    "replica.counter": ("replica.counter",),
    "cluster.session": ("cluster.session",),
    "api.session": ("api.session",),
}

#: Stems that also report ``<stem>_calls_per_op``.  ``hash_values`` only
#: wraps ``hash_bytes``, so hash *computations* are the two leaf spans.
CALL_METRICS = {
    "common.encoding.encode": ("common.encoding.encode",),
    "common.encoding.decode": ("common.encoding.decode",),
    "crypto.sign": ("crypto.sign",),
    "crypto.verify": ("crypto.verify",),
    "crypto.hash": ("crypto.hash_bytes", "crypto.hash_register_value"),
    "ustor.digests.extend": ("ustor.digests.extend",),
}


def _per_op(snapshot: dict | None, ops: int) -> dict:
    """span name -> (calls per op, self us per op) for one process."""
    if not snapshot or not ops:
        return {}
    return {
        name: (calls / ops, self_ns / 1e3 / ops)
        for name, (calls, self_ns, _total) in snapshot["spans"].items()
        if calls
    }


def _ratio(stats: dict) -> float | None:
    looked_up = stats["hits"] + stats["misses"]
    return stats["hits"] / looked_up if looked_up else None


def layer_metrics(
    *,
    client: dict,
    server: dict | None,
    counts: dict,
    ops: int,
    served_ops: int,
    wall: float,
    client_cpu: float,
    server_cpu: float,
    wire_bytes: int,
) -> tuple[dict, dict]:
    """``(metrics, detail)``: the named per-layer metrics that apply, and
    the per-process span table they were derived from."""
    client_spans = _per_op(client, ops)
    server_spans = _per_op(server, served_ops)

    def both(names: tuple, field: int) -> float | None:
        found = [
            table[name][field]
            for table in (client_spans, server_spans)
            for name in names
            if name in table
        ]
        return sum(found) if found else None

    metrics: dict = {}
    for stem, names in SPAN_METRICS.items():
        metrics[f"{stem}_self_us_per_op"] = both(names, 1)
    for stem, names in CALL_METRICS.items():
        metrics[f"{stem}_calls_per_op"] = both(names, 0)
    metrics["faust.offline_msgs_per_op"] = both(("sim.offline",), 0)
    begun = both(("replica.coordinator.begin_round",), 0)
    if begun:
        metrics["replica.replies_per_round"] = (
            both(("replica.coordinator.absorb",), 0) / begun
        )

    # Counters the program already keeps (server-side ones come from the
    # traced server's dump over TCP, from the live objects on the simulator).
    server_counts = server["counts"] if server else counts
    cache = counts.get("verify_cache")
    if cache:
        metrics["crypto.verify_cache_hit_ratio"] = _ratio(cache)
    chain = [c["chain_cache"] for c in (counts, server_counts) if "chain_cache" in c]
    if chain:
        metrics["ustor.digests.chain_cache_hit_ratio"] = _ratio(
            {k: sum(c[k] for c in chain) for k in ("hits", "misses")}
        )
    # Counters cover the whole pass, so they divide by every op served.
    if "max_pending_len" in server_counts:
        denominator = served_ops
        metrics["ustor.server.max_pending_len"] = server_counts["max_pending_len"]
        metrics["store.wal_appends_per_op"] = server_counts["wal_appends"] / denominator
        metrics["store.wal_bytes_per_op"] = server_counts["wal_bytes"] / denominator
        metrics["store.snapshots_per_kop"] = (
            1000 * server_counts["snapshots"] / denominator
        )
        if server_counts["group_commit_batches"]:
            metrics["ustor.server.group_commit_records_mean"] = (
                server_counts["group_commit_records"]
                / server_counts["group_commit_batches"]
            )
    if "events" in counts:
        metrics["sim.events_per_op"] = counts["events"] / served_ops
        metrics["sim.messages_coalesced_per_op"] = counts["messages_coalesced"] / served_ops
    if counts.get("dummy_reads"):
        metrics["faust.dummy_reads_per_op"] = counts["dummy_reads"] / served_ops
    for name in ("checkpoints_installed", "resident_growth_ratio"):
        if counts.get(name) is not None:
            metrics[f"faust.{name}"] = counts[name]
    if "user_bytes_per_op" in counts:
        metrics["replica.wire_bytes_per_user_byte"] = (
            wire_bytes / ops / counts["user_bytes_per_op"]
        )
    if "frames" in counts:
        metrics["net.frames_per_op"] = counts["frames"] / served_ops
        metrics["net.client_cpu_us_per_op"] = client_cpu * 1e6 / ops
        metrics["net.server_cpu_us_per_op"] = server_cpu * 1e6 / ops
        metrics["net.client_idle_frac"] = max(0.0, 1.0 - client_cpu / wall)
        metrics["net.reconnects"] = counts["reconnects"]
        metrics["net.retransmissions"] = counts["retransmissions"]

    # Coverage: span self time over the client process's busy time (wall
    # on the simulator, which never waits; CPU time over TCP).
    busy = client_cpu if "frames" in counts else wall
    covered = sum(self_ns for _c, self_ns, _t in client["spans"].values()) / 1e9
    metrics["trace.coverage_frac"] = covered / busy
    detail = {
        "client_spans_per_op": client_spans,
        "server_spans_per_op": server_spans,
        "client_busy_s": busy,
        "client_unattributed_s": busy - covered,
        "counts": counts,
        "server_counts": server["counts"] if server else None,
    }
    return {k: v for k, v in metrics.items() if v is not None}, detail

"""The traced TCP server: ``repro serve`` with the harness's span wrappers.

Installs the same wrappers the traced client pass uses, then calls the
public ``repro.net.server.serve_forever``.  On SIGTERM it stops the
server and writes its span aggregates, its sampled spans and the storage
engine's own counters to ``--dump`` as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracing import Tracer  # noqa: E402


def _interrupt(_signum, _frame) -> None:
    raise KeyboardInterrupt  # serve_forever's orderly-stop path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--storage", required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()

    tracer = Tracer("server", time.thread_time_ns)
    tracer.install()
    from repro.net.server import serve_forever
    from repro.perf.profile import hot_path_cache_stats
    from repro.store.engine import make_engine
    from repro.ustor.server import UstorServer

    servers = []

    def factory(num_clients: int, name: str) -> UstorServer:
        server = UstorServer(
            num_clients, name=name, engine=make_engine(args.storage, num_clients)
        )
        servers.append(server)
        return server

    signal.signal(signal.SIGTERM, _interrupt)
    code = serve_forever(
        args.clients,
        port=0,
        server_factory=factory,
        announce=lambda line: print(line, flush=True),
    )
    from workloads import engine_counts

    dump = {
        **tracer.snapshot(),
        "sampled_spans": tracer.spans,
        "counts": {
            "max_pending_len": max(s.max_pending_len for s in servers),
            "chain_cache": hot_path_cache_stats()["digest_chain"],
            **engine_counts([s.engine for s in servers]),
        },
    }
    with open(args.dump, "w", encoding="utf-8") as out:
        json.dump(dump, out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""A process loads only the layers it runs.

Each case runs in a fresh interpreter, so ``sys.modules`` holds exactly
what that process imported: a simulated FAUST run loads no socket stack
and none of the offline tools (validators, exhaustive oracles,
ablations, attacks, scale and scenario drivers, span logs, health
gauges), and neither the server module nor ``repro serve`` loads any of
the client-side layers.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SIMULATED_FAUST_RUN = """
from repro.api import CheckpointPolicy, SystemConfig, open_system

system = open_system(
    SystemConfig(
        num_clients=3,
        seed=11,
        storage="log",
        checkpoint=CheckpointPolicy(interval=8),
        membership=True,
    ),
    backend="faust",
)
auditor = system.attach_audit(every=5.0)
sessions = system.sessions()
for round_ in range(6):
    for session in sessions:
        session.write_sync(b"round-%d-client-%d" % (round_, session.client_id))
        session.read_sync((session.client_id + 1) % len(sessions))
assert not system.notifications.first_failures()
"""

#: Loaded only by a socket, a started listener, a sharded deployment or
#: an offline tool.
NOT_IN_A_SIMULATED_RUN = (
    "asyncio",
    "ssl",
    "socket",
    "repro.net",
    "repro.cluster",
    "repro.faust.validator",
    "repro.faust.ablation",
    "repro.ustor.byzantine",
    "repro.workloads.scale",
    "repro.workloads.scenarios",
    "repro.obs.tracing",
    "repro.obs.health",
    "tracemalloc",
    # The exhaustive oracles: the streaming audit reads none of them.
    "repro.consistency.causal",
    "repro.consistency.forking",
    "repro.consistency.linearizability",
    "repro.consistency.views",
    "repro.history.causality",
    "repro.history.register_spec",
)

#: ``repro serve`` up to the point where it listens: the command line is
#: parsed (``--backend`` choices and the ``--server`` help included) and
#: the server module imported; an unknown behaviour then exits 2.
SERVE_COMMAND = """
from repro.cli import main

assert main(["serve", "--server", "no-such-behaviour"]) == 2
"""

#: The client side: what a server process has no use for.
NOT_IN_A_SERVER = (
    "repro.api",
    "repro.faust",
    "repro.consistency",
    "repro.workloads",
    "repro.history",
)


def loaded_modules(code: str) -> set[str]:
    """``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))\n"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def under(modules: set[str], package: str) -> list[str]:
    """The loaded modules that are ``package`` or lie below it."""
    return sorted(
        name for name in modules if name == package or name.startswith(package + ".")
    )


def test_a_simulated_faust_run_loads_no_socket_stack_or_offline_tool():
    modules = loaded_modules(SIMULATED_FAUST_RUN)
    assert "repro.faust.client" in modules  # the probe did run FAUST
    assert [name for name in NOT_IN_A_SIMULATED_RUN if name in modules] == []


def test_the_server_module_loads_no_client_side_layer():
    modules = loaded_modules("import repro.net.server")
    assert {name: under(modules, name) for name in NOT_IN_A_SERVER} == {
        name: [] for name in NOT_IN_A_SERVER
    }


def test_repro_serve_loads_no_client_side_layer():
    modules = loaded_modules(SERVE_COMMAND)
    assert "repro.ustor.server" in modules  # the probe did reach the server
    assert {name: under(modules, name) for name in NOT_IN_A_SERVER} == {
        name: [] for name in NOT_IN_A_SERVER
    }

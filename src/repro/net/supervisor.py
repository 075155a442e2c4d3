"""OS-process lifecycle for server hosts (``repro serve`` children).

:class:`ServerProcess` spawns one ``python -m repro serve`` child,
waits for its ``LISTENING <host> <port>`` readiness line, and exposes
the bound endpoint; :class:`ClusterSupervisor` runs one such process
per shard (the ``repro serve-cluster`` launcher).  Both are used by the
multi-process integration tests and the CI smoke run, and both are
plain context managers so a crashed test never leaks a child.

Readiness is line-based on purpose: parsing the child's stdout is the
only mechanism that works identically for a test, a shell script and a
CI step, and the ephemeral-port case (``--port 0``) *requires* reading
the bound port back from the child.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time

import repro
from repro.common.errors import ConfigurationError

__all__ = ["ServerProcess", "ClusterSupervisor"]


def _child_environment() -> dict[str, str]:
    """The child's environment, with ``repro`` importable.

    The repo is run from a source tree (not installed), so the package
    root must be on the child's ``PYTHONPATH`` regardless of how the
    parent found it.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


class ServerProcess:
    """One ``python -m repro serve`` child process.

    ``port=0`` asks the OS for an ephemeral port; the bound port is read
    back from the child's readiness line and exposed via ``endpoint``.
    """

    def __init__(
        self,
        num_clients: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        server: str = "correct",
        server_name: str = "S",
        storage: str = "memory",
        extra_args: tuple[str, ...] = (),
    ) -> None:
        self.num_clients = num_clients
        self.host = host
        self.port = port
        self.server = server
        self.server_name = server_name
        self.storage = storage
        self.extra_args = tuple(extra_args)
        self.process: subprocess.Popen | None = None
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def command(self) -> list[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--clients", str(self.num_clients),
            "--host", self.host,
            "--port", str(self.port),
            "--server", self.server,
            "--server-name", self.server_name,
            "--storage", self.storage,
            *self.extra_args,
        ]

    def start(self, timeout: float = 20.0) -> str:
        """Spawn the child and block until it listens; returns the endpoint."""
        if self.process is not None:
            raise ConfigurationError("server process already started")
        self.process = subprocess.Popen(
            self.command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_child_environment(),
        )
        self._reader = threading.Thread(target=self._pump_stdout, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        seen: list[str] = []
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise ConfigurationError(
                    f"server {self.server_name!r} did not report LISTENING "
                    f"within {timeout:g}s; output so far: {seen!r}"
                )
            try:
                line = self._lines.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                if self.process.poll() is not None and self._lines.empty():
                    raise ConfigurationError(
                        f"server process exited with code "
                        f"{self.process.returncode} before listening; "
                        f"output: {seen!r}"
                    )
                continue
            if line is None:  # EOF: the child died
                code = self.process.wait()
                raise ConfigurationError(
                    f"server process exited with code {code} before "
                    f"listening; output: {seen!r}"
                )
            seen.append(line)
            parts = line.split()
            if len(parts) == 3 and parts[0] == "LISTENING":
                self.host = parts[1]
                self.port = int(parts[2])
                return self.endpoint

    def _pump_stdout(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate the child (escalating to kill) and reap it."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait()
        if self._reader is not None:
            self._reader.join(timeout=1.0)

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ClusterSupervisor:
    """One server process per shard × replica (``serve-cluster``).

    Shard ``i`` serves as ``S{i}`` with its own storage: ``{shard}`` and
    ``{replica}`` placeholders in ``storage`` (e.g.
    ``dir:/var/faust/shard-{shard}-r{replica}``) are expanded per process
    so durable processes never share a directory.  With ``replicas > 1``
    each shard becomes a replica group ``S{i}/r0`` .. ``S{i}/r{k-1}`` of
    independent processes (``endpoints`` stays flat, shard-major then
    replica-minor — the order the TCP client layer expects), and
    ``counter`` arms every process's monotonic counter
    (:mod:`repro.replica`).
    """

    def __init__(
        self,
        num_clients: int,
        num_shards: int,
        *,
        host: str = "127.0.0.1",
        base_port: int = 0,
        storage: str = "memory",
        servers: dict[int, str] | None = None,
        replicas: int = 1,
        counter: str | None = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("a cluster needs at least one shard")
        if replicas < 1:
            raise ConfigurationError("a replica group needs at least one replica")
        last_port = base_port + num_shards * replicas - 1
        if base_port and not 0 < base_port <= last_port <= 65535:
            raise ConfigurationError(
                f"base port {base_port} puts the cluster's "
                f"{num_shards * replicas} process(es) outside ports 1-65535"
            )
        extra_args = ("--counter", counter) if counter is not None else ()
        self.processes = [
            ServerProcess(
                num_clients,
                host=host,
                port=(base_port + shard * replicas + replica) if base_port else 0,
                server=(servers or {}).get(shard, "correct"),
                server_name=(
                    f"S{shard}" if replicas == 1 else f"S{shard}/r{replica}"
                ),
                storage=storage.format(shard=shard, replica=replica),
                extra_args=extra_args,
            )
            for shard in range(num_shards)
            for replica in range(replicas)
        ]

    @property
    def endpoints(self) -> tuple[str, ...]:
        return tuple(proc.endpoint for proc in self.processes)

    def start(self, timeout: float = 20.0) -> tuple[str, ...]:
        """Start every shard process; stops them all if any fails."""
        try:
            for proc in self.processes:
                proc.start(timeout=timeout)
        except ConfigurationError:
            self.stop()
            raise
        return self.endpoints

    def stop(self) -> None:
        for proc in self.processes:
            proc.stop()

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

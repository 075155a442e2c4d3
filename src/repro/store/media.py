"""Durable media: the byte store a :class:`~repro.store.engine.StorageEngine`
survives crashes on.

A :class:`Medium` is deliberately dumber than a filesystem — named byte
streams with append, atomic replace and truncate — because that is the
exact durability contract write-ahead logging needs.  Two implementations:

* :class:`InMemoryMedium` — bytearrays that outlive a *simulated* server
  crash (the server process loses ``ServerState``; the medium does not).
  This is what the deterministic tests and the crash/rollback scenarios
  run on: "disk" survives, process memory dies.
* :class:`DirectoryMedium` — real files under a directory, with
  write-then-rename atomic replacement.  What ``repro serve --storage
  dir:<path>`` persists to, and what the storage benchmarks measure.
"""

from __future__ import annotations

import io
import os
from abc import ABC, abstractmethod
from pathlib import Path

from repro.common.errors import StorageError


class Medium(ABC):
    """Named durable byte streams."""

    @abstractmethod
    def read(self, name: str) -> bytes:
        """Full contents of ``name`` (empty bytes if it does not exist)."""

    @abstractmethod
    def append(self, name: str, data: bytes) -> None:
        """Append ``data`` to ``name``, creating it if needed."""

    @abstractmethod
    def write_atomic(self, name: str, data: bytes) -> None:
        """Replace ``name`` with ``data`` atomically: readers observe either
        the old contents or the new, never a prefix."""

    @abstractmethod
    def truncate(self, name: str) -> None:
        """Drop the contents of ``name`` (it remains present but empty)."""

    def size(self, name: str) -> int:
        return len(self.read(name))

    def close(self) -> None:
        """Release OS resources; the medium reopens them on next use."""


class InMemoryMedium(Medium):
    """Byte streams in host memory, distinct from simulated process state.

    ``appends``/``replacements`` count the write operations so benchmarks
    and tests can assert the engine's I/O pattern (e.g. one atomic
    replacement per checkpoint).
    """

    def __init__(self) -> None:
        self._streams: dict[str, bytearray] = {}
        self.appends = 0
        self.replacements = 0

    def read(self, name: str) -> bytes:
        return bytes(self._streams.get(name, b""))

    def append(self, name: str, data: bytes) -> None:
        self._streams.setdefault(name, bytearray()).extend(data)
        self.appends += 1

    def write_atomic(self, name: str, data: bytes) -> None:
        self._streams[name] = bytearray(data)
        self.replacements += 1

    def truncate(self, name: str) -> None:
        self._streams[name] = bytearray()

    def size(self, name: str) -> int:
        return len(self._streams.get(name, b""))


class DirectoryMedium(Medium):
    """Real files under one directory; atomic replace via rename.

    Each appended stream keeps one unbuffered ``O_APPEND`` handle, so an
    append is a single ``write(2)`` that has reached the OS when it
    returns (no ``fsync``: the data survives the process, not the
    machine).  A second ``DirectoryMedium`` on the same directory — a
    restarted server — therefore reads everything the first one appended.
    """

    _TMP_SUFFIX = ".tmp"

    def __init__(self, path: str | os.PathLike) -> None:
        self._dir = Path(path)
        self._dir.mkdir(parents=True, exist_ok=True)
        # A crash between writing ``<name>.tmp`` and the rename strands it.
        for stale in self._dir.glob("*" + self._TMP_SUFFIX):
            stale.unlink()
        self._appenders: dict[str, io.FileIO] = {}

    def _path(self, name: str) -> Path:
        if "/" in name or name.startswith(".") or name.endswith(self._TMP_SUFFIX):
            raise StorageError(f"invalid stream name {name!r}")
        return self._dir / name

    def _appender(self, name: str) -> io.FileIO:
        stream = self._appenders.get(name)
        if stream is None:
            stream = self._appenders[name] = open(self._path(name), "ab", buffering=0)
        return stream

    def _drop_appender(self, name: str) -> None:
        stream = self._appenders.pop(name, None)
        if stream is not None:
            stream.close()

    def read(self, name: str) -> bytes:
        try:
            return self._path(name).read_bytes()
        except FileNotFoundError:
            return b""

    def append(self, name: str, data: bytes) -> None:
        stream = self._appender(name)
        written = stream.write(data)
        while written < len(data):  # a raw write may be short
            written += stream.write(data[written:])

    def write_atomic(self, name: str, data: bytes) -> None:
        path = self._path(name)
        tmp = path.with_name(path.name + self._TMP_SUFFIX)
        tmp.write_bytes(data)
        os.replace(tmp, path)
        # The old handle points at the replaced (now unlinked) file.
        self._drop_appender(name)

    def truncate(self, name: str) -> None:
        # In place; O_APPEND puts the next write at the new end (offset 0).
        self._appender(name).truncate(0)

    def size(self, name: str) -> int:
        try:
            return self._path(name).stat().st_size
        except FileNotFoundError:
            return 0

    def close(self) -> None:
        for name in list(self._appenders):
            self._drop_appender(name)

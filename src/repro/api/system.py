"""The unified handle on a running storage deployment.

:class:`System` wraps the wired :class:`~repro.workloads.runner.
StorageSystem` with the backend-agnostic surface: per-client
:class:`~repro.api.session.Session` objects, the
:class:`~repro.api.events.NotificationHub` delivering stability cuts and
failure notifications as typed events, and the backend's declared
:class:`~repro.api.backends.Capabilities`.

Everything the raw deployment exposes (``clients``, ``scheduler``,
``offline``, ``trace``, ``history()``, ``run*`` ...) remains reachable by
delegation, so protocol-level experiments keep full access while
applications stay on the facade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.errors import CapabilityError
from repro.api.events import NotificationHub
from repro.api.session import Session
from repro.common.types import ClientId

if TYPE_CHECKING:  # avoid a cycle: workloads.scenarios builds through us
    from repro.workloads.runner import StorageSystem


class System:
    """A running deployment opened through a :class:`Backend`."""

    def __init__(
        self,
        raw: StorageSystem,
        backend_name: str,
        capabilities,
        default_timeout: float = 1_000.0,
    ) -> None:
        self._raw = raw
        self.backend_name = backend_name
        self.capabilities = capabilities
        self.default_timeout = default_timeout
        self.notifications = NotificationHub()
        self._sessions: dict[ClientId, Session] = {}
        self._wire_notifications()

    def _wire_notifications(self) -> None:
        hub = self.notifications
        scheduler = self._raw.scheduler
        for client in self._raw.clients:
            if hasattr(client, "add_stable_listener"):
                client.add_stable_listener(
                    lambda cut, _c=client: hub.emit_stability(
                        scheduler.now, _c.client_id, cut
                    )
                )
            if hasattr(client, "add_failure_listener"):
                client.add_failure_listener(
                    lambda reason, _c=client: hub.emit_failure(
                        scheduler.now, _c.client_id, reason
                    )
                )

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #

    def session(self, client_id: ClientId, timeout: float | None = None) -> Session:
        """The session bound to ``client_id`` (cached per client unless an
        explicit ``timeout`` asks for a dedicated one)."""
        if timeout is not None:
            return Session(self, client_id, timeout=timeout)
        if client_id not in self._sessions:
            self._sessions[client_id] = Session(self, client_id)
        return self._sessions[client_id]

    def sessions(self) -> list[Session]:
        """One session per client, in client order."""
        return [self.session(i) for i in range(len(self._raw.clients))]

    # ------------------------------------------------------------------ #
    # Guarantees
    # ------------------------------------------------------------------ #

    def require(self, capability: str) -> None:
        """Assert the backend provides ``capability`` (an attribute of its
        :class:`Capabilities`); raises :class:`CapabilityError` if not."""
        if not getattr(self.capabilities, capability):
            raise CapabilityError(
                f"backend {self.backend_name!r} does not provide {capability}"
            )

    # ------------------------------------------------------------------ #
    # The simulated world (delegation)
    # ------------------------------------------------------------------ #

    @property
    def raw(self) -> StorageSystem:
        """The underlying wired deployment."""
        return self._raw

    def profile(self) -> dict:
        """Machine-readable performance profile of the running deployment
        (:func:`repro.perf.system_profile`), tagged with the backend name."""
        from repro.perf.profile import system_profile

        return system_profile(self)

    def __getattr__(self, name: str):
        # Everything else (run, run_until, now, clients, scheduler, trace,
        # recorder, history, crash_client_at, close, ...) passes through.
        return getattr(self._raw, name)

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc) -> None:
        self._raw.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<System backend={self.backend_name} "
            f"clients={len(self._raw.clients)} t={self._raw.now:.1f}>"
        )

"""Durable server storage: pluggable engines, WAL + snapshots, recovery.

The paper's server is specified as volatile state; this subsystem gives
it a persistence axis — a :class:`~repro.store.engine.StorageEngine`
the server delegates every state transition through, with a volatile
engine (the paper's model) and a log-structured engine (write-ahead
log + snapshots + deterministic crash recovery).  See DESIGN.md "Persistence & recovery"
for the format and the recovery invariant, and
:mod:`repro.ustor.byzantine` (``RollbackServer``) for the attack surface
persistence opens.
"""

"""Replicated rollback-resistant shards (honest-majority replica groups).

The paper's system is a *single* untrusted server: every attack is
detectable (fail-awareness) but none is preventable — a rollback costs
the clients their service the moment it is caught.  This package adds
the two classic hardening levers on top of the unchanged USTOR/FAUST
client protocol:

* :class:`~repro.replica.coordinator.QuorumCoordinator` — a client-side
  k-of-n replica group per shard.  Every SUBMIT/COMMIT is broadcast to
  all replicas; REPLYs are matched into per-operation rounds and a
  quorum of equal (dataclass ``==``) REPLYs elects the one the protocol
  layer processes.  An honest majority therefore *masks* faults a lone server
  could only be caught at, while the minority's deviating REPLYs are
  still visible (and counted) evidence.

* :class:`~repro.replica.counter.MonotonicCounter` — a trusted
  monotonic-counter abstraction ("TEE Is Not a Healer"-style trust
  anchor) each replica binds into its REPLYs.  The counter value must
  equal the number of SUBMITs the replica's state has ever absorbed —
  an O(1)-checkable invariant over the REPLY itself — so a rollback
  shows up as a counter running *ahead* of the state it accompanies on
  the very first post-rollback REPLY, instead of waiting for the rolled
  state to contradict some client's version.

Both levers live entirely behind the existing ``Session``/``OpHandle``
facade; deployments opt in with ``SystemConfig(replicas=, quorum=,
counter=)`` on the cluster backend or ``--replicas/--quorum/--counter``
on the CLI.
"""

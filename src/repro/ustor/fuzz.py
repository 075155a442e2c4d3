"""Randomized-adversary fuzzing for the detection machinery.

:class:`RandomDeviationServer` behaves honestly except that, with a
configured probability per REPLY, it applies one uniformly chosen
deviation from a small catalogue (value tampering, version forging,
stale-data replay, proof corruption).  Fuzz tests then assert the two
sides of failure detection over many seeds:

* **accuracy** — a client raises ``fail`` only in runs where at least one
  deviation was actually delivered to it (never in deviation-free runs,
  which the probability-0 control reproduces);
* **containment** — whatever the adversary does, recorded histories stay
  causally consistent and no client returns a fabricated value
  (unforgeability holds by construction).

The deviations are the reply mutations of :mod:`repro.ustor.byzantine` on
the same ``outgoing_reply`` seam and never require signing keys, so the
fuzzer explores exactly the paper's adversary class.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.common.errors import ConfigurationError
from repro.ustor.byzantine import corrupt_proofs, forge_version, tamper_value
from repro.ustor.messages import ReplyMessage, SignedVersion
from repro.ustor.server import UstorServer

#: Names of the deviations the fuzzer can inject.
DEVIATIONS = ("tamper-value", "forge-version", "stale-version", "corrupt-proofs")


class RandomDeviationServer(UstorServer):
    """Honest server with probabilistic single-reply deviations."""

    def __init__(
        self,
        num_clients: int,
        deviation_probability: float,
        seed: int,
        name: str = "S",
    ) -> None:
        if not 0.0 <= deviation_probability <= 1.0:
            raise ConfigurationError("deviation_probability must be in [0, 1]")
        super().__init__(num_clients, name)
        self._probability = deviation_probability
        self._rng = random.Random(seed)
        #: (deviation name, recipient) for every injected deviation.
        self.injected: list[tuple[str, str]] = []
        self._first_sver: SignedVersion | None = None

    def outgoing_reply(self, src, message, reply):
        if self._first_sver is None and not self.state.sver[0].version.is_zero:
            self._first_sver = self.state.sver[0]
        if self._rng.random() >= self._probability:
            return reply
        deviation = self._rng.choice(DEVIATIONS)
        mutated = self._apply(deviation, reply)
        if mutated is not reply:  # applicable here
            self.injected.append((deviation, src))
        return mutated

    def _apply(self, deviation: str, reply: ReplyMessage) -> ReplyMessage:
        """The mutated reply, or ``reply`` itself when inapplicable here."""
        if deviation == "tamper-value":
            return tamper_value(reply, prefix=b"FUZZ|")
        if deviation == "forge-version":
            return forge_version(reply)
        if deviation == "corrupt-proofs":
            return corrupt_proofs(reply)
        # "stale-version": C1's first committed version as V^c (line 36).
        first = self._first_sver
        if first is None or reply.last_version == first:
            return reply
        return replace(reply, last_version=first)

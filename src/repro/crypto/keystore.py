"""Per-client signing handles and the trust boundary around the server.

The paper's server is untrusted and, critically, *cannot forge client
signatures*.  In this reproduction that guarantee is enforced by object
capabilities rather than convention:

* a :class:`KeyStore` owns the :class:`~repro.crypto.signatures.SignatureScheme`
  and hands each client a :class:`ClientSigner` bound to that client's id;
* server implementations (correct or Byzantine) receive a
  :class:`PublicVerifier` at most — an object that can only *verify*.

A Byzantine server written against this API simply has no handle with which
to produce a valid client signature, mirroring the computational assumption
of Section 2.

Deduplicated verification
-------------------------

Verification is deterministic: ``verify_i(sig, payload)`` always returns
the same answer for the same triple.  The same COMMIT- and
PROOF-signatures are presented to *every* client that processes a REPLY
mentioning them (Algorithm 1, lines 35/41/49), so a :class:`KeyStore`
shares one bounded :class:`VerificationCache` across all the *client*
capabilities it hands out — the crypto work for each distinct signature
is done once per system instead of once per observing client.  This is
the "batched verification" optimization of PERFORMANCE.md: correctness
is untouched (the cache stores the scheme's own verdicts, keyed by the
exact signer/signature/payload triple), only repetition is removed.

A hit is a co-located client re-checking a signature another client
checked moments before — a SUBMIT or PROOF signature still in the
server's pending list, a checkpoint share just broadcast — so the
working set is a few operations' signatures per client, and the
keystore sizes its cache from the population it serves:
``VERDICTS_KEPT_PER_CLIENT`` (128) entries per client.  Measured on one
contract-scale pass of each simulator benchmark workload, every hit
found a verdict stored at most 74 stores earlier (8 clients, 104,845
hits; 29 with two 4-client shards, 15,885 hits), so the bound is
several times the reuse it has to keep: the hits equal those of a
cache that forgets nothing, while the entries held fell from 43,618 to
at most 1,024.

The cache itself is trusted state: whoever holds it could inject
verdicts.  It therefore lives strictly on the client side of the trust
boundary — :meth:`KeyStore.verifier` (the capability handed to servers)
returns a **cache-less** verifier, so a Byzantine server gains no
handle over what honest clients accept.
"""

from __future__ import annotations

from itertools import islice
from typing import Any

from repro.common.encoding import encode
from repro.common.types import ClientId
from repro.crypto.signatures import SignatureScheme, make_scheme


def evict_older_half(memo: dict, limit: int) -> None:
    """Drop the older half of a memo that reached ``limit`` entries.

    The one eviction rule of the bounded memos (this module's verdict
    cache, the digest-chain memo of :mod:`repro.ustor.digests`).  Dicts
    keep insertion order, and both memos' reuse is recent (signatures and
    chain links of the last few operations): the older half is the cold
    half.  A batch, not one entry per insert: every ``iter(memo)``
    rescans the hole earlier head deletions left (9 us each at 64 Ki
    entries).
    """
    for oldest in list(islice(memo, max(1, limit // 2))):
        del memo[oldest]


class VerificationCache:
    """Bounded memo of signature-verification verdicts.

    Keys are ``(signer, signature bytes, canonical payload bytes)`` — the
    full input of ``verify`` — so a hit can never change an answer, only
    skip recomputing it.  One instance is shared per :class:`KeyStore`;
    independent systems never share verdicts.
    """

    __slots__ = ("_memo", "_limit", "hits", "misses")

    def __init__(self, limit: int) -> None:
        self._memo: dict[tuple[ClientId, bytes, bytes], bool] = {}
        self._limit = limit
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple[ClientId, bytes, bytes]) -> bool | None:
        """The cached verdict for ``key``, or None on a miss."""
        verdict = self._memo.get(key)
        if verdict is None:
            self.misses += 1
            return None
        self.hits += 1
        return verdict

    def store(self, key: tuple[ClientId, bytes, bytes], verdict: bool) -> None:
        """Record the scheme's verdict for ``key`` (bounded: at the limit
        the older half goes, never the recent working set)."""
        memo = self._memo
        if len(memo) >= self._limit:
            evict_older_half(memo, self._limit)
        memo[key] = verdict

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (read by
        :func:`repro.obs.health.deployment_counts`)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._memo)}


class PublicVerifier:
    """Verification-only view of a signature scheme (safe to give anyone)."""

    def __init__(
        self, scheme: SignatureScheme, cache: VerificationCache | None = None
    ) -> None:
        self._scheme = scheme
        self._cache = cache

    @property
    def num_clients(self) -> int:
        """Size of the client population the scheme is bound to."""
        return self._scheme.num_clients

    def verify(self, signer: ClientId, signature: bytes, *payload: Any) -> bool:
        """``verify_signer(signature, payload)`` over the canonical encoding."""
        payload_bytes = encode(*payload)
        cache = self._cache
        if cache is None or not isinstance(signature, bytes):
            return self._scheme.verify(signer, signature, payload_bytes)
        key = (signer, signature, payload_bytes)
        verdict = cache.lookup(key)
        if verdict is None:
            verdict = self._scheme.verify(signer, signature, payload_bytes)
            cache.store(key, verdict)
        return verdict


class ClientSigner:
    """``sign_i`` bound to one client, plus the shared verifier.

    Clients verify each other's signatures constantly (Algorithm 1 lines 35,
    41, 43, 49, 50), so the signer carries a verifier alongside its own
    signing capability.

    A client is also shown its *own* signatures: the COMMIT-signature of
    its previous operation whenever it was the last committer (line 35 with
    ``c = i``), and its COMMIT/DATA-signatures when it reads its own
    register (lines 49/50).  The signer remembers the last few
    ``signature -> canonical payload`` pairs it produced and answers those
    exact pairs itself; a signature it did not produce, or one of its own
    over a payload the server altered, is not in the memo and takes the
    scheme's path.  The memo is private to this signer — never the shared
    :class:`VerificationCache`, where one client's memory would vouch for
    another's key.
    """

    #: Own signatures come back within an operation or two (4 signed per
    #: operation), so a few operations' worth is the whole working set.
    _OWN_SIGNATURES_KEPT = 64

    def __init__(
        self,
        scheme: SignatureScheme,
        client: ClientId,
        cache: VerificationCache | None = None,
    ) -> None:
        self._scheme = scheme
        self._client = client
        self._verifier = PublicVerifier(scheme, cache)
        self._own_signed: dict[bytes, bytes] = {}

    @property
    def client(self) -> ClientId:
        """The client id this signing capability is bound to."""
        return self._client

    @property
    def verifier(self) -> PublicVerifier:
        """The shared verification capability (cache included)."""
        return self._verifier

    def sign(self, *payload: Any) -> bytes:
        """Sign a structured payload with this client's key."""
        payload_bytes = encode(*payload)
        signature = self._scheme.sign(self._client, payload_bytes)
        own = self._own_signed
        if len(own) >= self._OWN_SIGNATURES_KEPT:
            del own[next(iter(own))]  # oldest first: dicts keep insertion order
        own[signature] = payload_bytes
        return signature

    def verify(self, signer: ClientId, signature: bytes, *payload: Any) -> bool:
        """``verify_signer(signature, payload)``: this signer's own recent
        signatures from its memo, everything else via the shared verifier."""
        if signer == self._client and isinstance(signature, bytes):
            signed = self._own_signed.get(signature)
            if signed is not None and signed == encode(*payload):
                return True
        return self._verifier.verify(signer, signature, *payload)


class KeyStore:
    """Creates and hands out signing / verifying capabilities.

    One keystore per simulated system.  Construction is deterministic given
    the scheme name and client count, keeping whole-system runs reproducible.
    Client signers share one :class:`VerificationCache`; the server-side
    verifier is cache-less (the cache is a verdict-injection capability,
    so it never crosses the trust boundary).
    """

    #: Verdict-cache entries per client of the population (module
    #: docstring: the working set grows with ``n``).
    VERDICTS_KEPT_PER_CLIENT = 128

    def __init__(self, num_clients: int, scheme: str | SignatureScheme = "hmac") -> None:
        if isinstance(scheme, SignatureScheme):
            if scheme.num_clients != num_clients:
                raise ValueError(
                    "scheme population does not match requested client count"
                )
            self._scheme = scheme
        else:
            self._scheme = make_scheme(scheme, num_clients)
        self._num_clients = num_clients
        self._cache = VerificationCache(self.VERDICTS_KEPT_PER_CLIENT * num_clients)

    @property
    def num_clients(self) -> int:
        """Size of the client population."""
        return self._num_clients

    def signer(self, client: ClientId) -> ClientSigner:
        """The full signing capability for ``client`` (clients only)."""
        return ClientSigner(self._scheme, client, self._cache)

    def verifier(self) -> PublicVerifier:
        """A verification-only capability (safe for servers).

        Deliberately cache-less: the shared verdict cache is writable
        trusted state, and handing it to a (possibly Byzantine) server
        would let it inject ``True`` verdicts for forged signatures.
        """
        return PublicVerifier(self._scheme)

    def verification_cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the shared verification cache."""
        return self._cache.stats()

"""Hashing, the three signature schemes, and the keystore trust boundary."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SystemConfig, open_system
from repro.common.errors import UnknownSignerError
from repro.common.types import BOTTOM
from repro.crypto.hashing import (
    HASH_BYTES,
    hash_bytes,
    hash_register_value,
    hash_values,
)
from repro.common.encoding import encode
from repro.crypto.keystore import ClientSigner, KeyStore, VerificationCache
from repro.crypto.signatures import (
    SIGNATURE_BYTES,
    Ed25519Scheme,
    HmacScheme,
    InsecureScheme,
    make_scheme,
)
from repro.workloads.generator import WorkloadConfig, run_closed_loop


class TestHashing:
    def test_hash_size(self):
        assert len(hash_bytes(b"x")) == HASH_BYTES

    def test_deterministic(self):
        assert hash_values("a", 1) == hash_values("a", 1)

    def test_structured_inputs_distinct(self):
        assert hash_values("ab", "c") != hash_values("a", "bc")

    def test_bottom_value_hash_is_stable(self):
        assert hash_register_value(BOTTOM) == hash_register_value(BOTTOM)

    def test_bottom_differs_from_empty_bytes(self):
        assert hash_register_value(BOTTOM) != hash_register_value(b"")

    def test_value_hash_injective_on_samples(self):
        values = [b"", b"a", b"b", b"ab", b"\x00", b"\x00\x00"]
        hashes = {hash_register_value(v) for v in values}
        assert len(hashes) == len(values)


@pytest.fixture(params=["hmac", "insecure", "ed25519"])
def scheme(request):
    return make_scheme(request.param, 3)


class TestSchemes:
    def test_sign_verify_roundtrip(self, scheme):
        payload = b"payload"
        sig = scheme.sign(1, payload)
        assert scheme.verify(1, sig, payload)

    def test_wrong_signer_rejected(self, scheme):
        sig = scheme.sign(1, b"payload")
        assert not scheme.verify(2, sig, b"payload")

    def test_wrong_payload_rejected(self, scheme):
        sig = scheme.sign(1, b"payload")
        assert not scheme.verify(1, sig, b"payload2")

    def test_tampered_signature_rejected(self, scheme):
        sig = bytearray(scheme.sign(0, b"m"))
        sig[0] ^= 0xFF
        assert not scheme.verify(0, bytes(sig), b"m")

    def test_garbage_signature_rejected(self, scheme):
        assert not scheme.verify(0, b"\x00" * 10, b"m")

    def test_non_bytes_signature_rejected(self, scheme):
        assert not scheme.verify(0, None, b"m")  # type: ignore[arg-type]

    def test_unknown_signer_sign_raises(self, scheme):
        with pytest.raises(UnknownSignerError):
            scheme.sign(7, b"m")

    def test_unknown_signer_verify_false(self, scheme):
        assert not scheme.verify(7, b"x" * SIGNATURE_BYTES, b"m")

    def test_signature_length(self, scheme):
        assert len(scheme.sign(0, b"m")) == SIGNATURE_BYTES

    def test_deterministic_keygen(self, scheme):
        fresh = make_scheme(
            {"HmacScheme": "hmac", "InsecureScheme": "insecure", "Ed25519Scheme": "ed25519"}[
                type(scheme).__name__
            ],
            3,
        )
        sig = scheme.sign(2, b"m")
        assert fresh.verify(2, sig, b"m")


class TestSchemeSpecifics:
    def test_insecure_scheme_is_forgeable(self):
        # The point of InsecureScheme: anyone can forge, which adversarial
        # tests exploit to model a broken signature scheme.
        scheme = InsecureScheme(2)
        forged = InsecureScheme.forge(0, b"m")
        assert scheme.verify(0, forged, b"m")

    def test_hmac_keys_differ_per_client(self):
        scheme = HmacScheme(2)
        assert scheme.sign(0, b"m") != scheme.sign(1, b"m")

    def test_different_seeds_are_independent(self):
        a = HmacScheme(2, seed=b"a")
        b = HmacScheme(2, seed=b"b")
        assert not b.verify(0, a.sign(0, b"m"), b"m")

    def test_ed25519_is_real(self):
        scheme = Ed25519Scheme(1)
        sig = scheme.sign(0, b"m")
        assert len(sig) == 64
        assert scheme.verify(0, sig, b"m")

    def test_make_scheme_rejects_unknown(self):
        with pytest.raises(UnknownSignerError):
            make_scheme("rsa", 2)

    def test_population_must_be_positive(self):
        with pytest.raises(ValueError):
            HmacScheme(0)


class TestKeyStore:
    def test_signer_bound_to_client(self):
        store = KeyStore(3)
        signer = store.signer(1)
        assert signer.client == 1
        sig = signer.sign("COMMIT", (1, 2, 3))
        assert signer.verify(1, sig, "COMMIT", (1, 2, 3))

    def test_verifier_cannot_sign(self):
        store = KeyStore(3)
        verifier = store.verifier()
        assert not hasattr(verifier, "sign")

    def test_server_verifier_has_no_verdict_cache(self):
        """The shared verification cache is a verdict-injection capability
        and must never cross the trust boundary to servers."""
        store = KeyStore(3)
        assert store.verifier()._cache is None
        # Client capabilities do share the keystore's cache.
        signer = store.signer(0)
        assert signer.verifier._cache is store._cache

    def test_verification_cache_dedups_across_clients(self):
        store = KeyStore(3)
        sig = store.signer(0).sign("PROOF", b"digest")
        for observer in range(3):
            assert store.signer(observer).verify(0, sig, "PROOF", b"digest")
        stats = store.verification_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_cross_client_verification(self):
        store = KeyStore(3)
        sig = store.signer(0).sign("PROOF", b"digest")
        assert store.signer(2).verify(0, sig, "PROOF", b"digest")

    def test_structured_payloads(self):
        store = KeyStore(2)
        signer = store.signer(0)
        sig = signer.sign("DATA", 5, None)
        assert signer.verify(0, sig, "DATA", 5, None)
        assert not signer.verify(0, sig, "DATA", 5, b"")

    def test_scheme_population_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KeyStore(3, scheme=HmacScheme(2))


class _CountingHmac(HmacScheme):
    """HMAC that counts how often verification actually reaches it."""

    def __init__(self, num_clients: int) -> None:
        super().__init__(num_clients)
        self.verifications = 0

    def verify(self, signer, signature, payload):
        self.verifications += 1
        return super().verify(signer, signature, payload)


def _flip(data: bytes, bit: int) -> bytes:
    bit %= len(data) * 8
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


#: Built once: Ed25519 key generation per hypothesis example is the slow part.
_SCHEMES = {name: make_scheme(name, 3) for name in ("hmac", "insecure", "ed25519")}
_PAYLOADS = st.tuples(
    st.sampled_from(["COMMIT", "DATA", "PROOF"]),
    st.integers(0, 3),
    st.binary(min_size=1, max_size=16),
)


class TestOwnSignatureMemo:
    """A signer answers for the exact pairs it signed; every other triple
    gets the scheme's verdict, so the memo can only skip work."""

    @pytest.mark.parametrize("scheme_name", sorted(_SCHEMES))
    @settings(max_examples=25, deadline=None)
    @given(
        payloads=st.lists(_PAYLOADS, min_size=1, max_size=3),
        bit=st.integers(0, 511),
        stranger=st.tuples(st.integers(-1, 3), st.binary(max_size=70), _PAYLOADS),
    )
    def test_verify_equals_the_scheme(self, scheme_name, payloads, bit, stranger):
        scheme = _SCHEMES[scheme_name]
        me = ClientSigner(scheme, 1, VerificationCache(limit=64))
        triples = [stranger]
        for payload in payloads:
            mine = me.sign(*payload)
            theirs = scheme.sign(0, encode(*payload))
            label, number, blob = payload
            triples += [
                (1, mine, payload),
                (1, _flip(mine, bit), payload),
                (1, mine, (label, number, _flip(blob, bit))),
                (1, mine, (label, number + 1, blob)),
                (0, mine, payload),  # my signature under another signer id
                (2, mine, payload),
                (0, theirs, payload),
                (1, theirs, payload),  # another's signature under my id
            ]
        for signer, signature, payload in triples:
            assert me.verify(signer, signature, *payload) == scheme.verify(
                signer, signature, encode(*payload)
            ), (signer, signature, payload)

    def test_own_signature_costs_no_verification(self):
        scheme = _CountingHmac(2)
        alice = KeyStore(2, scheme=scheme).signer(0)
        sig = alice.sign("COMMIT", (1, 0), b"digest")
        assert alice.verify(0, sig, "COMMIT", (1, 0), b"digest")
        assert scheme.verifications == 0

    def test_altered_payload_under_own_signature_reaches_the_scheme(self):
        scheme = _CountingHmac(2)
        alice = KeyStore(2, scheme=scheme).signer(0)
        sig = alice.sign("COMMIT", (1, 0), b"digest")
        assert not alice.verify(0, sig, "COMMIT", (2, 0), b"digest")
        assert not alice.verify(0, _flip(sig, 5), "COMMIT", (1, 0), b"digest")
        assert scheme.verifications == 2

    def test_another_client_still_verifies_for_real(self):
        """Co-located clients share one keystore; signing must not seed
        its verdict cache, or A's memory would vouch for A's key to B."""
        scheme = _CountingHmac(2)
        store = KeyStore(2, scheme=scheme)
        alice, bob = store.signer(0), store.signer(1)
        sig = alice.sign("PROOF", b"digest")
        assert alice.verify(0, sig, "PROOF", b"digest")
        assert store.verification_cache_stats()["size"] == 0
        assert bob.verify(0, sig, "PROOF", b"digest")
        assert scheme.verifications == 1
        assert store.verification_cache_stats() == {"hits": 0, "misses": 1, "size": 1}

    def test_memo_is_bounded_and_forgetting_is_harmless(self):
        scheme = _CountingHmac(1)
        signer = KeyStore(1, scheme=scheme).signer(0)
        kept = ClientSigner._OWN_SIGNATURES_KEPT
        oldest = signer.sign("DATA", 0)
        for t in range(1, 3 * kept):
            signer.sign("DATA", t)
        assert len(signer._own_signed) == kept
        assert signer.verify(0, oldest, "DATA", 0)  # forgotten: the scheme answers
        assert scheme.verifications == 1


class TestVerificationCacheBound:
    def test_at_the_limit_the_oldest_verdicts_go_not_all_of_them(self):
        cache = VerificationCache(limit=16)
        keys = [(0, b"sig%d" % k, b"payload") for k in range(17)]
        for key in keys[:16]:
            cache.store(key, True)
        cache.store(keys[16], True)  # crosses the limit
        assert cache.lookup(keys[15]) is True  # stored just before the limit
        assert cache.lookup(keys[16]) is True
        assert cache.lookup(keys[0]) is None  # the oldest paid for it
        assert 1 <= cache.stats()["size"] <= 16

    def test_never_exceeds_the_limit(self):
        cache = VerificationCache(limit=16)
        for k in range(200):
            cache.store((0, b"sig%d" % k, b"payload"), k % 2 == 0)
            assert cache.stats()["size"] <= 16
        assert cache.lookup((0, b"sig199", b"payload")) is False

    def test_a_keystore_keeps_a_working_set_per_client(self, monkeypatch):
        """The keystore sizes its cache from the population: a seeded
        8-client FAUST run stays within 128 verdicts per client and hits
        exactly as often as the same run with a cache that forgets
        nothing, so the bound skips no reuse."""

        def run() -> dict[str, int]:
            system = open_system(SystemConfig(num_clients=8, seed=7), backend="faust")
            driver = run_closed_loop(
                system, WorkloadConfig(ops_per_client=60), random.Random(7)
            )
            assert driver.stats.all_done()
            return system.keystore.verification_cache_stats()

        bounded = run()
        monkeypatch.setattr(KeyStore, "VERDICTS_KEPT_PER_CLIENT", 1 << 20)
        unbounded = run()
        assert bounded["size"] <= 128 * 8 < unbounded["size"]
        assert bounded["hits"] == unbounded["hits"] > 0
        assert bounded["misses"] == unbounded["misses"]


class TestSignatureProperties:
    @settings(max_examples=50)
    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_hmac_distinct_payloads_distinct_sigs(self, a, b):
        scheme = HmacScheme(1)
        if a != b:
            assert scheme.sign(0, a) != scheme.sign(0, b)

    @settings(max_examples=50)
    @given(st.binary(max_size=64))
    def test_hmac_never_cross_verifies(self, payload):
        scheme = HmacScheme(2)
        assert not scheme.verify(1, scheme.sign(0, payload), payload)

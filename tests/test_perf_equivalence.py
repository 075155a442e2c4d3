"""Equivalence proofs for the performance fast paths.

Every optimized hot path ships next to its reference implementation (the
executable specification); these property-based tests drive both over
randomized inputs — reusing the suite's hypothesis machinery — and assert
byte-for-byte identical outputs:

* :func:`repro.common.encoding.encode` vs ``encode_reference`` (and the
  round trip through both decoders);
* :func:`repro.common.encoding.decode` vs ``decode_reference``, including
  identical *rejection* of corrupted bytes;
* :func:`repro.ustor.digests.extend_digest` vs ``extend_digest_reference``
  (cold cache, warm cache, and a memo squeezed to a few links);
* :func:`repro.crypto.hashing.hash_register_value` vs its definition
  ``hash_values("VALUE", x)``;
* the iterative view-history reconstruction vs the paper's recursive
  definition of ``VH(o)``;
* the single-pass :meth:`repro.ustor.version.Version.le` vs a literal
  transcription of Definition 7, and
  :meth:`repro.faust.stability.StabilityTracker.stable_vector` vs the
  nested-``min`` form it is documented as.

The expensive properties exist twice, from one body each
(:func:`two_budgets`): under their old names at a tier-1 example count,
and as ``*_full`` twins at the full count, marked ``slow`` + ``fuzz``
(``pytest -m "slow and fuzz" tests/test_perf_equivalence.py``) — run
those whenever the encoder, the decoder or the view-history walk changes.
"""

from __future__ import annotations

import enum
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import (
    decode,
    decode_reference,
    encode,
    encode_reference,
    encoding_cache_stats,
    reset_encoding_caches,
)
from repro.common.errors import EncodingError, ProtocolError
from repro.common.types import BOTTOM, OpKind
from repro.crypto.hashing import hash_register_value, hash_values
from repro.faust.stability import StabilityTracker
from repro.ustor import digests
from repro.ustor.client import ViewHistoryRecord
from repro.ustor.digests import (
    digest_of_sequence,
    extend_digest,
    extend_digest_reference,
    reset_chain_cache,
)
from repro.ustor.version import Version
from repro.ustor.viewhistory import reconstruct_view_history


def two_budgets(tier1: int, full: int, *strategies):
    """One property body as ``(tier-1 test, slow + fuzz twin)``.

    Bind both names in the class body; the twin is deselected by the
    default ``-m "not slow"`` and runs the full example count.
    """

    def build(body):
        def at(examples):
            return settings(max_examples=examples, deadline=None)(
                given(*strategies)(body)
            )

        return at(tier1), pytest.mark.slow(pytest.mark.fuzz(at(full)))

    return build


class Colour(enum.Enum):
    RED = 1
    GREEN = 2


# Scalars cover every supported tag, with ints crossing the memo bound
# and strings crossing the cached-length bound.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.binary(max_size=80),
    st.text(max_size=70),
    st.sampled_from(list(OpKind) + list(Colour)),
)

#: Arbitrarily nested tuples/lists of scalars (depth <= 3).
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple)
    ),
    max_leaves=20,
)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 5000


class Tally(int):
    """An ``int`` subclass: must take the reference's isinstance order."""


class Blob(bytes):
    """A ``bytes`` subclass."""


#: Everything a sequence element can be besides an exact ``int`` /
#: ``bytes`` / ``None``: the in-place loop of ``_encode_into`` must hand
#: each of these to the old dispatch.  Ints sit on both sides of the memo
#: bound; ``True == 1 == Level.LOW == Tally(1)`` and all four encode
#: differently.
sequence_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-9000, max_value=9000),
    st.integers(min_value=-9000, max_value=9000).map(Tally),
    st.sampled_from(list(Level) + list(Colour) + list(OpKind)),
    st.binary(max_size=40),
    st.binary(max_size=40).map(Blob),
    st.binary(max_size=40).map(bytearray),
    st.binary(max_size=40).map(memoryview),
    st.text(max_size=10),
    st.lists(st.integers(min_value=-9000, max_value=9000), max_size=4),
)


def _normalise(value):
    """What a value looks like after an encode/decode round trip."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalise(item) for item in value)
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    return value


class TestEncodingEquivalence:
    def _encode_matches_reference(self, payload):
        assert encode(*payload) == encode_reference(*payload)

    test_encode_matches_reference, test_encode_matches_reference_full = (
        two_budgets(50, 300, st.lists(values, max_size=6))(_encode_matches_reference)
    )

    def _decoders_agree_and_invert(self, payload):
        blob = encode(*payload)
        fast = decode(blob, enums=(OpKind, Colour))
        reference = decode_reference(blob, enums=(OpKind, Colour))
        assert fast == reference
        assert fast == tuple(_normalise(item) for item in payload)

    test_decoders_agree_and_invert, test_decoders_agree_and_invert_full = (
        two_budgets(50, 300, st.lists(values, max_size=6))(_decoders_agree_and_invert)
    )

    def _decoders_reject_identically(self, payload, data):
        """A corrupted byte must be rejected (or accepted) by both paths."""
        blob = bytearray(encode(*payload))
        index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        new_byte = data.draw(st.integers(min_value=0, max_value=255))
        blob[index] = new_byte
        corrupted = bytes(blob)
        # Corrupting a str/enum payload can also surface as invalid UTF-8;
        # what matters is that both decoders fail (or succeed) identically.
        try:
            fast = decode(corrupted, enums=(OpKind, Colour))
            fast_error = None
        except (EncodingError, UnicodeDecodeError) as exc:
            fast, fast_error = None, type(exc)
        try:
            reference = decode_reference(corrupted, enums=(OpKind, Colour))
            reference_error = None
        except (EncodingError, UnicodeDecodeError) as exc:
            reference, reference_error = None, type(exc)
        assert fast_error == reference_error
        if fast_error is None:
            assert fast == reference

    test_decoders_reject_identically, test_decoders_reject_identically_full = (
        two_budgets(40, 200, st.lists(values, max_size=4), st.data())(
            _decoders_reject_identically
        )
    )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(sequence_leaves, max_size=8),
        st.lists(sequence_leaves, max_size=8),
    )
    def test_sequence_elements_of_every_kind(self, as_tuple, as_list):
        """Vectors mixing exact leaves with look-alikes (bool, enum and
        IntEnum members, int/bytes subclasses, views, nested lists)."""
        payload = ("V", tuple(as_tuple), as_list, (tuple(as_tuple), as_list))
        assert encode(*payload) == encode_reference(*payload)

    def test_equal_values_of_different_types_stay_distinct(self):
        ones = (1, True, Level.LOW, Tally(1))
        assert ones[0] == ones[1] == ones[2] == ones[3]
        encodings = {encode((one,)) for one in ones}
        assert encodings == {encode_reference((one,)) for one in ones}
        assert len(encodings) == 3  # Tally(1) is an int to both encoders

    @pytest.mark.parametrize("value", [4097, -4097, 7000, 2**64, -(2**200), 2**5000])
    def test_ints_beyond_the_memo_are_not_misses(self, value):
        """Past the memo bound an int is neither stored nor counted: the
        miss counter says "one per distinct memoized value" and means it."""
        reset_encoding_caches()
        payload = ("COMMIT", (value, 2 * value), (None, b"\x07" * 32))
        first = encode(*payload)
        baseline = encoding_cache_stats()
        for _ in range(50):
            assert encode(*payload) == first
        assert encoding_cache_stats() == baseline
        assert baseline["int_entries"] == 0
        assert first == encode_reference(*payload)

    def test_ints_at_the_memo_bound_are_memoized_once(self):
        reset_encoding_caches()
        for _ in range(3):
            assert encode(4096, -4096) == encode_reference(4096, -4096)
        stats = encoding_cache_stats()
        assert stats["misses"] == 2 and stats["int_entries"] == 2

    def test_strings_too_long_to_memoize_are_not_misses(self):
        reset_encoding_caches()
        long = "x" * 65
        for _ in range(3):
            assert encode(long, "x" * 64) == encode_reference(long, "x" * 64)
        stats = encoding_cache_stats()
        assert stats["misses"] == 1 and stats["str_entries"] == 1

    def test_cold_cache_equivalence(self):
        """Equality holds from a cold cache (first-ever encodings)."""
        reset_encoding_caches()
        payload = ("COMMIT", OpKind.WRITE, 123456, b"\x01" * 32, ("x", -7))
        assert encode(*payload) == encode_reference(*payload)

    def test_memoryview_and_bytearray_inputs(self):
        raw = b"\xde\xad\xbe\xef"
        for view in (bytearray(raw), memoryview(raw)):
            assert encode(view) == encode_reference(view) == encode(raw)

    def test_unsupported_type_rejected_by_both(self):
        with pytest.raises(EncodingError):
            encode(object())
        with pytest.raises(EncodingError):
            encode_reference(object())


class TestDigestEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=63), max_size=40),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([None, 2, 3, 8]),
    )
    def test_extend_matches_reference(self, chain, client, bound):
        """``bound`` squeezes the memo to a few links, so a chain crosses
        its eviction many times; ``None`` keeps the shipped bound."""
        limit = digests._CHAIN_MEMO_LIMIT if bound is None else bound
        with patch.object(digests, "_CHAIN_MEMO_LIMIT", limit):
            reset_chain_cache()
            digest = digest_of_sequence(chain)
            cold = extend_digest(digest, client)
            warm = extend_digest(digest, client)  # second call hits the memo
            assert len(digests._CHAIN_MEMO) <= limit
        assert cold == warm == extend_digest_reference(digest, client)

    def test_past_the_bound_the_newer_half_stays(self):
        """At the bound the memo drops its older half in one batch: it
        never holds more than the bound, the newest links survive every
        eviction (so they still hit), and what it holds is a suffix of
        the links in the order they were made."""
        bound = 8
        with patch.object(digests, "_CHAIN_MEMO_LIMIT", bound):
            reset_chain_cache()
            keys, digest = [], None
            for step in range(5 * bound):
                keys.append((digest, step % 5))
                digest = extend_digest(digest, step % 5)
                assert digest == extend_digest_reference(*keys[-1])
                held = list(digests._CHAIN_MEMO)
                assert held == keys[-len(held):]
                if step >= bound:
                    assert bound // 2 < len(held) <= bound
            hits = digests.chain_cache_stats()["hits"]
            for key in keys[-(bound // 2):]:
                assert extend_digest(*key) == extend_digest_reference(*key)
            assert digests.chain_cache_stats()["hits"] == hits + bound // 2
        reset_chain_cache()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=30))
    def test_sequence_digest_matches_reference_fold(self, chain):
        reference = None
        for client in chain:
            reference = extend_digest_reference(reference, client)
        assert digest_of_sequence(chain) == reference

    @pytest.mark.parametrize("width", [0, 7, 31, 32, 33, 200])
    def test_digest_widths_around_the_prefed_header(self, width):
        """The fast path pre-feeds the header of a 32-byte digest and
        builds any other from the encoder's length field (two bytes from
        128 up); every width must still match the specification."""
        reset_chain_cache()
        digest = b"\x42" * width
        assert extend_digest(digest, 3) == extend_digest_reference(digest, 3)


class TestValueHashEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_bytes_values(self, value):
        assert hash_register_value(value) == hash_values("VALUE", value)

    @pytest.mark.parametrize("size", [0, 1, 127, 128, 4096, 16_384])
    def test_sizes_around_the_length_field_boundaries(self, size):
        """The pre-fed prefix stops before the length field, which grows a
        byte at 128 and at 16 384."""
        value = b"\x5a" * size
        assert hash_register_value(value) == hash_values("VALUE", value)

    def test_bottom(self):
        assert hash_register_value(BOTTOM) == hash_values("VALUE", None)


def _recursive_vh(records, op_key):
    """The paper's recursive definition of ``VH(o)`` (the specification)."""
    record = records[op_key]
    prefix = () if record.parent is None else _recursive_vh(records, record.parent)
    return prefix + record.concurrent + (record.own,)


class TestViewHistoryEquivalence:
    def _iterative_matches_recursive(self, data):
        """Random parent-linked record sets: iterative == recursive VH."""
        num_ops = data.draw(st.integers(min_value=1, max_value=25))
        records: dict[tuple[int, int], ViewHistoryRecord] = {}
        keys: list[tuple[int, int]] = []
        for index in range(num_ops):
            key = (data.draw(st.integers(min_value=0, max_value=3)), index)
            parent = (
                None
                if not keys
                else data.draw(st.one_of(st.none(), st.sampled_from(keys)))
            )
            concurrent = tuple(
                data.draw(st.sampled_from(keys))
                for _ in range(data.draw(st.integers(min_value=0, max_value=2)))
                if keys
            )
            records[key] = ViewHistoryRecord(
                parent=parent, concurrent=concurrent, own=key
            )
            keys.append(key)
        cache: dict = {}
        for key in keys:
            assert reconstruct_view_history(records, key, cache) == _recursive_vh(
                records, key
            )

    test_iterative_matches_recursive, test_iterative_matches_recursive_full = (
        two_budgets(25, 100, st.data())(_iterative_matches_recursive)
    )

    def test_deep_chain_does_not_recurse(self):
        """A chain longer than the recursion limit must reconstruct fine."""
        records = {}
        parent = None
        for index in range(5_000):
            key = (0, index)
            records[key] = ViewHistoryRecord(parent=parent, concurrent=(), own=key)
            parent = key
        history = reconstruct_view_history(records, (0, 4_999))
        assert len(history) == 5_000
        assert history[0] == (0, 0) and history[-1] == (0, 4_999)


# --------------------------------------------------------------------- #
# Definition 7 and the all-clients stable cut
# --------------------------------------------------------------------- #


def _definition_7(a: Version, b: Version) -> bool:
    """``a <= b``, transcribed: ``V_a <= V_b`` componentwise, and
    ``M_a[k] = M_b[k]`` wherever ``V_a[k] = V_b[k]``."""
    n = len(a.vector)
    vectors_le = all(a.vector[k] <= b.vector[k] for k in range(n))
    digests_agree = all(
        a.digests[k] == b.digests[k]
        for k in range(n)
        if a.vector[k] == b.vector[k]
    )
    return vectors_le and digests_agree


#: Few distinct timestamps and digests, so equal entries (the case the
#: digest clause is about) are common.
_timestamps = st.integers(min_value=0, max_value=3)
_digests = st.sampled_from([None, b"a" * 32, b"b" * 32])


@st.composite
def version_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    def one():
        return Version(
            vector=tuple(draw(st.lists(_timestamps, min_size=n, max_size=n))),
            digests=tuple(draw(st.lists(_digests, min_size=n, max_size=n))),
        )
    first = one()
    return first, draw(st.one_of(st.just(first), st.builds(one)))


class TestVersionOrderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(version_pairs())
    def test_le_matches_definition_7(self, pair):
        a, b = pair
        assert a.le(b) == _definition_7(a, b)
        assert b.le(a) == _definition_7(b, a)
        assert a.comparable(b) == (_definition_7(a, b) or _definition_7(b, a))
        assert a.lt(b) == (a != b and _definition_7(a, b))

    @given(version_pairs())
    def test_le_is_reflexive(self, pair):
        a, _ = pair
        assert a.le(a) and a.le(Version(a.vector, a.digests))

    def test_equal_counts_with_a_missing_digest_are_incomparable(self):
        a = Version((1, 0), (b"a" * 32, None))
        b = Version((1, 0), (None, None))
        assert not a.le(b) and not b.le(a)

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    def test_mismatched_widths_raise(self, n, m):
        if n == m:
            return
        with pytest.raises(ProtocolError):
            Version.zero(n).le(Version.zero(m))


class TestStableVectorEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_nested_min(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        tracker = StabilityTracker(0, n)
        row = st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n)
        tracker.versions = [
            Version(tuple(data.draw(row)), (None,) * n) for _ in range(n)
        ]
        members = data.draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    unique=True,
                ).map(tuple),
            )
        )
        rows = range(n) if members is None else members
        expected = tuple(
            min(tracker.versions[k].vector[j] for k in rows) for j in range(n)
        )
        assert tracker.stable_vector(members=members) == expected
        if members is None:
            assert tracker.stable_vector() == expected

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
* the forking-notion conditions (real-time order, prefix agreement and
  the join rules, condition 3 with its cycle rule, the causal checker's
  overwritten read) vs their definitions transcribed pairwise, as
  ``pi[:k+1]`` slices and as full ancestor walks;
* every checker's verdict on a history vs on the same history with each
  value of ``DIGEST_FORM_MIN_BYTES`` or more replaced by its
  :class:`~repro.common.types.ValueDigest`, as the recorder keeps it;
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
from dataclasses import replace
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
from repro.common.types import BOTTOM, DIGEST_FORM_MIN_BYTES, OpKind
from repro.consistency import (
    IncrementalCausalChecker,
    IncrementalLinearizabilityChecker,
    at_most_one_join_violation,
    causality_violation,
    check_causal_consistency,
    check_linearizability,
    no_join_violation,
    prefixes_agree,
    preserves_real_time,
    replay_history,
    validate_weak_fork_linearizability,
)
from repro.consistency.forking import WEAK_FORK_LINEARIZABILITY, search_views
from repro.crypto.hashing import digest_form, hash_register_value, hash_values
from repro.faust.stability import StabilityTracker
from repro.history.causality import build_causal_structure
from repro.history.events import Operation
from repro.history.history import History
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
        for key in keys:
            assert reconstruct_view_history(records, key) == _recursive_vh(records, key)

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


# --------------------------------------------------------------------- #
# The forking-notion conditions and their definitions
# --------------------------------------------------------------------- #


@st.composite
def small_histories(draw):
    """Up to 3 clients x 4 ops, every written value unique, reads free to
    return any write of their register — a later one too, so causal
    cycles are common — and a client's last write possibly pending."""
    n = draw(st.integers(min_value=1, max_value=3))
    shapes = []  # (client, is_write, register, invoked, responded)
    for client in range(n):
        clock = draw(st.integers(min_value=0, max_value=3))
        count = draw(st.integers(min_value=0, max_value=4))
        for index in range(count):
            is_write = draw(st.booleans())
            register = client if is_write else draw(st.integers(0, n - 1))
            invoked = clock + draw(st.integers(min_value=0, max_value=2))
            responded = invoked + draw(st.integers(min_value=0, max_value=3))
            if is_write and index == count - 1 and draw(st.booleans()):
                responded = None
            shapes.append((client, is_write, register, invoked, responded))
            clock = responded if responded is not None else invoked
    written = {
        op_id: (register, b"v%d" % op_id)
        for op_id, (_, is_write, register, _, _) in enumerate(shapes)
        if is_write
    }
    ops = []
    for op_id, (client, is_write, register, invoked, responded) in enumerate(shapes):
        if is_write:
            value = written[op_id][1]
        else:
            choices = [v for reg, v in written.values() if reg == register]
            value = draw(st.sampled_from([BOTTOM, *choices]))
        ops.append(
            Operation(
                op_id=op_id,
                client=client,
                kind=OpKind.WRITE if is_write else OpKind.READ,
                register=register,
                value=value,
                invoked_at=invoked,
                responded_at=responded,
            )
        )
    return History(ops).completed_for_checking()


def _candidate_views(draw, history):
    """Two sequences of the history's ops, not necessarily views, that
    share a drawn prefix more often than chance would."""
    ops = list(history)
    order = draw(st.permutations(ops))
    pi_i = list(order[: draw(st.integers(0, len(ops)))])
    shared = pi_i[: draw(st.integers(0, len(pi_i)))]
    tail = draw(st.permutations([op for op in ops if op not in shared]))
    return pi_i, shared + list(tail[: draw(st.integers(0, len(tail)))])


def _precedes_causally(history):
    """op_id -> the op_ids that causally precede it, transcribed from
    Section 2: program order, reads-from by value, transitivity (an op on
    a cycle precedes itself)."""
    direct = {op.op_id: set() for op in history}
    for client in history.clients():
        own = history.restrict_to_client(client)
        for earlier, later in zip(own, own[1:]):
            direct[later.op_id].add(earlier.op_id)
    for read in history:
        for write in history:
            if read.is_read and write.is_write and (read.register, read.value) == (
                write.register,
                write.value,
            ):
                direct[read.op_id].add(write.op_id)
    closure = {}
    for op_id in direct:
        seen, stack = set(), list(direct[op_id])
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(direct[current])
        closure[op_id] = seen
    return closure


def _condition_3_holds(history, view, ancestors):
    """Every update causally preceding an op of the view is in the view,
    before it."""
    position = {op.op_id: i for i, op in enumerate(view)}
    return all(
        a in position and position[a] < position[op.op_id]
        for op in view
        for a in ancestors[op.op_id]
        if history.op(a).is_write
    )


def _slice_agrees(pi_i, pi_j, op_id):
    """``pi_i|o == pi_j|o`` as ``pi[:k+1]`` slices."""
    ids_i, ids_j = [o.op_id for o in pi_i], [o.op_id for o in pi_j]
    if op_id not in ids_i or op_id not in ids_j:
        return False
    return ids_i[: ids_i.index(op_id) + 1] == ids_j[: ids_j.index(op_id) + 1]


def _overwritten(history, read, ancestors):
    """Definition 3's overwritten read: a write of the read's register
    other than its source causally precedes the read, and follows the
    source (a BOTTOM read has no source)."""
    source = next(
        (
            w
            for w in history
            if w.is_write and (w.register, w.value) == (read.register, read.value)
        ),
        None,
    )
    return any(
        history.op(a).is_write
        and history.op(a).register == read.register
        and a != getattr(source, "op_id", None)
        and (source is None or source.op_id in ancestors[a])
        for a in ancestors[read.op_id]
    )


class TestForkingConditionEquivalence:
    def _conditions_match_definitions(self, data):
        history = data.draw(small_histories())
        pi_i, pi_j = _candidate_views(data.draw, history)
        ancestors = _precedes_causally(history)
        structure = build_causal_structure(history)

        # Real time: no pair a <_sigma b with b before a.
        for view in (pi_i, pi_j):
            pairwise = not any(
                a.precedes(b) and view.index(a) > view.index(b)
                for a in view
                for b in view
            )
            assert preserves_real_time(view, history) == pairwise

        # Prefix agreement, and both join rules built on it.
        common = [op for op in pi_i if op in pi_j]
        for op in history:
            assert prefixes_agree(pi_i, pi_j, op.op_id) == _slice_agrees(
                pi_i, pi_j, op.op_id
            )
        first_bad = next(
            (op.op_id for op in common if not _slice_agrees(pi_i, pi_j, op.op_id)),
            None,
        )
        assert no_join_violation(pi_i, pi_j) == first_bad
        one_join = all(
            _slice_agrees(pi_i, pi_j, op.op_id)
            for op in common
            if any(
                o.client == op.client and pi_i.index(o) > pi_i.index(op)
                for o in common
            )
        )
        assert (at_most_one_join_violation(pi_i, pi_j) is None) == one_join

        # Condition 3, and the cycle rule: an op on or after a cycle has a
        # cycle's update among its ancestors, which precedes itself.
        on_or_after_cycle = {
            op_id
            for op_id, before in ancestors.items()
            if any(a in ancestors[a] for a in before | {op_id})
        }
        assert structure.has_cycle() == bool(on_or_after_cycle)
        assert set(structure.frontier) == set(ancestors) - on_or_after_cycle
        for view in (pi_i, pi_j):
            holds = causality_violation(history, view, structure) is None
            assert holds == _condition_3_holds(history, view, ancestors)
            if any(op.op_id in on_or_after_cycle for op in view):
                assert not holds

        # The causal checker's overwritten-read rule.
        overwritten = any(
            _overwritten(history, read, ancestors) for read in history if read.is_read
        )
        causal = check_causal_consistency(history)
        assert causal.ok == (not on_or_after_cycle and not overwritten)

    test_conditions_match_definitions, test_conditions_match_definitions_full = (
        two_budgets(200, 2000, st.data())(_conditions_match_definitions)
    )


# --------------------------------------------------------------------- #
# Verdicts over recorded (digest-form) values
# --------------------------------------------------------------------- #


def _padded(history, data):
    """``history`` with each written value padded to a drawn length around
    :data:`DIGEST_FORM_MIN_BYTES` (still unique), reads following."""
    sizes = st.sampled_from([1, DIGEST_FORM_MIN_BYTES - 1, DIGEST_FORM_MIN_BYTES, 64])
    padded = {
        op.value: op.value.ljust(data.draw(sizes), b".")
        for op in history
        if op.is_write
    }
    return History(
        [replace(op, value=padded.get(op.value, op.value)) for op in history]
    )


def _verdicts(history, views):
    """Every checker's verdict, and the weak-fork validator's on ``views``."""
    return (
        check_linearizability(history).ok,
        replay_history(IncrementalLinearizabilityChecker(), history).ok,
        check_causal_consistency(history).ok,
        replay_history(IncrementalCausalChecker(), history).ok,
        validate_weak_fork_linearizability(history, views).ok,
    )


class TestDigestedValueEquivalence:
    def _digest_form_changes_no_verdict(self, data):
        history = _padded(data.draw(small_histories()), data)
        digested = History(
            [replace(op, value=digest_form(op.value)) for op in history]
        )
        assert sum(op.value != d.value for op, d in zip(history, digested)) == sum(
            type(op.value) is bytes and len(op.value) >= DIGEST_FORM_MIN_BYTES
            for op in history
        )

        def mapped(views):
            return {
                client: [digested.op(op.op_id) for op in view]
                for client, view in views.items()
            }

        pi_i, pi_j = _candidate_views(data.draw, history)
        views = {0: pi_i, 1: pi_j}
        assert _verdicts(history, views) == _verdicts(digested, mapped(views))
        if len(history) <= 6:
            found = search_views(WEAK_FORK_LINEARIZABILITY, history)
            assert search_views(WEAK_FORK_LINEARIZABILITY, digested).ok == found.ok
            if found.ok:
                assert validate_weak_fork_linearizability(
                    digested, mapped(found.witness)
                ).ok

    test_digest_form_changes_no_verdict, test_digest_form_changes_no_verdict_full = (
        two_budgets(100, 1000, st.data())(_digest_form_changes_no_verdict)
    )

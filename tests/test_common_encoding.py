"""Canonical encoding: injectivity is what the signatures rely on."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.encoding import (
    decode,
    decode_reference,
    encode,
    encode_reference,
    encode_sequence,
    encoded_length,
)
from repro.common.errors import (
    DecodeError,
    EncodingError,
    OversizedFrameError,
    TruncatedFrameError,
)
from repro.common.types import OpKind


class TestBasicEncoding:
    def test_none_encodes(self):
        assert isinstance(encode(None), bytes)

    def test_ints_encode(self):
        assert encode(0) != encode(1)

    def test_negative_int_differs_from_positive(self):
        assert encode(-5) != encode(5)

    def test_large_int(self):
        big = 2**200 + 17
        assert encode(big) != encode(big + 1)

    def test_bool_differs_from_int(self):
        assert encode(True) != encode(1)
        assert encode(False) != encode(0)

    def test_bytes_and_str_differ(self):
        assert encode(b"abc") != encode("abc")

    def test_enum_members_distinct(self):
        assert encode(OpKind.READ) != encode(OpKind.WRITE)

    def test_enum_differs_from_its_name(self):
        assert encode(OpKind.READ) != encode("READ")

    def test_nested_sequences(self):
        assert encode((1, (2, 3))) != encode((1, 2, 3))

    def test_empty_sequence(self):
        assert encode(()) != encode((None,))

    def test_unsupported_type_raises(self):
        with pytest.raises(EncodingError):
            encode(object())

    def test_float_rejected(self):
        # Floats have no canonical form; protocols must not sign them.
        with pytest.raises(EncodingError):
            encode(1.5)

    def test_encode_sequence_matches_tuple(self):
        assert encode_sequence([1, 2]) == encode((1, 2))

    def test_bytearray_and_bytes_agree(self):
        assert encode(bytearray(b"xy")) == encode(b"xy")


class TestConcatenationAmbiguity:
    """The classical ambiguities plain concatenation suffers from."""

    def test_string_split_points(self):
        assert encode("ab", "c") != encode("a", "bc")

    def test_bytes_split_points(self):
        assert encode(b"ab", b"c") != encode(b"a", b"bc")

    def test_empty_vs_missing(self):
        assert encode("a", "") != encode("a")

    def test_protocol_payload_shapes(self):
        # The exact payload shapes USTOR signs must be mutually distinct.
        submit = encode("SUBMIT", OpKind.WRITE, 0, 1)
        data = encode("DATA", 1, b"\x00" * 32)
        commit = encode("COMMIT", (1, 0), (b"\x01" * 32, None))
        proof = encode("PROOF", b"\x01" * 32)
        payloads = [submit, data, commit, proof]
        assert len(set(payloads)) == 4


class TestUntrustedInputHardening:
    """Socket peers are untrusted: decode failures must be typed.

    The real transport (``repro.net``) feeds bytes straight off a TCP
    stream into :func:`decode`; these tests pin the error contract the
    frame reader relies on (both decoder implementations, since the
    equivalence suite asserts they reject identically).
    """

    DECODERS = (decode, decode_reference)

    def test_truncation_is_typed_at_every_cut(self):
        blob = encode("SUBMIT", OpKind.WRITE, 7, b"\x00" * 32, ("x", -1), None)
        for cut in range(len(blob)):
            for dec in self.DECODERS:
                with pytest.raises(TruncatedFrameError):
                    dec(blob[:cut], enums=(OpKind,))

    def test_truncated_is_a_decode_and_encoding_error(self):
        assert issubclass(TruncatedFrameError, DecodeError)
        assert issubclass(OversizedFrameError, DecodeError)
        assert issubclass(DecodeError, EncodingError)

    def test_oversized_input_rejected_before_decoding(self):
        blob = encode(b"\x01" * 1024)
        for dec in self.DECODERS:
            with pytest.raises(OversizedFrameError):
                dec(blob, max_bytes=64)

    def test_max_bytes_at_exact_size_accepted(self):
        blob = encode("hello")
        for dec in self.DECODERS:
            assert dec(blob, max_bytes=len(blob)) == ("hello",)

    #: 2**40 as a length field: five empty groups, then bit 5 of the sixth.
    HUGE = b"\x80\x80\x80\x80\x80\x20"

    def test_huge_declared_sequence_count_fails_fast(self):
        # A 1 TiB element count in a 7-byte input must be rejected without
        # looping a trillion times.
        bad = b"\x05" + self.HUGE
        for dec in self.DECODERS:
            with pytest.raises(TruncatedFrameError):
                dec(bad)

    def test_huge_declared_byte_length_fails_fast(self):
        bad = b"\x05\x01" + b"\x03" + self.HUGE
        for dec in self.DECODERS:
            with pytest.raises(TruncatedFrameError):
                dec(bad)

    def test_structural_corruption_stays_plain_encoding_error(self):
        # Unknown tags / bad sign bytes are corruption, not truncation.
        unknown_tag = b"\x05\x01" + b"\x7f"
        bad_sign = b"\x05\x01" + b"\x02\x09\x01\x01"
        for blob in (unknown_tag, bad_sign):
            for dec in self.DECODERS:
                with pytest.raises(EncodingError) as excinfo:
                    dec(blob)
                assert not isinstance(excinfo.value, DecodeError)


class TestLengthFields:
    """The varint length: one spelling per length, on both code paths."""

    DECODERS = (decode, decode_reference)
    ENCODERS = (encode, encode_reference)

    @pytest.mark.parametrize(
        "length, field",
        [
            (0, "00"),
            (1, "01"),
            (127, "7f"),
            (128, "8001"),
            (16_383, "ff7f"),
            (16_384, "808001"),
        ],
    )
    def test_boundary_lengths_round_trip(self, length, field):
        payload = bytes(length)
        for enc in self.ENCODERS:
            blob = enc(payload, "x" * length, (None,) * length)
            assert blob[:3 + len(field) // 2] == b"\x05\x03\x03" + bytes.fromhex(field)
            for dec in self.DECODERS:
                assert dec(blob) == (payload, "x" * length, (None,) * length)
        assert encoded_length(length) == bytes.fromhex(field)

    def test_four_gigabyte_length_field(self):
        # 2**32 needs five groups; a payload that long is not built here,
        # so the field is checked alone and the decoders on its header.
        field = b"\x80\x80\x80\x80\x10"
        assert encoded_length(2**32) == field
        for dec in self.DECODERS:
            with pytest.raises(TruncatedFrameError, match=str(2**32)):
                dec(b"\x05\x01\x03" + field)

    def test_int_magnitude_of_128_bytes(self):
        big = 2 ** (8 * 128) - 1
        for enc in self.ENCODERS:
            blob = enc(big, -big)
            assert blob[2:6] == b"\x02\x01\x80\x01"
            for dec in self.DECODERS:
                assert dec(blob) == (big, -big)

    @pytest.mark.parametrize(
        "field, error",
        [
            (b"\x80\x00", EncodingError),  # non-minimal zero
            (b"\x81\x00", EncodingError),  # non-minimal one
            (b"\xff\x80\x00", EncodingError),
            (b"\x80" * 9 + b"\x01", EncodingError),  # ten groups
            (b"\xff" * 9 + b"\x7f", EncodingError),
            (b"\x80", TruncatedFrameError),  # cut mid-varint
            (b"\x80" * 8, TruncatedFrameError),
        ],
    )
    @pytest.mark.parametrize("head", [b"\x05", b"\x05\x01\x03", b"\x05\x01\x02\x01"])
    def test_malformed_length_same_error_type(self, head, field, error):
        for dec in self.DECODERS:
            with pytest.raises(EncodingError) as excinfo:
                dec(head + field)
            assert type(excinfo.value) is error

    def test_nine_groups_is_the_longest_accepted(self):
        # 2**63 - 1 elements: well-formed, merely more than the input holds.
        for dec in self.DECODERS:
            with pytest.raises(TruncatedFrameError, match=str(2**63 - 1)):
                dec(b"\x05" + b"\xff" * 8 + b"\x7f")

    def test_truncation_at_every_offset_of_long_fields(self):
        blob = encode(bytes(200), "y" * 130, (1,) * 129, 2 ** (8 * 130))
        assert decode(blob) == decode_reference(blob)
        for cut in range(len(blob)):
            for dec in self.DECODERS:
                with pytest.raises(TruncatedFrameError):
                    dec(blob[:cut])


class TestNestingBound:
    DECODERS = (decode, decode_reference)

    @staticmethod
    def nested(levels: int) -> bytes:
        return b"\x05\x01" * levels + b"\x00"

    def test_protocol_depths_decode(self):
        value = None
        for _ in range(31):
            value = (value,)
        for dec in self.DECODERS:
            assert dec(encode(value)) == (value,)
            assert dec(self.nested(32))

    @pytest.mark.parametrize("levels", [33, 1000, 5000])
    def test_deep_nesting_is_an_encoding_error_not_a_recursion_error(self, levels):
        for dec in self.DECODERS:
            with pytest.raises(EncodingError, match="nested deeper") as excinfo:
                dec(self.nested(levels))
            assert type(excinfo.value) is EncodingError


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.binary(max_size=24),
    st.text(max_size=24),
)
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=8
)


class TestEncodingProperties:
    @given(st.lists(_values, max_size=5), st.lists(_values, max_size=5))
    def test_injective_on_random_values(self, left, right):
        if tuple(left) != tuple(right):
            assert encode(*left) != encode(*right)
        else:
            assert encode(*left) == encode(*right)

    @given(_values)
    def test_deterministic(self, value):
        assert encode(value) == encode(value)

    @given(_values, _values)
    def test_prefix_code(self, a, b):
        # No encoding is a strict prefix of another (needed for streaming
        # safety of concatenated fields).
        ea, eb = encode(a), encode(b)
        if ea != eb:
            assert not eb.startswith(ea)
            assert not ea.startswith(eb)

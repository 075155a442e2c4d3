"""Identifiers, BOTTOM, and name rendering."""

from __future__ import annotations

import pickle

from repro.common.types import (
    BOTTOM,
    DIGEST_FORM_MIN_BYTES,
    Bottom,
    OpKind,
    ValueDigest,
    client_name,
    parse_client_name,
    register_name,
)
from repro.crypto.hashing import HASH_BYTES, digest_form, hash_register_value
from repro.history.events import Operation
from repro.ustor.messages import MARKER_BYTES


class TestBottom:
    def test_singleton(self):
        assert Bottom() is BOTTOM

    def test_repr(self):
        assert repr(BOTTOM) == "BOTTOM"

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM

    def test_not_equal_to_bytes(self):
        assert BOTTOM != b""
        assert BOTTOM != b"BOTTOM"

    def test_outside_value_domain(self):
        assert not isinstance(BOTTOM, bytes)


class TestValueDigest:
    def test_the_threshold_is_where_the_digest_form_is_smaller(self):
        assert DIGEST_FORM_MIN_BYTES == MARKER_BYTES + HASH_BYTES + 1

    def test_the_rule(self):
        short = b"x" * (DIGEST_FORM_MIN_BYTES - 1)
        long = b"x" * DIGEST_FORM_MIN_BYTES
        for value in (None, BOTTOM, short, ValueDigest(b"d" * 32)):
            assert digest_form(value) is value
        assert digest_form(long) == ValueDigest(hash_register_value(long))
        assert digest_form(long, b"h" * 32) == ValueDigest(b"h" * 32)

    def test_one_rendering(self):
        digest = ValueDigest(bytes(range(32)))
        assert repr(digest) == str(digest) == "H:0001020304050607"
        op = Operation(1, 0, OpKind.WRITE, 0, digest, invoked_at=0, responded_at=1)
        assert op.describe() == "write_C1(X1, H:0001020304050607)"

    def test_hashable_and_equal_by_digest(self):
        assert {ValueDigest(b"a"): 1}[ValueDigest(b"a")] == 1
        assert ValueDigest(b"a") != b"a"


class TestNames:
    def test_client_name_is_one_based(self):
        assert client_name(0) == "C1"
        assert client_name(9) == "C10"

    def test_register_name_is_one_based(self):
        assert register_name(0) == "X1"

    def test_parse_roundtrip(self):
        for i in (0, 1, 7, 42):
            assert parse_client_name(client_name(i)) == i

    def test_parse_rejects_server(self):
        assert parse_client_name("S") is None

    def test_parse_rejects_garbage(self):
        assert parse_client_name("C") is None
        assert parse_client_name("Cx") is None
        assert parse_client_name("C0") is None  # 1-based names start at C1
        assert parse_client_name("") is None


class TestOpKind:
    def test_two_kinds(self):
        assert {OpKind.READ, OpKind.WRITE} == set(OpKind)

    def test_str(self):
        assert str(OpKind.READ) == "READ"

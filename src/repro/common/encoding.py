"""Canonical, injective byte encoding for signing and hashing.

The paper signs and hashes structured payloads such as
``SUBMIT || WRITE || i || t`` (Algorithm 1, line 14).  Plain string
concatenation is not injective (``"ab" + "c" == "a" + "bc"``), which would
void the unforgeability argument, so every payload that flows into
:mod:`repro.crypto` goes through this module's tag-length-value encoder.

The encoding is deliberately tiny and self-contained:

========  ====================  ======================================
tag 0x00  ``None`` (``BOTTOM``)  tag only
tag 0x01  ``bool``              tag, ``0x00`` / ``0x01``
tag 0x02  ``int`` (unbounded)   tag, sign ``0x00`` (-) / ``0x01`` (+),
                                *len*, magnitude (big-endian)
tag 0x03  ``bytes``             tag, *len*, payload
tag 0x04  ``str``               tag, *len*, UTF-8
tag 0x05  ``tuple``/``list``    tag, *len* (element count), elements
tag 0x06  enum members          tag, *len*, ``ClassName.MEMBER`` (UTF-8)
========  ====================  ======================================

Every *len* is an unsigned LEB128 varint — seven bits per byte, least
significant group first, the high bit set on every byte but the last —
so every length below 128 (all of protocol metadata: digests, signatures,
vectors of ``n`` clients) is one byte.  Decoders accept only the
*minimal* form (``0x80 0x00`` is not another spelling of 0) and at most
nine groups (63 bits).  A varint says where it ends, so ``tag || len ||
payload`` is still a prefix code; the minimal form gives each length one
spelling, hence each value one encoding: ``encode`` is injective, and
``decode`` accepts nothing ``encode`` would not have written.  No other
module knows the length format — fast paths that pre-feed a constant
prefix into a hash state build it from :func:`encode` and
:func:`encoded_length`.

Because the encoding is a prefix code it is also *decodable*:
:func:`decode` is the exact inverse used by the storage engine
(:mod:`repro.store`) to persist server state — the same bytes that are
signed can be replayed from disk.  Sequences decode as tuples (lists and
tuples encode identically); enum members decode through an explicit
registry passed by the caller, keeping this module free of protocol
imports.

Fast path vs. reference
-----------------------

Encoding sits under every signature, every hash and every digest-chain
link, which makes it the single hottest function of the whole
reproduction (see PERFORMANCE.md).  :func:`encode` and :func:`decode` are
therefore implemented as a single-pass fast path: one reused
``bytearray`` output buffer per call, integer tag comparisons on decode,
and small caches for the encodings that recur endlessly in protocol
traffic (domain-separation labels, enum opcodes, small integers, small
lengths).  The original straight-line implementations are kept as
:func:`encode_reference` / :func:`decode_reference` — they are the
executable specification, and ``tests/test_perf_equivalence.py`` proves
byte-for-byte equality between the two on randomized inputs.  The caches
never change outputs; they only skip recomputation of deterministic
byte strings.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable

from repro.common.errors import (
    EncodingError,
    OversizedFrameError,
    TruncatedFrameError,
)

_TAG_NONE = b"\x00"
_TAG_BOOL = b"\x01"
_TAG_INT = b"\x02"
_TAG_BYTES = b"\x03"
_TAG_STR = b"\x04"
_TAG_SEQ = b"\x05"
_TAG_ENUM = b"\x06"

#: A length is at most this many LEB128 groups (9 x 7 = 63 bits).
_MAX_LENGTH_GROUPS = 9

#: Sequences nested deeper than this do not decode.  A REPLY nests six
#: deep, a snapshot or group-commit record seven; the bound makes a hostile
#: frame of nothing but sequence headers an :class:`EncodingError`, which
#: every reader of untrusted bytes handles, not a ``RecursionError``.
_MAX_DEPTH = 32


def _varint(n: int) -> bytes:
    """The length field for ``n``: unsigned LEB128, minimal form."""
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


# --------------------------------------------------------------------- #
# Fast-path caches.  Everything cached here is a pure function of its
# key, so the caches are invisible except for speed; sizes are bounded so
# adversarial inputs (huge strings, unbounded ints) cannot grow them.
# --------------------------------------------------------------------- #

#: Precomputed length fields for the small lengths that dominate real
#: payloads (labels, 32-byte hashes, 64-byte signatures, short vectors).
_LEN_CACHE = tuple(_varint(n) for n in range(512))
_LEN_CACHE_MAX = len(_LEN_CACHE)

#: Bound for the memo dictionaries below (entries, not bytes).
_MEMO_LIMIT = 4096

_INT_MEMO: dict[int, bytes] = {}
_STR_MEMO: dict[str, bytes] = {}
_ENUM_MEMO: dict[enum.Enum, bytes] = {}
#: ``enums`` tuple -> the decoder's ``"ClassName.MEMBER" -> member`` table.
_ENUM_LOOKUP_MEMO: dict[tuple[type, ...], dict[str, enum.Enum]] = {}

#: Miss counter + memo sizes, harvested by :mod:`repro.perf`.  Hits are
#: deliberately *not* counted: the hit path is the hot path, and even one
#: dict increment per memoized value measurably erodes the speedup the
#: memos exist to provide.  Misses (rare: one per distinct value a memo
#: goes on to hold; ints and strings outside a memo's bound are encoded
#: afresh each time and not counted) plus entry counts characterise the
#: caches fully enough for the cost model.
_stats = {"misses": 0}


def encoding_cache_stats() -> dict[str, int]:
    """Miss counter and entry counts of the encode memo caches."""
    return {
        "misses": _stats["misses"],
        "int_entries": len(_INT_MEMO),
        "str_entries": len(_STR_MEMO),
        "enum_entries": len(_ENUM_MEMO),
    }


def reset_encoding_caches() -> None:
    """Drop all memoized encodings and zero the counters (test isolation)."""
    _INT_MEMO.clear()
    _STR_MEMO.clear()
    _ENUM_MEMO.clear()
    _ENUM_LOOKUP_MEMO.clear()
    _stats["misses"] = 0


def encoded_length(n: int) -> bytes:
    """The canonical length field for ``n`` (public fast-path helper).

    Exactly the bytes :func:`encode` emits between a tag and a payload of
    ``n`` bytes (or a sequence of ``n`` elements); for the fast paths
    that feed a hash state piecewise instead of encoding and hashing.
    """
    return _LEN_CACHE[n] if n < _LEN_CACHE_MAX else _varint(n)


def _int_bytes(value: int) -> bytes:
    """The full ``tag || sign || length || magnitude`` encoding of an int
    (memo slow path — the hit path is inlined in :func:`_encode_into`).

    Only ints inside the memo bound count as a miss and are stored; the
    rest (timestamps and WAL sequence numbers grow past it within one
    run) are rebuilt on every call, so for them this touches neither the
    counter nor the dictionary.
    """
    magnitude = abs(value)
    payload = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    raw = (
        (b"\x02\x01" if value >= 0 else b"\x02\x00")
        + encoded_length(len(payload))
        + payload
    )
    if magnitude <= _MEMO_LIMIT:
        _stats["misses"] += 1
        if len(_INT_MEMO) >= 2 * _MEMO_LIMIT:  # pragma: no cover - bound guard
            _INT_MEMO.clear()
        _INT_MEMO[value] = raw
    return raw


def _str_bytes(value: str) -> bytes:
    """The full ``tag || length || utf8`` encoding of a string
    (memo slow path)."""
    raw_payload = value.encode("utf-8")
    raw = _TAG_STR + encoded_length(len(raw_payload)) + raw_payload
    if len(raw_payload) <= 64:
        _stats["misses"] += 1
        if len(_STR_MEMO) >= _MEMO_LIMIT:  # pragma: no cover - bound guard
            _STR_MEMO.clear()
        _STR_MEMO[value] = raw
    return raw


def _enum_bytes(value: enum.Enum) -> bytes:
    """The full ``tag || length || ClassName.MEMBER`` encoding of a member
    (memo slow path)."""
    _stats["misses"] += 1
    name = f"{type(value).__name__}.{value.name}".encode("utf-8")
    raw = _TAG_ENUM + encoded_length(len(name)) + name
    if len(_ENUM_MEMO) >= _MEMO_LIMIT:  # pragma: no cover - bound guard
        _ENUM_MEMO.clear()
    _ENUM_MEMO[value] = raw
    return raw


def encoded_int(value: int) -> bytes:
    """The canonical encoding of a bare ``int`` (public fast-path helper).

    Exactly the bytes :func:`encode` emits for an integer element,
    served from the small-int memo when possible.  Exists so other fast
    paths (the digest chain feeds client ids straight into a hash state)
    can reuse the memo without touching this module's internals.
    """
    memo = _INT_MEMO.get(value)
    return memo if memo is not None else _int_bytes(value)


def _encode_slow(value: Any, buf: bytearray) -> None:
    """Uncommon types: enum members, bytes-like views, subclasses, errors.

    Mirrors the type dispatch order of the reference encoder exactly
    (bool before int, enum before int) so subclass corner cases encode
    identically on both paths.
    """
    if isinstance(value, bool):
        buf += b"\x01\x01" if value else b"\x01\x00"
    elif isinstance(value, enum.Enum):
        buf += _ENUM_MEMO.get(value) or _enum_bytes(value)
    elif isinstance(value, int):
        buf += _INT_MEMO.get(value) or _int_bytes(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        buf += _TAG_BYTES
        buf += encoded_length(len(raw))
        buf += raw
    elif isinstance(value, str):
        buf += _STR_MEMO.get(value) or _str_bytes(value)
    elif isinstance(value, (tuple, list)):
        buf += _TAG_SEQ
        buf += encoded_length(len(value))
        for item in value:
            _encode_into(item, buf)
    else:
        raise EncodingError(
            f"cannot canonically encode value of type {type(value).__name__}: {value!r}"
        )


def _encode_into(value: Any, buf: bytearray) -> None:
    """Append the canonical encoding of ``value`` to ``buf`` (single pass).

    Dispatches on exact type first — ``value.__class__`` identity is the
    cheapest check CPython offers and covers all protocol traffic — with
    memo lookups inlined so a hit costs one dict probe and one buffer
    append.  Exactness matters for correctness too: ``True`` has class
    ``bool``, not ``int``, so the bool-before-int rule of the reference
    encoder is preserved; subclasses fall through to :func:`_encode_slow`,
    which replicates the reference dispatch order.
    """
    cls = value.__class__
    if cls is int:
        memo = _INT_MEMO.get(value)
        buf += memo if memo is not None else _int_bytes(value)
    elif cls is bytes:
        buf += _TAG_BYTES
        n = len(value)
        buf += _LEN_CACHE[n] if n < _LEN_CACHE_MAX else _varint(n)
        buf += value
    elif cls is str:
        memo = _STR_MEMO.get(value)
        buf += memo if memo is not None else _str_bytes(value)
    elif cls is tuple or cls is list:
        buf += _TAG_SEQ
        n = len(value)
        buf += _LEN_CACHE[n] if n < _LEN_CACHE_MAX else _varint(n)
        # Timestamp and digest vectors: exact int / bytes / None leaves
        # are appended here, one call saved per element; everything else
        # (subclasses, bool and enum members included) takes the dispatch
        # above.
        for item in value:
            leaf = item.__class__
            if leaf is int:
                memo = _INT_MEMO.get(item)
                buf += memo if memo is not None else _int_bytes(item)
            elif leaf is bytes:
                buf += _TAG_BYTES
                n = len(item)
                buf += _LEN_CACHE[n] if n < _LEN_CACHE_MAX else _varint(n)
                buf += item
            elif item is None:
                buf += _TAG_NONE
            else:
                _encode_into(item, buf)
    elif value is None:
        buf += _TAG_NONE
    elif cls is bool:
        buf += b"\x01\x01" if value else b"\x01\x00"
    else:
        _encode_slow(value, buf)


def encode(*values: Any) -> bytes:
    """Encode ``values`` as a single canonical byte string.

    ``encode(a, b)`` is equivalent to ``encode((a, b))`` modulo a constant
    prefix; both are injective.  This is the only entry point the rest of
    the library uses, e.g. ``encode("SUBMIT", OpKind.WRITE, i, t)`` for the
    SUBMIT-signature payload of Algorithm 1 line 14.  Byte-identical to
    :func:`encode_reference`.
    """
    buf = bytearray()
    buf += _TAG_SEQ
    n = len(values)
    buf += _LEN_CACHE[n] if n < _LEN_CACHE_MAX else _varint(n)
    for value in values:
        _encode_into(value, buf)
    return bytes(buf)


def encode_sequence(values: Iterable[Any]) -> bytes:
    """Encode an iterable of values (materialised as a tuple)."""
    return encode(tuple(values))


# --------------------------------------------------------------------- #
# Decoding — the inverse, used by repro.store for durable server state
# --------------------------------------------------------------------- #


def _truncated(needed: int, offset: int, end: int) -> TruncatedFrameError:
    return TruncatedFrameError(
        f"truncated encoding: needed {needed} byte(s) at offset {offset}, "
        f"only {end - offset} available"
    )


def _long_length(data: bytes, offset: int, end: int, first: int) -> tuple[int, int]:
    """The rest of a length field whose first byte ``first`` (consumed,
    continuation bit set); returns (length, new offset).  Checks run in
    :func:`_take_length`'s order, so malformed input raises the same error
    *type* on both paths.
    """
    count = first & 0x7F
    for shift in range(7, 7 * _MAX_LENGTH_GROUPS, 7):
        if offset >= end:
            raise _truncated(1, offset, end)
        byte = data[offset]
        offset += 1
        count |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0:
                raise EncodingError(f"non-minimal length field before offset {offset}")
            return count, offset
    raise EncodingError(f"length field too long before offset {offset}")


def _decode_fast(
    data: bytes,
    offset: int,
    end: int,
    enum_lookup: dict[str, enum.Enum],
    depth: int,
    _from_bytes=int.from_bytes,
) -> tuple[Any, int]:
    """Decode one value starting at ``offset``; returns (value, new offset).

    Tags are compared as integers (``data[offset]``), a one-byte length
    field is read in place, and bounds are checked inline — the hot loop
    allocates nothing but the decoded values themselves.  Truncation is
    reported as the typed :class:`TruncatedFrameError` so socket readers
    can distinguish a short read from structural corruption; the
    sequence-count guard rejects a declared element count larger than the
    remaining input *before* looping (every element costs at least one
    byte, so such a count can never decode — failing fast keeps a hostile
    peer from driving a long doomed loop), and ``depth`` (the number of
    sequences enclosing this value) is held to :data:`_MAX_DEPTH`.
    """
    if offset >= end:
        raise _truncated(1, offset, end)
    tag = data[offset]
    offset += 1
    if tag == 0x00:
        return None, offset
    if tag == 0x01:
        if offset >= end:
            raise _truncated(1, offset, end)
        raw = data[offset]
        if raw > 1:
            raise EncodingError(f"malformed bool payload {data[offset:offset + 1]!r}")
        return raw == 1, offset + 1
    if tag > 0x06:
        raise EncodingError(f"unknown encoding tag 0x{tag:02x} at offset {offset - 1}")
    # Tags 0x02-0x06 carry a length field (an int's follows its sign byte).
    if tag == 0x02:
        if offset >= end:
            raise _truncated(1, offset, end)
        sign = data[offset]
        if sign > 1:
            raise EncodingError(f"malformed int sign byte {data[offset:offset + 1]!r}")
        offset += 1
    if offset >= end:
        raise _truncated(1, offset, end)
    count = data[offset]
    offset += 1
    if count > 0x7F:
        count, offset = _long_length(data, offset, end, count)
    if tag == 0x05:
        if depth >= _MAX_DEPTH:
            raise EncodingError(f"sequences nested deeper than {_MAX_DEPTH}")
        if count > end - offset:
            raise TruncatedFrameError(
                f"truncated encoding: sequence declares {count} element(s) at "
                f"offset {offset}, only {end - offset} byte(s) available"
            )
        depth += 1
        items = []
        append = items.append
        for _ in range(count):
            item, offset = _decode_fast(data, offset, end, enum_lookup, depth)
            append(item)
        return tuple(items), offset
    if offset + count > end:
        raise _truncated(count, offset, end)
    payload = data[offset:offset + count]
    offset += count
    if tag == 0x03:
        return payload, offset
    if tag == 0x02:
        magnitude = _from_bytes(payload, "big")
        return (magnitude if sign == 1 else -magnitude), offset
    name = payload.decode("utf-8")
    if tag == 0x04:
        return name, offset
    try:
        return enum_lookup[name], offset
    except KeyError:
        raise EncodingError(
            f"cannot decode enum member {name!r}: its class was not "
            f"passed in ``enums``"
        ) from None


def _enum_lookup(enums: tuple[type, ...]) -> dict[str, enum.Enum]:
    """Build and memoise the decoder's member table for one ``enums`` tuple."""
    lookup = {
        f"{cls.__name__}.{member.name}": member for cls in enums for member in cls
    }
    if len(_ENUM_LOOKUP_MEMO) >= _MEMO_LIMIT:  # pragma: no cover - bound guard
        _ENUM_LOOKUP_MEMO.clear()
    _ENUM_LOOKUP_MEMO[enums] = lookup
    return lookup


def decode(
    data: bytes, *, enums: Iterable[type] = (), max_bytes: int | None = None
) -> tuple:
    """Inverse of :func:`encode`: ``decode(encode(a, b)) == (a, b)``.

    ``enums`` lists the enum classes that may appear in the payload (their
    members are keyed by ``ClassName.MEMBER``, exactly as encoded).  Lists
    always decode as tuples — the encoder does not distinguish them.
    Raises :class:`EncodingError` on trailing bytes, unknown tags, or enum
    members outside the registry; the :class:`DecodeError` subclasses
    :class:`TruncatedFrameError` (input ended mid-value) and
    :class:`OversizedFrameError` (input longer than ``max_bytes``) refine
    the failures an untrusted socket peer can provoke.  ``max_bytes`` is
    the hard input-size ceiling callers decoding network bytes must set —
    it is checked before any decoding work happens.
    """
    key = enums if type(enums) is tuple else tuple(enums)
    lookup = _ENUM_LOOKUP_MEMO.get(key)
    if lookup is None:
        lookup = _enum_lookup(key)
    raw = bytes(data)
    if max_bytes is not None and len(raw) > max_bytes:
        raise OversizedFrameError(
            f"refusing to decode {len(raw)} byte(s): exceeds the "
            f"{max_bytes}-byte limit"
        )
    value, offset = _decode_fast(raw, 0, len(raw), lookup, 0)
    if offset != len(raw):
        raise EncodingError(
            f"trailing garbage: {len(raw) - offset} byte(s) after a complete "
            f"encoding"
        )
    if not isinstance(value, tuple):
        raise EncodingError("top-level encoding must be a sequence")
    return value


# --------------------------------------------------------------------- #
# Reference implementations — the executable specification.
#
# These are the original, straight-line encoder/decoder.  They are kept
# (and exported) for three reasons: the property-based equivalence tests
# compare the fast path against them byte for byte, the benchmark suite
# measures the fast path's speedup over them, and they document the wire
# format without any caching noise.  Do not optimize these.
# --------------------------------------------------------------------- #


def _encode_one_reference(value: Any, out: list[bytes]) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif isinstance(value, bool):  # must precede int: bool is an int subclass
        out.append(_TAG_BOOL)
        out.append(b"\x01" if value else b"\x00")
    elif isinstance(value, enum.Enum):
        out.append(_TAG_ENUM)
        name = f"{type(value).__name__}.{value.name}".encode("utf-8")
        out.append(_varint(len(name)))
        out.append(name)
    elif isinstance(value, int):
        sign = b"\x01" if value >= 0 else b"\x00"
        magnitude = abs(value)
        payload = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        out.append(_TAG_INT)
        out.append(sign)
        out.append(_varint(len(payload)))
        out.append(payload)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_TAG_BYTES)
        out.append(_varint(len(raw)))
        out.append(raw)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out.append(_varint(len(raw)))
        out.append(raw)
    elif isinstance(value, (tuple, list)):
        out.append(_TAG_SEQ)
        out.append(_varint(len(value)))
        for item in value:
            _encode_one_reference(item, out)
    else:
        raise EncodingError(
            f"cannot canonically encode value of type {type(value).__name__}: {value!r}"
        )


def encode_reference(*values: Any) -> bytes:
    """Reference encoder: specification for (and byte-identical to)
    :func:`encode`."""
    out: list[bytes] = []
    _encode_one_reference(tuple(values), out)
    return b"".join(out)


def _take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if end > len(data):
        raise _truncated(count, offset, len(data))
    return data[offset:end], end


def _take_length(data: bytes, offset: int) -> tuple[int, int]:
    """Read one length field: LEB128, minimal form, at most nine groups."""
    count = 0
    for group in range(_MAX_LENGTH_GROUPS):
        raw, offset = _take(data, offset, 1)
        count |= (raw[0] & 0x7F) << (7 * group)
        if raw[0] < 0x80:
            if raw[0] == 0 and group > 0:
                raise EncodingError(f"non-minimal length field before offset {offset}")
            return count, offset
    raise EncodingError(f"length field too long before offset {offset}")


def _decode_one_reference(
    data: bytes, offset: int, enum_lookup: dict[str, enum.Enum], depth: int
) -> tuple[Any, int]:
    tag, offset = _take(data, offset, 1)
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_BOOL:
        raw, offset = _take(data, offset, 1)
        if raw not in (b"\x00", b"\x01"):
            raise EncodingError(f"malformed bool payload {raw!r}")
        return raw == b"\x01", offset
    if tag == _TAG_INT:
        sign, offset = _take(data, offset, 1)
        if sign not in (b"\x00", b"\x01"):
            raise EncodingError(f"malformed int sign byte {sign!r}")
        count, offset = _take_length(data, offset)
        payload, offset = _take(data, offset, count)
        magnitude = int.from_bytes(payload, "big")
        return (magnitude if sign == b"\x01" else -magnitude), offset
    if tag == _TAG_BYTES:
        count, offset = _take_length(data, offset)
        payload, offset = _take(data, offset, count)
        return payload, offset
    if tag == _TAG_STR:
        count, offset = _take_length(data, offset)
        payload, offset = _take(data, offset, count)
        return payload.decode("utf-8"), offset
    if tag == _TAG_SEQ:
        count, offset = _take_length(data, offset)
        if depth >= _MAX_DEPTH:
            raise EncodingError(f"sequences nested deeper than {_MAX_DEPTH}")
        if count > len(data) - offset:  # mirror of the fast-path guard
            raise TruncatedFrameError(
                f"truncated encoding: sequence declares {count} element(s) at "
                f"offset {offset}, only {len(data) - offset} byte(s) available"
            )
        items = []
        for _ in range(count):
            item, offset = _decode_one_reference(data, offset, enum_lookup, depth + 1)
            items.append(item)
        return tuple(items), offset
    if tag == _TAG_ENUM:
        count, offset = _take_length(data, offset)
        payload, offset = _take(data, offset, count)
        name = payload.decode("utf-8")
        try:
            return enum_lookup[name], offset
        except KeyError:
            raise EncodingError(
                f"cannot decode enum member {name!r}: its class was not "
                f"passed in ``enums``"
            ) from None
    raise EncodingError(f"unknown encoding tag 0x{tag.hex()} at offset {offset - 1}")


def decode_reference(
    data: bytes, *, enums: Iterable[type] = (), max_bytes: int | None = None
) -> tuple:
    """Reference decoder: specification for (and equivalent to)
    :func:`decode`."""
    lookup: dict[str, enum.Enum] = {
        f"{cls.__name__}.{member.name}": member for cls in enums for member in cls
    }
    raw = bytes(data)
    if max_bytes is not None and len(raw) > max_bytes:
        raise OversizedFrameError(
            f"refusing to decode {len(raw)} byte(s): exceeds the "
            f"{max_bytes}-byte limit"
        )
    value, offset = _decode_one_reference(raw, 0, lookup, 0)
    if offset != len(data):
        raise EncodingError(
            f"trailing garbage: {len(data) - offset} byte(s) after a complete "
            f"encoding"
        )
    if not isinstance(value, tuple):
        raise EncodingError("top-level encoding must be a sequence")
    return value

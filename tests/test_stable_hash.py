"""Pins of :func:`repro.sim.rng.stable_hash64` and its bulk helper.

Every page token, RNG stream seed and cache fingerprint hashes through
``stable_hash64``, so its output must never drift.  The table below pins
literal values for every type tag of the documented encoding; the
properties check the fast paths against a reference implementation of
that encoding kept here, independent of the code under test.
"""

import hashlib
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import encode_parts, stable_hash64, stable_hash64_column


def reference_hash64(*parts):
    """The documented encoding, written out the slow, obvious way.

    Per part: a 4-byte little-endian length, then a type tag and the
    payload (``b``ytes, ``s``tr as UTF-8, b``o``ol as 0/1, ``i``nt as
    decimal, ``f``loat as ``repr``).  Digest: 8-byte BLAKE2b, read
    little-endian, with 0 mapped to 1.
    """
    hasher = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bytes):
            encoded = b"b" + part
        elif isinstance(part, str):
            encoded = b"s" + part.encode("utf-8")
        elif isinstance(part, bool):
            encoded = b"o" + (b"1" if part else b"0")
        elif isinstance(part, int):
            encoded = b"i" + str(part).encode("ascii")
        elif isinstance(part, float):
            encoded = b"f" + repr(part).encode("ascii")
        else:
            raise TypeError(type(part).__name__)
        hasher.update(len(encoded).to_bytes(4, "little"))
        hasher.update(encoded)
    return int.from_bytes(hasher.digest(), "little") or 1


class Level(IntEnum):
    LOW = 3


PINS = [
    ((), 0xB4B2797457A0A6E4),
    (("heap",), 0x3936A80AD0B9BAEA),
    (("",), 0x227249D46399F3D5),
    (("Grüße", "日本語"), 0x80EFA17865D5C814),
    ((0,), 0xFCEC4344CDC1C9D4),
    ((-42,), 0xE54C7E0F1A86B80B),
    ((2**80 + 7,), 0x4A7BC8D71C066496),
    ((-(2**70),), 0xF53815F22098E01D),
    ((True,), 0xD493CE14BEB5D0BB),
    ((False,), 0x6A70DC0B543BD82),
    ((0.1,), 0x3934BDDF4B2C4E7E),
    ((-1.5e300,), 0xF292A63522EA9838),
    ((float("inf"),), 0xAE42C2039BD50135),
    ((b"",), 0xBC5874151DA9A1A2),
    ((b"\x00\xffabc",), 0x5C23253FA35F3D0D),
    # The shapes of a JVM heap token and a page-layout token.
    (("heap", "vm1", 1234, "nursery", 5000, 7), 0xBD1CAF2180B6A3C5),
    (("page", 17, 0, 4096, 0), 0xE8B51DEA96017801),
]


@pytest.mark.parametrize(
    "parts, expected", PINS, ids=[repr(parts) for parts, _ in PINS]
)
def test_pinned_value(parts, expected):
    assert stable_hash64(*parts) == expected
    assert reference_hash64(*parts) == expected


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="str() of an IntEnum member is its name before Python 3.11",
)
def test_pinned_intenum_member():
    # An IntEnum member is an int subclass: it takes the generic route
    # and hashes like its value.
    assert stable_hash64(Level.LOW) == 0x3CC6A6F72A712C47
    assert stable_hash64(Level.LOW) == stable_hash64(3)


def test_pinned_prefix_helpers():
    prefix = encode_parts("heap", "vm1", 1234, "nursery")
    assert stable_hash64_column(prefix, [5000], encode_parts(7)) == [
        0xBD1CAF2180B6A3C5
    ]
    assert stable_hash64_column(encode_parts(), [], b"") == []


parts_strategy = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
    st.integers(),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.binary(max_size=16),
    st.sampled_from(list(Level)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(parts_strategy, max_size=8))
def test_fast_path_matches_reference(parts):
    assert stable_hash64(*parts) == reference_hash64(*parts)
    encoded = encode_parts(*parts)
    assert (
        int.from_bytes(
            hashlib.blake2b(encoded, digest_size=8).digest(), "little"
        )
        or 1
    ) == reference_hash64(*parts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(parts_strategy, max_size=4),
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=20),
    st.lists(parts_strategy, max_size=3),
)
def test_column_matches_one_hash_per_element(prefix, column, suffix):
    tokens = stable_hash64_column(
        encode_parts(*prefix), column, encode_parts(*suffix)
    )
    assert tokens == [
        reference_hash64(*prefix, value, *suffix) for value in column
    ]


def test_unhashable_part_rejected_by_every_entry_point():
    with pytest.raises(TypeError):
        stable_hash64(None)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        encode_parts(["list"])  # type: ignore[list-item]

"""Named, seeded random streams and stable 64-bit hashing.

Two rules keep the simulation deterministic:

* Nothing uses the global :mod:`random` state.  Every stochastic decision
  draws from a stream obtained from an :class:`RngFactory`, keyed by a
  descriptive name (e.g. ``("jvm", vm_name, pid, "class-load-order")``).
  The same factory seed and the same name always yield the same stream,
  regardless of creation order.

* Content identity uses :func:`stable_hash64`, a BLAKE2b-based hash that is
  stable across processes and Python versions (unlike built-in ``hash``,
  which is salted per process).
"""

from __future__ import annotations

import random
from hashlib import blake2b as _blake2b
from typing import Iterable, List, Tuple, Union

_HashablePart = Union[str, int, bytes, float]


def _encode_part(part: _HashablePart) -> bytes:
    """Encode one hash component with an unambiguous type tag."""
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, bool):  # bool before int: bool is an int subclass
        return b"o" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + str(part).encode("ascii")
    if isinstance(part, float):
        return b"f" + repr(part).encode("ascii")
    raise TypeError(f"unhashable content part of type {type(part).__name__}")


def _append_parts(buf: bytearray, parts) -> None:
    """Append the length-prefixed, type-tagged encoding of ``parts``.

    Exact ``int`` and ``str`` — nearly every part the simulator hashes —
    are encoded inline; ``bytes``, ``bool``, ``float`` and subclasses
    (``IntEnum`` members) go through :func:`_encode_part`.  Both routes
    produce the same bytes.
    """
    for part in parts:
        kind = type(part)
        if kind is int:
            encoded = b"i%d" % part
        elif kind is str:
            encoded = b"s" + part.encode()
        else:
            encoded = _encode_part(part)
        buf += len(encoded).to_bytes(4, "little")
        buf += encoded


def stable_hash64(*parts: _HashablePart) -> int:
    """A process-stable 64-bit hash of the given parts.

    The digest input is, per part, a 4-byte little-endian length followed
    by the part's tagged encoding (:func:`_encode_part`); the result is
    the 8-byte BLAKE2b digest read little-endian.  It is guaranteed
    non-zero so that callers may reserve 0 as a sentinel (the all-zero
    page token).
    """
    buf = bytearray()
    _append_parts(buf, parts)
    return int.from_bytes(_blake2b(buf, digest_size=8).digest(), "little") or 1


def encode_parts(*parts: _HashablePart) -> bytes:
    """The digest input :func:`stable_hash64` builds for ``parts``.

    Encodings concatenate, so a constant prefix (or suffix) of a family
    of hashes can be encoded once and handed to
    :func:`stable_hash64_column`.
    """
    buf = bytearray()
    _append_parts(buf, parts)
    return bytes(buf)


def stable_hash64_column(
    prefix: bytes, column: Iterable[int], suffix: bytes = b""
) -> List[int]:
    """``stable_hash64(*P, x, *S)`` for every ``x`` in ``column``.

    ``prefix`` and ``suffix`` are :func:`encode_parts` of the constant
    parts ``P`` and ``S``; only the varying part is encoded per element,
    so the cost per token is one digest.  ``column`` must hold exact
    ``int`` values (page indices), never ``bool``.
    """
    frombytes = int.from_bytes
    tokens: List[int] = []
    append = tokens.append
    for value in column:
        encoded = b"i%d" % value
        digest = _blake2b(
            prefix + len(encoded).to_bytes(4, "little") + encoded + suffix,
            digest_size=8,
        ).digest()
        append(frombytes(digest, "little") or 1)
    return tokens


class RngFactory:
    """Factory for independent, reproducibly seeded random streams."""

    def __init__(self, seed: int) -> None:
        self._seed = seed

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, *name: _HashablePart) -> random.Random:
        """Return a fresh :class:`random.Random` for the given stream name.

        Calling this twice with the same name returns two independent
        generator objects that produce the same sequence.
        """
        return random.Random(stable_hash64(self._seed, *name))

    def derive(self, *name: _HashablePart) -> "RngFactory":
        """Return a child factory whose streams are namespaced by ``name``."""
        return RngFactory(stable_hash64(self._seed, "derive", *name))

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"


Name = Tuple[_HashablePart, ...]

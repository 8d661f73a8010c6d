"""Immutable bit strings.

A document is a bit string of explicit length; bit 0 is the most significant
bit. Byte serialization zero-pads on the right to a byte boundary.

A Bits exposes its length and value as the read-only slots `nbits` and
`uint`, so a hot check reads `doc.nbits` without a `len()` call. Strings of
8 bits or fewer are shared, as CPython shares small ints: one table per
width 0..8 is built at import (511 objects), `Bits.random` draws widths
1..8 from it, and `Bits.of(value, nbits)` and slices look them up.
`Bits(value, nbits)` always builds a new object. So `==` compares bit
strings and `is` does not: two equal strings may or may not be one object.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .errors import LengthMismatchError, ParameterError

__all__ = ["Bits"]


class Bits:
    """Immutable bit string: `nbits` bits, value `uint` as an int, MSB-first."""

    __slots__ = ("nbits", "uint")

    def __init__(self, value: int, nbits: int):
        nbits = int(nbits)
        value = int(value)
        if nbits < 0:
            raise ParameterError("bit length must be non-negative")
        if value < 0 or value >> nbits:
            raise ParameterError(f"value {value} does not fit in {nbits} bits")
        _set_n(self, nbits)
        _set_v(self, value)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Bits is immutable")

    def __reduce__(self):
        return (Bits, (self.uint, self.nbits))

    # --- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "Bits":
        return cls(0, nbits)

    @classmethod
    def of(cls, value: int, nbits: int) -> "Bits":
        """Bits(value, nbits), the shared instance where nbits is an int 1..8.

        Accepts and refuses what Bits() does: the value is normalised by
        int() before it indexes the table, and a value that does not fit, or
        any other width, goes through Bits() and its errors.
        """
        if nbits.__class__ is int and 0 < nbits <= _SHARED_BITS:
            v = int(value)
            if not v >> nbits:  # 0 <= v < 2^nbits
                return _SMALL[nbits][v]
        return cls(value, nbits)

    @classmethod
    def random(cls, nbits: int, rng: random.Random) -> "Bits":
        """nbits fresh bits from rng.getrandbits.

        Widths 1..8 come from the shared table, indexed by the same draw. A
        zero-length draw consumes no RNG state and returns the shared empty
        string; any other width is built as Bits(draw, nbits). Sharing is safe
        because Bits is immutable.
        """
        if nbits.__class__ is int and 0 < nbits <= _SHARED_BITS:
            return _SMALL[nbits][rng.getrandbits(nbits)]
        if nbits == 0:
            return _EMPTY
        return cls(rng.getrandbits(nbits), nbits)

    @classmethod
    def randoms(cls, nbits: int, count: int, rng: random.Random) -> list["Bits"]:
        """[Bits.random(nbits, rng) for _ in range(count)], from the same
        rng.getrandbits calls: shared strings for int widths 1..8, and the
        loop itself otherwise (width 0 included, which draws nothing and
        gives the shared empty string)."""
        if nbits.__class__ is int and 0 < nbits <= _SHARED_BITS:
            table, draw = _SMALL[nbits], rng.getrandbits
            return [table[draw(nbits)] for _ in range(count)]
        return [cls.random(nbits, rng) for _ in range(count)]

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int | None = None) -> "Bits":
        if nbits is None:
            nbits = 8 * len(data)
        if len(data) * 8 < nbits:
            raise ParameterError("not enough bytes for requested bit length")
        whole = int.from_bytes(data, "big")
        return cls(whole >> (8 * len(data) - nbits), nbits)

    @classmethod
    def from_hex(cls, s: str, nbits: int | None = None) -> "Bits":
        """Bits from hex digits, MSB first; nbits keeps a prefix of them.

        Odd-length hex is padded with a zero nibble, which only nbits <=
        4 * len(s) may cut off again: a pad nibble is never read as data.
        """
        s = s.strip()
        if len(s) % 2:
            if nbits is None or nbits > 4 * len(s):
                raise ParameterError(
                    f"odd-length hex {s!r} holds {4 * len(s)} bits; {nbits or 'whole bytes'} requested"
                )
            s = s + "0"
        return cls.from_bytes(bytes.fromhex(s), nbits)

    @classmethod
    def from_str(cls, s: str) -> "Bits":
        if s and set(s) - {"0", "1"}:
            raise ParameterError("bit string may contain only 0 and 1")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def join(cls, parts: Iterable["Bits"]) -> "Bits":
        v, n = 0, 0
        for p in parts:
            v = (v << len(p)) | p.uint
            n += len(p)
        return cls(v, n)

    # --- views ------------------------------------------------------------

    def __len__(self) -> int:
        return self.nbits

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self.nbits)
            if step != 1:
                raise ParameterError("bit slices must be contiguous")
            width = max(0, stop - start)
            v = (self.uint >> (self.nbits - stop)) & ((1 << width) - 1) if width else 0
            return Bits.of(v, width)
        i = int(idx)
        if i < 0:
            i += self.nbits
        if not 0 <= i < self.nbits:
            raise IndexError("bit index out of range")
        return (self.uint >> (self.nbits - 1 - i)) & 1

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.nbits))

    def to_bytes(self) -> bytes:
        nbytes = (self.nbits + 7) // 8
        return (self.uint << (8 * nbytes - self.nbits)).to_bytes(nbytes, "big")

    def hex(self) -> str:
        return self.to_bytes().hex()

    def bin(self) -> str:
        return format(self.uint, f"0{self.nbits}b") if self.nbits else ""

    # --- operations -------------------------------------------------------

    def __xor__(self, other: "Bits") -> "Bits":
        if len(other) != self.nbits:
            raise LengthMismatchError(f"expected {self.nbits} bits, got {len(other)}")
        return Bits(self.uint ^ other.uint, self.nbits)

    def __add__(self, other: "Bits") -> "Bits":
        return Bits((self.uint << len(other)) | other.uint, self.nbits + len(other))

    def __eq__(self, other) -> bool:
        return isinstance(other, Bits) and self.nbits == other.nbits and self.uint == other.uint

    def __hash__(self) -> int:
        return hash((self.nbits, self.uint))

    def __repr__(self) -> str:
        if self.nbits <= 32:
            return f"Bits({self.bin()!r})"
        return f"Bits(hex={self.hex()!r}, nbits={self.nbits})"


# The slot descriptors' setters, bound once: __init__ cannot go through the
# guarded __setattr__, and a bound setter takes under half the time of
# object.__setattr__(self, name, value) (0.11 vs 0.26 us per slot, timeit).
_set_n = Bits.nbits.__set__
_set_v = Bits.uint.__set__

# _SMALL[n][v] is the shared Bits(v, n) for n = 0..8 (_SMALL[0] == [_EMPTY]).
# Bits.random and Bits.of index it only after checking 1 <= n <= 8, since
# _SMALL[-1] would be the 8-bit table.
_SHARED_BITS = 8
_SMALL = [[Bits(v, n) for v in range(1 << n)] for n in range(_SHARED_BITS + 1)]
_EMPTY = _SMALL[0][0]

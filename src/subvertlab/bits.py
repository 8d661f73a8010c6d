"""Immutable bit strings.

A document is a bit string of explicit length; bit 0 is the most significant
bit. Byte serialization zero-pads on the right to a byte boundary.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .errors import LengthMismatchError, ParameterError

__all__ = ["Bits"]


class Bits:
    """Immutable bit string. Value is kept as an int, MSB-first."""

    __slots__ = ("_n", "_v")

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
        return (Bits, (self._v, self._n))

    # --- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "Bits":
        return cls(0, nbits)

    @classmethod
    def random(cls, nbits: int, rng: random.Random) -> "Bits":
        """nbits fresh bits from rng.getrandbits.

        A zero-length draw consumes no RNG state and returns the shared empty
        string, which is safe to hand out because Bits is immutable.
        """
        if nbits == 0:
            return _EMPTY
        return cls(rng.getrandbits(nbits), nbits)

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
            v = (v << len(p)) | p._v
            n += len(p)
        return cls(v, n)

    # --- views ------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def uint(self) -> int:
        return self._v

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self._n)
            if step != 1:
                raise ParameterError("bit slices must be contiguous")
            width = max(0, stop - start)
            return Bits((self._v >> (self._n - stop)) & ((1 << width) - 1) if width else 0, width)
        i = int(idx)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("bit index out of range")
        return (self._v >> (self._n - 1 - i)) & 1

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self._n))

    def to_bytes(self) -> bytes:
        nbytes = (self._n + 7) // 8
        return (self._v << (8 * nbytes - self._n)).to_bytes(nbytes, "big")

    def hex(self) -> str:
        return self.to_bytes().hex()

    def bin(self) -> str:
        return format(self._v, f"0{self._n}b") if self._n else ""

    # --- operations -------------------------------------------------------

    def __xor__(self, other: "Bits") -> "Bits":
        if len(other) != self._n:
            raise LengthMismatchError(f"expected {self._n} bits, got {len(other)}")
        return Bits(self._v ^ other._v, self._n)

    def __add__(self, other: "Bits") -> "Bits":
        return Bits((self._v << len(other)) | other._v, self._n + len(other))

    def __eq__(self, other) -> bool:
        return isinstance(other, Bits) and self._n == other._n and self._v == other._v

    def __hash__(self) -> int:
        return hash((self._n, self._v))

    def __repr__(self) -> str:
        return f"Bits({self.bin()!r})" if self._n <= 32 else f"Bits(hex={self.hex()!r}, nbits={self._n})"


# The slot descriptors' setters, bound once: __init__ cannot go through the
# guarded __setattr__, and a bound setter takes under half the time of
# object.__setattr__(self, name, value) (0.11 vs 0.26 us per slot, timeit).
_set_n = Bits._n.__set__
_set_v = Bits._v.__set__
_EMPTY = Bits(0, 0)

"""Immutable bit strings and the length-prefixed history wire format.

A document is a bit string of explicit length; bit 0 is the most significant
bit. Byte serialization zero-pads on the right to a byte boundary, and the
history format prefixes each document with its bit length as a 32-bit
big-endian integer (the padding never becomes ambiguous).
"""

from __future__ import annotations

import random
import struct
from typing import Iterable, Iterator

from .errors import LengthMismatchError, ParameterError

__all__ = ["Bits", "History", "encode_history", "decode_history"]


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
        object.__setattr__(self, "_n", nbits)
        object.__setattr__(self, "_v", value)

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
        if nbits == 0:
            return cls(0, 0)
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
        s = s.strip()
        if len(s) % 2:
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


History = tuple  # tuple[Bits, ...]; kept a plain tuple on purpose


def encode_history(history: Iterable[Bits]) -> bytes:
    """Serialize documents as (uint32 big-endian bit length, padded payload)*."""
    out = bytearray()
    for doc in history:
        out += struct.pack(">I", len(doc))
        out += doc.to_bytes()
    return bytes(out)


def decode_history(data: bytes) -> tuple[Bits, ...]:
    docs = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise ParameterError("truncated history: missing length prefix")
        (nbits,) = struct.unpack_from(">I", data, pos)
        pos += 4
        nbytes = (nbits + 7) // 8
        if pos + nbytes > len(data):
            raise ParameterError("truncated history: missing payload")
        docs.append(Bits.from_bytes(data[pos : pos + nbytes], nbits))
        pos += nbytes
    return tuple(docs)

"""Keyed pseudorandom marking function.

The embedding layer evaluates a PRF on whole documents and reads a small
prefix of the output as a (value, slot) pair. Instantiation is HMAC with
SHA-256: key = attacker key bytes, message = document payload bytes, and the
pair is taken from the most significant output bits, big-endian.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .bits import Bits
from .errors import ParameterError

__all__ = ["Prf", "prf_split_eval", "prf_split_block", "is_power_of_two"]

_OUT_BITS = 256


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Prf:
    """HMAC-SHA256 family keyed by a key_bits-bit attacker key."""

    key_bits: int
    out_bits: int = _OUT_BITS

    def __post_init__(self):
        if self.key_bits <= 0:
            raise ParameterError("key_bits must be positive")
        if not 0 < self.out_bits <= _OUT_BITS:
            raise ParameterError(f"out_bits must be in 1..{_OUT_BITS}")

    def gen(self, rng: random.Random) -> Bits:
        return Bits.random(self.key_bits, rng)

    def eval(self, key: Bits, data: Bits) -> Bits:
        if len(key) != self.key_bits:
            raise ParameterError(f"key must have {self.key_bits} bits")
        digest = hmac.new(key.to_bytes(), data.to_bytes(), hashlib.sha256).digest()
        return Bits.from_bytes(digest, self.out_bits)


def prf_split_eval(prf: Prf, key: Bits, doc: Bits, ml: int) -> tuple[int, int]:
    """Split an evaluation into (bit, slot index) for ml single-bit slots.

    bit = first output bit; slot = next log2(ml) output bits, big-endian.
    ml must be a power of two so the slot index is exactly uniform; this is
    prf_split_block with one-bit blocks over ml slots.
    """
    if not is_power_of_two(ml):
        raise ParameterError("ml must be a power of two")
    value, j = prf_split_block(prf, key, doc, 1, ml)
    return value.uint, j


def prf_split_block(
    prf: Prf, key: Bits, doc: Bits, block_bits: int, n_slots: int
) -> tuple[Bits, int | None]:
    """Split an evaluation into (block value, slot index) for n_slots slots.

    The value field is the first block_bits output bits; the index field is
    the next ceil(log2(n_slots)) bits. Index values >= n_slots come back as
    None: the encoder never accepts them and the decoder skips them, which
    keeps the accepted index exactly uniform for non-dyadic slot counts.
    Both fields are read from one HMAC digest as an integer: the same bits
    as Prf.eval followed by two slices, without the intermediate bit strings.
    """
    if block_bits <= 0 or n_slots <= 0:
        raise ParameterError("block_bits and n_slots must be positive")
    idx_bits = (n_slots - 1).bit_length()
    if block_bits + idx_bits > prf.out_bits:
        raise ParameterError("PRF output too short for requested split")
    if len(key) != prf.key_bits:
        raise ParameterError(f"key must have {prf.key_bits} bits")
    # hmac.new, not the one-shot hmac.digest: the one-shot call releases the
    # GIL, and under --jobs threads each release waits out the switch interval
    digest = hmac.new(key.to_bytes(), doc.to_bytes(), hashlib.sha256).digest()
    out = int.from_bytes(digest, "big")
    rest = _OUT_BITS - block_bits
    j = (out >> (rest - idx_bits)) & ((1 << idx_bits) - 1)
    return Bits(out >> rest, block_bits), (j if j < n_slots else None)

"""Keyed pseudorandom marking function, and the package's one HMAC.

The embedding layer evaluates a PRF on whole documents and reads a small
prefix of the output as a (value, slot) pair. Instantiation is HMAC with
SHA-256: key = attacker key bytes, message = document payload bytes, and the
pair is taken from the most significant output bits, big-endian.

hmac_sha256 is the single HMAC primitive of the package: the PRF, the toy
schemes' keystreams and signature tags, and the det codebook seed all call
it, so every keyed digest is computed the same way.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .bits import Bits
from .errors import ParameterError

__all__ = ["Prf", "prf_split_eval", "prf_split_block", "is_power_of_two", "hmac_sha256"]

_OUT_BITS = 256
_BLOCK = 64  # SHA-256 block size in bytes
_TRANS_36 = bytes(b ^ 0x36 for b in range(256))
_TRANS_5C = bytes(b ^ 0x5C for b in range(256))

# The keyed inner and outer SHA-256 states of the latest keys; when full, a
# new key evicts the oldest. A trial keeps one attacker key and one host key
# for thousands of calls, so a few dozen keys suffice.
_PAD_MEMO = 64
_pads: dict[bytes, tuple] = {}


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256(key, msg) as in RFC 2104, from cached pad states.

    The keyed states (SHA-256 after absorbing key xor ipad, key xor opad)
    are computed once per key and copied per call. The standard library's
    hmac module rebuilds them on every call through a pure-Python wrapper:
    with a 16-byte key and a 20-byte message the same digest costs 4.7 us
    that way and 2.0 us from the cache (medians of seven timeit runs on a
    2-core Xeon, Python 3.11, OpenSSL 3.0).
    """
    pads = _pads.get(key)
    if pads is None:
        block = hashlib.sha256(key).digest() if len(key) > _BLOCK else key
        block = block.ljust(_BLOCK, b"\x00")
        pads = (
            hashlib.sha256(block.translate(_TRANS_36)),
            hashlib.sha256(block.translate(_TRANS_5C)),
        )
        if len(_pads) >= _PAD_MEMO:
            del _pads[next(iter(_pads))]
        _pads[key] = pads
    inner = pads[0].copy()
    inner.update(msg)
    outer = pads[1].copy()
    outer.update(inner.digest())
    return outer.digest()


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
        return Bits.from_bytes(hmac_sha256(key.to_bytes(), data.to_bytes()), self.out_bits)


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
    out = int.from_bytes(hmac_sha256(key.to_bytes(), doc.to_bytes()), "big")
    rest = _OUT_BITS - block_bits
    j = (out >> (rest - idx_bits)) & ((1 << idx_bits) - 1)
    return Bits(out >> rest, block_bits), (j if j < n_slots else None)

"""Keyed pseudorandom marking function, and the package's one HMAC.

The embedding layer evaluates a PRF on whole documents and reads a small
prefix of the output as a (value, slot) pair. Instantiation is HMAC with
SHA-256: key = attacker key bytes, message = document payload bytes, and the
pair is taken from the most significant output bits, big-endian.

hmac_sha256 is the single HMAC primitive of the package: the PRF, the toy
schemes' keystreams and signature tags, and the det codebook seed all call
it, so every keyed digest is computed the same way.

The toy keyed functions see the same (key, input) again and again: a
rejection sampler re-marks documents the channel repeats, a randpad key has
only 2^r coin strings, and a forgery search re-verifies the same payloads
under one signing key. Counted at the benchmark's seed 0, eight
session-unrel reports make 90,407 HMAC calls over 40,827 distinct inputs;
one of them marks 6,174 times over 3,273 documents and derives 5,145 pads
over 1,881 coin strings, and one pointmass-unrel report marks 2,048 times
over 642 documents. So each keyed function keeps a per-key table, filled on
first use: prf_split_block here (document bytes -> (value, slot), one table
per key bytes, block_bits and n_slots), the randpad pads and the signature
tags in schemes. All share one idiom and one pair of bounds: the tables of
the latest TABLE_KEYS keys are kept (a trial holds one attacker key and one
host key), and a table that reaches TABLE_ENTRIES entries is emptied, which
caps the fixed signing key of a lowerbound rate run. Argument checks run on
every call, before the lookup, and a miss adds no Python call frame.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .bits import Bits
from .errors import ParameterError

__all__ = ["Prf", "prf_split_block", "is_power_of_two", "hmac_sha256"]

_OUT_BITS = 256
_BLOCK = 64  # SHA-256 block size in bytes
_TRANS_36 = bytes(b ^ 0x36 for b in range(256))
_TRANS_5C = bytes(b ^ 0x5C for b in range(256))

# The keyed inner and outer SHA-256 states of the latest keys; when full, a
# new key evicts the oldest. A trial keeps one attacker key and one host key
# for thousands of calls, so a few dozen keys suffice.
_PAD_MEMO = 64
_pads: dict[bytes, tuple] = {}

# The bounds of every per-key table (see the module docstring), and the
# mark tables of prf_split_block, keyed by (key bytes, block_bits, n_slots).
# Replayed at the benchmark's seed 0, 1024-entry tables get the same hits as
# unbounded ones on session-unrel and pointmass-unrel, and 97% of them
# (39,328 of 40,390) on lowerbound rate, holding at most 1,261 entries, not 9,052.
TABLE_KEYS = 8
TABLE_ENTRIES = 1024
_marks: dict[tuple, dict] = {}


def remember(memo: dict, key, value, keys: int = TABLE_KEYS):
    """Store value under a key new to memo and return it; a memo already
    holding `keys` keys first evicts its oldest."""
    if len(memo) >= keys:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


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
        remember(_pads, key, pads, _PAD_MEMO)
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

    The pair is a function of the key bytes, the document bytes, block_bits
    and n_slots alone, so it is kept in a per-key table (module docstring)
    and a repeated document returns the very tuple marked first. Documents
    whose padded bytes agree mark the same, table or not.
    """
    if block_bits <= 0 or n_slots <= 0:
        raise ParameterError("block_bits and n_slots must be positive")
    idx_bits = (n_slots - 1).bit_length()
    if block_bits + idx_bits > prf.out_bits:
        raise ParameterError("PRF output too short for requested split")
    if len(key) != prf.key_bits:
        raise ParameterError(f"key must have {prf.key_bits} bits")
    kb = key.to_bytes()
    db = doc.to_bytes()
    table = _marks.get((kb, block_bits, n_slots))
    if table is None:
        table = remember(_marks, (kb, block_bits, n_slots), {})
    mark = table.get(db)
    if mark is None:
        if len(table) >= TABLE_ENTRIES:
            table.clear()
        out = int.from_bytes(hmac_sha256(kb, db), "big")
        rest = _OUT_BITS - block_bits
        j = (out >> (rest - idx_bits)) & ((1 << idx_bits) - 1)
        mark = table[db] = (Bits(out >> rest, block_bits), j if j < n_slots else None)
    return mark

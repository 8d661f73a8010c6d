"""Keyed pseudorandom marking function, and the package's one HMAC.

The embedding layer evaluates a PRF on whole documents and reads a small
prefix of the output as a (value, slot) pair. Instantiation is HMAC with
SHA-256: key = attacker key bytes, message = document payload bytes, and the
pair is taken from the most significant output bits, big-endian.

hmac_sha256 is the single HMAC primitive of the package, and hmac_states
its bound form: a key's inner and outer SHA-256 states, from the same
memo of pad states, with a fixed message prefix already absorbed. The hot
keyed digests (the marks here, randpad's pads and the signature tags of a
forgery search in schemes) finish each HMAC inline from bound states: copy
the inner state, update it, copy the outer state, update it, digest. The
rest (Prf.eval, the schemes' keystreams outside a search, the det codebook
seed) call hmac_sha256, so every keyed digest is computed the same way.

The toy keyed functions see the same (key, input) again and again: a
rejection sampler re-marks documents the channel repeats, and a randpad key
has only 2^r coin strings. Counted at the benchmark's seed 0, eight
session-unrel reports make 90,407 HMAC calls over 40,827 distinct inputs;
one of them marks 6,174 times over 3,273 documents and derives 5,145 pads
over 1,881 coin strings, and one pointmass-unrel report marks 2,048 times
over 642 documents. So every keyed cache of the package is a dict filled by
__missing__ on first lookup. A KeyTable keeps its latest TABLE_KEYS (8)
keys (64 for the HMAC pad states) and evicts the oldest. Under it, a key's
MarkTable here and its pad table in schemes hold that key's bound states,
and each miss is one __missing__ that finishes one HMAC; such a table is
emptied when it reaches TABLE_ENTRIES (1024) entries. The pad states, the
marks of split_marker, and the randpad pads and det codebooks of schemes
live in these tables. A hit is one dict subscript. Argument checks run on
every call, before the lookup, except where a caller binds a table once
for many lookups (split_marker, the randpad int sampler).

A mark is the pair (int value, slot or None). The encoder binds a key's
mark table once per session (stego.encode_step keeps the binding of the
last key and message) and the decoder once per decode, and both compare
the int value to the message's block; only prf_split_block, the
one-document form, wraps the value in a bit string.
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

# The bounds of every table (module docstring). Replayed at the benchmark's
# seed 0, 1024-entry mark tables get the same hits as unbounded ones on
# session-unrel and pointmass-unrel; a trial keeps one attacker key and one
# host key for thousands of HMACs, so a few dozen pad states suffice.
TABLE_KEYS = 8
TABLE_ENTRIES = 1024
_PAD_MEMO = 64


class KeyTable(dict):
    """key -> fill(key) for the latest `size` keys; a new key evicts the oldest."""

    __slots__ = ("fill", "size")

    def __init__(self, fill, size: int = TABLE_KEYS):
        self.fill = fill
        self.size = size

    def __missing__(self, key):
        value = self.fill(key)
        if len(self) >= self.size:
            del self[next(iter(self))]
        self[key] = value
        return value


def _pad_states(key: bytes) -> tuple:
    """SHA-256 after absorbing key xor ipad, and after key xor opad."""
    block = hashlib.sha256(key).digest() if len(key) > _BLOCK else key
    block = block.ljust(_BLOCK, b"\x00")
    return hashlib.sha256(block.translate(_TRANS_36)), hashlib.sha256(block.translate(_TRANS_5C))


_pads = KeyTable(_pad_states, _PAD_MEMO)


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256(key, msg) as in RFC 2104, from cached pad states.

    The keyed states are computed once per key and copied per call. The
    standard library's hmac module rebuilds them on every call through a
    pure-Python wrapper: with a 16-byte key and a 20-byte message the same
    digest costs 4.7 us that way and 2.0 us from the cache (medians of seven
    timeit runs on a 2-core Xeon, Python 3.11, OpenSSL 3.0).
    """
    inner, outer = _pads[key]
    inner = inner.copy()
    inner.update(msg)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_states(key: bytes, prefix: bytes = b"") -> tuple:
    """The bound form of HMAC-SHA256 under key, with prefix already absorbed:
    (inner, outer), the SHA-256 states after key xor ipad || prefix and after
    key xor opad. A hot caller finishes HMAC(key, prefix || msg) inline:

        h = inner.copy(); h.update(msg); o = outer.copy(); o.update(h.digest())

    and o.digest() is the tag. The states come from the pad memo (a prefix
    is absorbed into a copy), and callers only ever copy them.
    """
    inner, outer = _pads[key]
    if prefix:
        inner = inner.copy()
        inner.update(prefix)
    return inner, outer


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Prf:
    """HMAC-SHA256 family keyed by a key_bits-bit attacker key; every
    output is the whole 256-bit digest."""

    key_bits: int

    def __post_init__(self):
        if self.key_bits <= 0:
            raise ParameterError("key_bits must be positive")

    def gen(self, rng: random.Random) -> Bits:
        return Bits.random(self.key_bits, rng)

    def eval(self, key: Bits, data: Bits) -> Bits:
        if len(key) != self.key_bits:
            raise ParameterError(f"key must have {self.key_bits} bits")
        return Bits.from_bytes(hmac_sha256(key.to_bytes(), data.to_bytes()), _OUT_BITS)


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

    The mark is a function of the key bytes, the document bytes, block_bits
    and n_slots alone, so it is kept in a table (module docstring) and a
    repeated document costs no HMAC. The table holds the value as an int,
    which is all the encoder and decoder compare; this wrapper builds the
    block_bits-bit string from it on every call. Documents whose padded
    bytes agree mark the same, table or not.
    """
    value, j = split_marker(prf, key, block_bits, n_slots)[doc.to_bytes()]
    return Bits(value, block_bits), j


def _check_split(prf: Prf, key: Bits, block_bits: int, n_slots: int) -> None:
    """The checks of a split: both fields fit the PRF output, and the key fits the PRF."""
    if block_bits <= 0 or n_slots <= 0:
        raise ParameterError("block_bits and n_slots must be positive")
    if block_bits + (n_slots - 1).bit_length() > _OUT_BITS:
        raise ParameterError("PRF output too short for requested split")
    if len(key) != prf.key_bits:
        raise ParameterError(f"key must have {prf.key_bits} bits")


def split_marker(prf: Prf, key: Bits, block_bits: int, n_slots: int) -> MarkTable:
    """The mark table of one (key, block_bits, n_slots): document bytes ->
    (int value, slot or None). The arguments are checked here, once, so a
    caller that marks many documents under one key (an emission, a decode)
    binds the table and pays one dict subscript per document."""
    _check_split(prf, key, block_bits, n_slots)
    return _marks[key.to_bytes(), block_bits, n_slots]


class MarkTable(dict):
    """Document bytes -> mark under one (key bytes, block_bits, n_slots).

    The key's bound HMAC states (hmac_states) and the field shifts and mask
    are taken once, when the table is built; a miss finishes its HMAC
    inline, and a table that holds TABLE_ENTRIES marks is emptied first.
    """

    __slots__ = ("inner", "outer", "rest", "idx_shift", "idx_mask", "n_slots")

    def __init__(self, split: tuple[bytes, int, int]):
        kb, block_bits, n_slots = split
        self.inner, self.outer = hmac_states(kb)
        self.rest = _OUT_BITS - block_bits
        idx_bits = (n_slots - 1).bit_length()
        self.idx_shift, self.idx_mask = self.rest - idx_bits, (1 << idx_bits) - 1
        self.n_slots = n_slots

    def __missing__(self, db: bytes) -> tuple[int, int | None]:
        inner = self.inner.copy()
        inner.update(db)
        outer = self.outer.copy()
        outer.update(inner.digest())
        out = int.from_bytes(outer.digest(), "big")
        j = (out >> self.idx_shift) & self.idx_mask
        mark = out >> self.rest, j if j < self.n_slots else None
        if len(self) >= TABLE_ENTRIES:
            self.clear()
        self[db] = mark
        return mark


# (key bytes, block_bits, n_slots) -> a table from document bytes to its mark
_marks = KeyTable(MarkTable)

"""Independent reference computations the tests compare the package against.

Everything here is computed from first principles with the standard library
only (fractions, math, hashlib) so a bug in the package cannot hide in its
own oracle. Frozen digests and table values were produced once with this
module and checked against published vectors where they exist.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

# --- HMAC-SHA256 from its definition (no hmac module) -------------------------

_BLOCK = 64


def manual_hmac_sha256(key: bytes, msg: bytes) -> bytes:
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hashlib.sha256(ipad + msg).digest()
    return hashlib.sha256(opad + inner).digest()


def _bits_to_bytes(bits: str) -> bytes:
    """'0'/'1' string -> bytes, zero-padded on the right to a byte boundary."""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _bytes_to_bits(data: bytes) -> str:
    return "".join(format(byte, "08b") for byte in data)


def _xor_bits(a: str, b: str) -> str:
    return "".join("0" if x == y else "1" for x, y in zip(a, b, strict=True))


def keystream_bits(key: str, label: bytes, data: str, nbits: int) -> str:
    """First nbits of HMAC(key, label || counter || data) over two-byte
    big-endian counters 0, 1, ..., with every operand a bit string."""
    out = ""
    counter = 0
    while len(out) < nbits:
        msg = label + bytes([counter >> 8, counter & 0xFF]) + _bits_to_bytes(data)
        out += _bytes_to_bits(manual_hmac_sha256(_bits_to_bytes(key), msg))
        counter += 1
    return out[:nbits]


def sig_sign_bits(sk: str, m: str, coins: str, tag_bits: int) -> str:
    """The signature fixture: coins || tag(sk, m || coins)."""
    return coins + keystream_bits(sk, b"sig", m + coins, tag_bits)


def sig_vrfy_bits(pk: str, m: str, sig: str, ml: int, coin_bits: int, tag_bits: int) -> bool:
    if len(m) != ml or len(sig) != coin_bits + tag_bits:
        return False
    coins = sig[:coin_bits]
    return sig == sig_sign_bits(pk, m, coins, tag_bits)


def randpad_enc_bits(k: str, m: str, coins: str) -> str:
    """The randpad fixture: rho || (m xor pad(k, rho)), rho = coins."""
    return coins + _xor_bits(m, keystream_bits(k, b"pad", coins, len(m)))


def randpad_dec_bits(k: str, c: str, r: int, ml: int):
    if len(c) != r + ml:
        return None
    return _xor_bits(c[r:], keystream_bits(k, b"pad", c[:r], ml))


def det_codebook_bits(k: str, ml: int) -> list[str]:
    """The det fixture's codebook: entry m is Enc(k, m), as ml-bit strings.

    The codebook is range(2^ml) shuffled by a random.Random seeded with the
    first 16 bytes of HMAC(k, "codebook") read big-endian.
    """
    seed = manual_hmac_sha256(_bits_to_bytes(k), b"codebook")
    perm = list(range(2**ml))
    random.Random(int.from_bytes(seed[:16], "big")).shuffle(perm)
    return [format(p, f"0{ml}b") for p in perm]


# RFC 4231 test cases 1 and 2 (truncated to the full 256-bit output).
RFC4231_CASE1 = (
    bytes.fromhex("0b" * 20),
    b"Hi There",
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
)
RFC4231_CASE2 = (
    b"Jefe",
    b"what do ya want for nothing?",
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
)

# Project-frozen vector: 16-byte key 0xA5.., 16-byte doc 00..0f.
VECTOR_KEY = bytes([0xA5] * 16)
VECTOR_DOC = bytes(range(16))
VECTOR_DIGEST = "52fad944cdf97f6b660fda1e243b9f60392803d8e0b78263f5b32118dad63384"
# First digest byte is 0x52 = 0101 0010: leading bit 0, then 4 bits 1010=10,
# or 3 bits 101=5; the 6-bit value field is 010100=20 and the following 4-bit
# index field is 1011=11, out of range for 11 slots.
VECTOR_SPLIT_ML16 = (0, 10)
VECTOR_SPLIT_ML8 = (0, 5)
VECTOR_BLOCK_6_11 = (20, None)


# --- coupon-collector arithmetic ----------------------------------------------


def coupon_fail_exact(n_slots: int, draws: int) -> Fraction:
    """P(some slot uncovered) after `draws` iid uniform slot writes, exact
    inclusion-exclusion."""
    total = Fraction(0)
    for i in range(1, n_slots + 1):
        total += (-1) ** (i + 1) * math.comb(n_slots, i) * Fraction(n_slots - i, n_slots) ** draws
    return total


def coupon_fail_refined(mean_cell: float, n_slots: int, draws: int) -> float:
    """Coverage failure when slot weights fluctuate with the marking table.

    A finite document space assigns each (value, slot) cell a Binomial
    (~Poisson(mean_cell)) number of documents; an accepted draw lands on a
    slot with probability proportional to its cell size, and coverage failure
    is convex in that probability, so the idealized uniform-slot figure
    underestimates. Union bound over slots, Poisson cell sizes, the rest of
    the accept set held at its mean.
    """
    rest = (n_slots - 1) * mean_cell
    total = 0.0
    logw = -mean_cell
    for c in range(0, int(mean_cell * 6) + 10):
        w = math.exp(logw)
        miss = (1.0 - c / (c + rest)) ** draws if (c + rest) > 0 else 1.0
        total += w * miss
        logw += math.log(mean_cell) - math.log(c + 1)
    return n_slots * total


def expected_draws(p: float, s: int) -> float:
    """E[min(Geometric(p), s+1)]: rejection draws per emitted document."""
    q = 1.0 - p
    return sum(i * p * q ** (i - 1) for i in range(1, s + 1)) + (s + 1) * q**s


# --- binomial / interval helpers ----------------------------------------------


def binom_tail_ge(n: int, p: float, k: int) -> float:
    """P(Binomial(n, p) >= k)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def wilson_reference(successes: int, trials: int, z: float = 1.959963984540054) -> tuple:
    """Wilson score interval, written independently of the package."""
    if trials == 0:
        return (0.0, 1.0)
    ph = successes / trials
    denom = 1 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# --- chi-square reference quantiles -------------------------------------------

# Quantiles computed once with chi2_quantile_exact below (bisection on the
# regularized incomplete gamma); they agree with published tables.
CHI2_TABLE = {
    (1, 0.95): 3.8415,
    (3, 0.95): 7.8147,
    (15, 0.95): 24.9958,
    (255, 0.95): 293.2478,
    (255, 0.99): 310.4574,
    (255, 0.999): 330.5197,
}


def _gammainc_reg_lower(a: float, x: float) -> float:
    if x <= 0:
        return 0.0
    if x < a + 1:
        term = 1.0 / a
        total = term
        n = a
        while True:
            n += 1
            term *= x / n
            total += term
            if term < total * 1e-15:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-15:
            break
    return 1 - math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_cdf_exact(x: float, df: int) -> float:
    return _gammainc_reg_lower(df / 2, x / 2)


def chi2_quantile_exact(df: int, q: float) -> float:
    lo, hi = 0.0, df * 10.0 + 100.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if chi2_cdf_exact(mid, df) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def rejsam_emit_pmf(accept: set, n_docs: int, s: int) -> dict:
    """Exact per-key distribution of one rejection-sampled emission.

    Draws are uniform over n_docs documents; `accept` is the set of document
    indices whose mark agrees with the hidden message. After s rejected
    draws the next draw is emitted unconditionally.
    """
    alpha = Fraction(len(accept), n_docs)
    q = 1 - alpha
    base = q**s * Fraction(1, n_docs)
    boost = (1 - q**s) / alpha / n_docs if accept else Fraction(0)
    return {d: base + boost if d in accept else base for d in range(n_docs)}


# --- rejection sampler on bit strings -------------------------------------------
#
# `mark` maps a document to the PRF output as a '0'/'1' string (most
# significant bit first); everything below is string slicing, so it shares no
# integer arithmetic with the package's encoder and decoder.


def rejsam_mark_bits(out: str, block_bits: int, n_slots: int) -> tuple:
    """(value bit string, slot index or None) read from a PRF output."""
    idx_bits = (n_slots - 1).bit_length()
    j = int(out[block_bits : block_bits + idx_bits] or "0", 2)
    return out[:block_bits], (j if j < n_slots else None)


def rejsam_emit_index(mark, message: str, block_bits: int, n_slots: int, s: int, draws) -> int:
    """Index of the draw one emission outputs: the first of the first s
    draws whose mark agrees with the zero-padded message, else draw s."""
    padded = message.ljust(block_bits * n_slots, "0")
    for i, doc in enumerate(draws[:s]):
        value, j = rejsam_mark_bits(mark(doc), block_bits, n_slots)
        if j is not None and padded[j * block_bits : (j + 1) * block_bits] == value:
            return i
    return s


def rejsam_decode_bits(mark, ml: int, block_bits: int, n_slots: int, docs):
    """Decoded message as a bit string (last write wins), or None."""
    slots = [None] * n_slots
    for doc in docs:
        value, j = rejsam_mark_bits(mark(doc), block_bits, n_slots)
        if j is not None:
            slots[j] = value
    if None in slots:
        return None
    return "".join(slots)[:ml]

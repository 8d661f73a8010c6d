"""Toy cryptographic fixtures.

Everything here is desk-scale and explicit-coin: encryption and signing take
their randomness as an argument, so callers (channels, games, attacks) control
every coin. Key and coin lengths are small enough to enumerate, which is what
the exact-pmf and exhaustive tests rely on.

Security properties of the fixtures are measured by the games, not proven.
In particular the signature fixtures verify by recomputing a keyed tag, so
the "public" key carries secret-derived material; they are stand-ins for an
existentially unforgeable scheme, with tag_bits tuning how hard the shipped
forgers find them.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .bits import Bits
from .errors import ParameterError

__all__ = [
    "SymmetricEncryptionScheme",
    "SignatureScheme",
    "RandomizedAlgorithm",
    "randpad_scheme",
    "det_scheme",
    "sig_fixture",
    "alg_from_encryption",
    "alg_from_signing",
]

_ENUM_LIMIT = 20  # refuse to enumerate spaces beyond 2^20


def _keystream(key: Bits, label: bytes, data: Bits, nbits: int) -> Bits:
    """nbits of HMAC-SHA256(key, label || data), counter-expanded if needed."""
    out = b""
    counter = 0
    while 8 * len(out) < nbits:
        msg = label + counter.to_bytes(2, "big") + data.to_bytes()
        out += hmac.new(key.to_bytes(), msg, hashlib.sha256).digest()
        counter += 1
    return Bits.from_bytes(out, nbits)


@dataclass(frozen=True)
class SymmetricEncryptionScheme:
    """Explicit-coin symmetric encryption with published lengths.

    enc(k, m, coins) is a deterministic function of its three arguments;
    enc_sample draws the coins from a caller-supplied PRNG, and is the one
    sampler channels use, so seed-coupled runs reproduce ciphertext streams
    bit for bit.
    """

    scheme_id: str
    key_bits: int
    ml: int
    cl: int
    coin_bits: int
    gen: Callable[[random.Random], Bits]
    enc: Callable[[Bits, Bits, Bits], Bits]
    dec: Callable[[Bits, Bits], Bits | None]
    exact_pmf: Callable[[Bits, Bits, Bits], Fraction] | None = None
    ciphertext_support: Callable[[Bits, Bits], Iterable[Bits]] | None = None

    def enc_sample(self, k: Bits, m: Bits, rng: random.Random) -> Bits:
        return self.enc(k, m, Bits.random(self.coin_bits, rng))

    def params_dict(self) -> dict:
        return {
            "kind": self.scheme_id,
            "kappa": self.key_bits,
            "r": self.coin_bits,
            "ml": self.ml,
            "cl": self.cl,
            "t": None,
        }


def randpad_scheme(r: int, kappa: int, ml: int = 8) -> SymmetricEncryptionScheme:
    """Random-prefix one-time-pad toy: Enc(k, m; rho) = rho || (m xor pad(k, rho)).

    Every distinct coin string gives a distinct ciphertext, so the ciphertext
    distribution for fixed (k, m) is uniform over 2^r values (min-entropy r).
    r = 0 degenerates to a deterministic single-ciphertext scheme.
    """
    if r < 0 or kappa <= 0 or ml <= 0:
        raise ParameterError("randpad needs r >= 0, kappa > 0, ml > 0")
    cl = r + ml

    def enc(k: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != r:
            raise ParameterError("randpad enc: wrong message or coin length")
        return coins + (m ^ _keystream(k, b"pad", coins, ml))

    def dec(k: Bits, c: Bits) -> Bits | None:
        if len(c) != cl:
            return None
        rho, body = c[:r], c[r:]
        return body ^ _keystream(k, b"pad", rho, ml)

    def exact_pmf(k: Bits, m: Bits, c: Bits) -> Fraction:
        if len(c) == cl and enc(k, m, c[:r]) == c:
            return Fraction(1, 2**r)
        return Fraction(0)

    def support(k: Bits, m: Bits) -> Iterable[Bits]:
        if r > _ENUM_LIMIT:
            raise ParameterError("coin space too large to enumerate")
        return (enc(k, m, Bits(rho, r)) for rho in range(2**r))

    return SymmetricEncryptionScheme(
        scheme_id=f"randpad-{r}",
        key_bits=kappa,
        ml=ml,
        cl=cl,
        coin_bits=r,
        gen=lambda rng: Bits.random(kappa, rng),
        enc=enc,
        dec=dec,
        exact_pmf=exact_pmf,
        ciphertext_support=support,
    )


# det_scheme keeps the codebooks of its latest keys; when full, a new key
# evicts the oldest. A trial uses one key throughout, so a few suffice.
_CODEBOOK_MEMO = 8


def det_scheme(kappa: int, ml: int = 8) -> SymmetricEncryptionScheme:
    """Deterministic codebook toy: Enc(k, .) is a keyed permutation of messages.

    Coin length 0; for fixed (k, m) the ciphertext is a point mass, so any
    channel derived from it has min-entropy 0.
    """
    if kappa <= 0 or not 0 < ml <= _ENUM_LIMIT:
        raise ParameterError(f"det scheme needs kappa > 0 and 0 < ml <= {_ENUM_LIMIT}")
    size = 2**ml
    books: dict[Bits, tuple[list[int], list[int]]] = {}

    def tables(k: Bits) -> tuple[list[int], list[int]]:
        book = books.get(k)
        if book is None:
            seed = hmac.new(k.to_bytes(), b"codebook", hashlib.sha256).digest()
            shuffle_rng = random.Random(int.from_bytes(seed[:16], "big"))
            perm = list(range(size))
            shuffle_rng.shuffle(perm)
            inv = [0] * size
            for i, p in enumerate(perm):
                inv[p] = i
            if len(books) >= _CODEBOOK_MEMO:
                del books[next(iter(books))]
            book = books[k] = (perm, inv)
        return book

    def enc(k: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != 0:
            raise ParameterError("det enc: wrong message or coin length")
        return Bits(tables(k)[0][m.uint], ml)

    def dec(k: Bits, c: Bits) -> Bits | None:
        if len(c) != ml:
            return None
        return Bits(tables(k)[1][c.uint], ml)

    return SymmetricEncryptionScheme(
        scheme_id="det",
        key_bits=kappa,
        ml=ml,
        cl=ml,
        coin_bits=0,
        gen=lambda rng: Bits.random(kappa, rng),
        enc=enc,
        dec=dec,
        exact_pmf=lambda k, m, c: Fraction(1) if enc(k, m, Bits(0, 0)) == c else Fraction(0),
        ciphertext_support=lambda k, m: [enc(k, m, Bits(0, 0))],
    )


@dataclass(frozen=True)
class SignatureScheme:
    """Explicit-coin signature fixture.

    kind "coin-injective"/"coin-extractable": sig = coins || tag(sk, m, coins);
    the coins are exposed as a prefix, so the (m, coins) -> sig map is
    injective (checked exhaustively at toy sizes) and coins are extractable
    by reading the prefix. kind "unique": sig = tag(sk, m), no coins, exactly
    one verifying signature per message by construction.
    """

    scheme_id: str
    kind: str
    key_bits: int
    ml: int
    coin_bits: int
    tag_bits: int
    gen: Callable[[random.Random], tuple[Bits, Bits]]
    sign: Callable[[Bits, Bits, Bits], Bits]
    vrfy: Callable[[Bits, Bits, Bits], bool]

    @property
    def sigl(self) -> int:
        return self.coin_bits + self.tag_bits

    def sign_sample(self, sk: Bits, m: Bits, rng: random.Random) -> Bits:
        return self.sign(sk, m, Bits.random(self.coin_bits, rng))

    def extract_coins(self, sig: Bits) -> Bits:
        if self.coin_bits == 0:
            return Bits(0, 0)
        return sig[: self.coin_bits]

    def params_dict(self) -> dict:
        return {
            "kind": f"sig-{self.kind}",
            "kappa": self.key_bits,
            "r": self.coin_bits,
            "ml": self.ml,
            "cl": self.sigl,
            "t": self.tag_bits,
        }


def sig_fixture(
    kind: str, kappa: int, ml: int = 8, coin_bits: int = 8, tag_bits: int = 64
) -> SignatureScheme:
    if kind not in ("coin-injective", "coin-extractable", "unique"):
        raise ParameterError(f"unknown signature kind: {kind}")
    if kind == "unique":
        coin_bits = 0
    if kappa <= 0 or ml <= 0 or coin_bits < 0 or tag_bits <= 0:
        raise ParameterError("bad signature fixture parameters")

    def tag(sk: Bits, m: Bits, coins: Bits) -> Bits:
        return _keystream(sk, b"sig", m + coins, tag_bits)

    def gen(rng: random.Random) -> tuple[Bits, Bits]:
        sk = Bits.random(kappa, rng)
        return sk, sk  # toy fixture: verification recomputes the keyed tag

    def sign(sk: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != coin_bits:
            raise ParameterError("sign: wrong message or coin length")
        return coins + tag(sk, m, coins)

    def vrfy(pk: Bits, m: Bits, sig: Bits) -> bool:
        if len(m) != ml or len(sig) != coin_bits + tag_bits:
            return False
        return sig[coin_bits:] == tag(pk, m, sig[:coin_bits])

    return SignatureScheme(
        scheme_id=f"sig-{kind}-c{coin_bits}-t{tag_bits}",
        kind=kind,
        key_bits=kappa,
        ml=ml,
        coin_bits=coin_bits,
        tag_bits=tag_bits,
        gen=gen,
        sign=sign,
        vrfy=vrfy,
    )


@dataclass(frozen=True)
class RandomizedAlgorithm:
    """A keyed randomized algorithm y = R(s, x; coins) with published lengths.

    input_gen supplies the public inputs when the algorithm is wrapped into
    a channel; by default inputs are uniform bit strings.
    """

    alg_id: str
    secret_bits: int
    input_bits: int
    output_bits: int
    coin_bits: int
    secret_gen: Callable[[random.Random], Bits]
    run: Callable[[Bits, Bits, Bits], Bits]
    input_gen: Callable[[random.Random], Bits] = field(default=None)  # type: ignore[assignment]
    exact_pmf: Callable[[Bits, Bits, Bits], Fraction] | None = None

    def __post_init__(self):
        if self.input_gen is None:
            bits = self.input_bits
            object.__setattr__(self, "input_gen", lambda rng: Bits.random(bits, rng))

    def run_sample(self, s: Bits, x: Bits, rng: random.Random) -> Bits:
        return self.run(s, x, Bits.random(self.coin_bits, rng))


def alg_from_encryption(ses: SymmetricEncryptionScheme) -> RandomizedAlgorithm:
    return RandomizedAlgorithm(
        alg_id=f"enc:{ses.scheme_id}",
        secret_bits=ses.key_bits,
        input_bits=ses.ml,
        output_bits=ses.cl,
        coin_bits=ses.coin_bits,
        secret_gen=ses.gen,
        run=ses.enc,
        exact_pmf=ses.exact_pmf,
    )


def alg_from_signing(sig: SignatureScheme) -> RandomizedAlgorithm:
    def exact_pmf(s: Bits, x: Bits, y: Bits) -> Fraction:
        if sig.coin_bits > _ENUM_LIMIT:
            raise ParameterError("coin space too large to enumerate")
        hits = sum(
            1 for rho in range(2**sig.coin_bits) if sig.sign(s, x, Bits(rho, sig.coin_bits)) == y
        )
        return Fraction(hits, 2**sig.coin_bits)

    return RandomizedAlgorithm(
        alg_id=f"sign:{sig.scheme_id}",
        secret_bits=sig.key_bits,
        input_bits=sig.ml,
        output_bits=sig.sigl,
        coin_bits=sig.coin_bits,
        secret_gen=lambda rng: sig.gen(rng)[1],
        run=sig.sign,
        exact_pmf=exact_pmf,
    )

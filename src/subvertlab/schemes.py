"""Toy cryptographic fixtures.

Everything here is desk-scale and explicit-coin: encryption and signing take
their randomness as an argument, so callers (channels, games, attacks) control
every coin. Key and coin lengths are small enough to enumerate, which is what
the exact-pmf and exhaustive tests rely on.

Every keyed digest here (keystreams, signature tags, the det codebook seed)
comes from prf.hmac_sha256, the package's one HMAC primitive; the hot
fixtures (randpad, signatures) work on integers and build one bit string
per output.

Each fixture instance keeps per-key tables with the bounds of prf (the latest
TABLE_KEYS keys, each table emptied at TABLE_ENTRIES entries): randpad maps
a coin string rho to its pad, the signature fixture maps the payload m || coins
to its tag, and det keeps each key's codebook. The inputs repeat: one
session-unrel benchmark report derives 5,145 pads over only 1,881 coin
strings, since a randpad key has 2^r of them. A forgery search is the
exception: it tests hundreds of candidates on one fresh payload, so it binds
the verifier to that (pk, m) and keeps the tags of that search alone. Every
argument check still runs on every call, before the lookup.

Security properties of the fixtures are measured by the games, not proven.
In particular the signature fixtures verify by recomputing a keyed tag, so
the "public" key carries secret-derived material; they are stand-ins for an
existentially unforgeable scheme, with tag_bits tuning how hard the shipped
forgers find them.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .bits import Bits
from .errors import InvariantViolation, ParameterError
from .prf import TABLE_ENTRIES, hmac_sha256, remember

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


def _keystream_int(key_bytes: bytes, label: bytes, payload_bytes: bytes, nbits: int) -> int:
    """The first nbits of HMAC-SHA256(key, label || counter || payload) over
    counters 0, 1, ... (two bytes, big-endian), as an int."""
    out = hmac_sha256(key_bytes, label + b"\x00\x00" + payload_bytes)
    counter = 1
    while 8 * len(out) < nbits:
        out += hmac_sha256(key_bytes, label + counter.to_bytes(2, "big") + payload_bytes)
        counter += 1
    return int.from_bytes(out, "big") >> (8 * len(out) - nbits)


def _payload_packer(nbits: int) -> Callable[[int], bytes]:
    """int -> the bytes Bits(value, nbits).to_bytes() gives, without the Bits."""
    nbytes = (nbits + 7) // 8
    shift = 8 * nbytes - nbits
    return lambda value: (value << shift).to_bytes(nbytes, "big")


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
    body_mask = (1 << ml) - 1
    pack_rho = _payload_packer(r)
    # per key bytes: rho -> pad int; looked up inline, so a miss adds no frame
    pads: dict[bytes, dict] = {}

    def enc(k: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != r:
            raise ParameterError("randpad enc: wrong message or coin length")
        rho = coins.uint
        kb = k.to_bytes()
        table = pads.get(kb)
        if table is None:
            table = remember(pads, kb, {})
        pad = table.get(rho)
        if pad is None:
            if len(table) >= TABLE_ENTRIES:
                table.clear()
            pad = table[rho] = _keystream_int(kb, b"pad", pack_rho(rho), ml)
        return Bits((rho << ml) | (m.uint ^ pad), cl)

    def dec(k: Bits, c: Bits) -> Bits | None:
        if len(c) != cl:
            return None
        v = c.uint
        rho = v >> ml
        kb = k.to_bytes()
        table = pads.get(kb)
        if table is None:
            table = remember(pads, kb, {})
        pad = table.get(rho)
        if pad is None:
            if len(table) >= TABLE_ENTRIES:
                table.clear()
            pad = table[rho] = _keystream_int(kb, b"pad", pack_rho(rho), ml)
        return Bits((v & body_mask) ^ pad, ml)

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


# det_scheme keeps the codebooks of its latest TABLE_KEYS keys. Each key's
# entry also caches its ciphertexts, one Bits per message, built the first
# time that message is encrypted (never all 2^ml up front: most keys see few
# messages), and the inverse permutation, built on the key's first
# decryption (most keys are only ever used to encrypt).


def _invert(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def det_scheme(kappa: int, ml: int = 8) -> SymmetricEncryptionScheme:
    """Deterministic codebook toy: Enc(k, .) is a keyed permutation of messages.

    Coin length 0; for fixed (k, m) the ciphertext is a point mass, so any
    channel derived from it has min-entropy 0.
    """
    if kappa <= 0 or not 0 < ml <= _ENUM_LIMIT:
        raise ParameterError(f"det scheme needs kappa > 0 and 0 < ml <= {_ENUM_LIMIT}")
    size = 2**ml
    # per key: [permutation, its inverse or None until a dec, ciphertexts]
    books: dict[Bits, list] = {}

    def tables(k: Bits) -> list:
        book = books.get(k)
        if book is None:
            seed = hmac_sha256(k.to_bytes(), b"codebook")
            shuffle_rng = random.Random(int.from_bytes(seed[:16], "big"))
            perm = list(range(size))
            shuffle_rng.shuffle(perm)
            book = remember(books, k, [perm, None, [None] * size])
        return book

    def enc(k: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != 0:
            raise ParameterError("det enc: wrong message or coin length")
        perm, _, cts = tables(k)
        i = m.uint
        c = cts[i]
        if c is None:
            c = cts[i] = Bits(perm[i], ml)
        return c

    def dec(k: Bits, c: Bits) -> Bits | None:
        if len(c) != ml:
            return None
        book = tables(k)
        inv = book[1]
        if inv is None:
            inv = book[1] = _invert(book[0])
        return Bits(inv[c.uint], ml)

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

    verifier(pk, m) binds vrfy to one (pk, m) for a search over many
    candidates: the returned accepts(v) is vrfy(pk, m, Bits(v, sigl)) for
    every 0 <= v < 2^sigl, without building the bit string.
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
    verifier: Callable[[Bits, Bits], Callable[[int], bool]]

    @property
    def sigl(self) -> int:
        return self.coin_bits + self.tag_bits

    def sign_sample(self, sk: Bits, m: Bits, rng: random.Random) -> Bits:
        return self.sign(sk, m, Bits.random(self.coin_bits, rng))

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

    sigl = coin_bits + tag_bits
    tag_mask = (1 << tag_bits) - 1
    pack_mc = _payload_packer(ml + coin_bits)
    tags: dict[bytes, dict] = {}  # per key bytes: payload int -> tag int

    def tag(sk: Bits, m: int, coins: int) -> int:
        """The keyed tag on the bit string m || coins."""
        payload = (m << coin_bits) | coins
        kb = sk.to_bytes()
        table = tags.get(kb)
        if table is None:
            table = remember(tags, kb, {})
        t = table.get(payload)
        if t is None:
            if len(table) >= TABLE_ENTRIES:
                table.clear()
            t = table[payload] = _keystream_int(kb, b"sig", pack_mc(payload), tag_bits)
        return t

    def gen(rng: random.Random) -> tuple[Bits, Bits]:
        sk = Bits.random(kappa, rng)
        return sk, sk  # toy fixture: verification recomputes the keyed tag

    def sign(sk: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != coin_bits:
            raise ParameterError("sign: wrong message or coin length")
        return Bits((coins.uint << tag_bits) | tag(sk, m.uint, coins.uint), sigl)

    def vrfy(pk: Bits, m: Bits, sig: Bits) -> bool:
        if len(m) != ml or len(sig) != sigl:
            return False
        s = sig.uint
        return s & tag_mask == tag(pk, m.uint, s >> tag_bits)

    def verifier(pk: Bits, m: Bits) -> Callable[[int], bool]:
        if len(m) != ml:
            return _reject
        kb = pk.to_bytes()
        base = m.uint << coin_bits
        # coins -> tag for this (pk, m) only: candidates repeat coin strings
        # (eight seed-0 lowerbound rate reports draw 570,209 candidates in
        # 2,166 searches over 281,873 distinct payloads)
        seen: dict[int, int] = {}

        def accepts(v: int) -> bool:
            coins = v >> tag_bits
            t = seen.get(coins)
            if t is None:
                t = seen[coins] = _keystream_int(kb, b"sig", pack_mc(base | coins), tag_bits)
            return v & tag_mask == t

        return accepts

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
        verifier=verifier,
    )


def _reject(v: int) -> bool:
    return False


def _signature_search(vrfy, verifier, pk: Bits, m: Bits, sigl: int, budget: int, rng):
    """The first of `budget` random sigl-bit candidates that verifies on m
    under pk, or None. Candidates are tested as ints by the bound verifier(pk,
    m) and drawn as Bits.random(sigl, rng) would draw them; only the accepted
    one becomes a bit string, and vrfy must accept it too."""
    accepts = verifier(pk, m)
    draw = rng.getrandbits
    for _ in range(budget):
        v = draw(sigl)
        if accepts(v):
            sig = Bits(v, sigl)
            if not vrfy(pk, m, sig):
                raise InvariantViolation(f"bound verifier accepts {sig!r} on {m!r}, vrfy rejects it")
            return sig
    return None


@dataclass(frozen=True)
class RandomizedAlgorithm:
    """A keyed randomized algorithm y = R(s, x; coins) with published lengths.

    run(s, x, coins) is a deterministic function of its three arguments;
    run_sample draws the coins from a caller-supplied PRNG. With coin_bits 0
    the output for fixed (s, x) is therefore one point, which emission_draw
    relies on. input_gen supplies the public inputs when the algorithm is
    wrapped into a channel; by default inputs are uniform bit strings.
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
            # a partial, not a lambda: no interpreted frame per drawn input
            object.__setattr__(self, "input_gen", functools.partial(Bits.random, self.input_bits))

    def run_sample(self, s: Bits, x: Bits, rng: random.Random) -> Bits:
        return self.run(s, x, Bits.random(self.coin_bits, rng))


def emission_draw(
    run: Callable[[Bits, Bits, Bits], Bits],
    coin_bits: int,
    key: Bits,
    x: Bits,
    rng: random.Random,
) -> Callable[[], Bits]:
    """The honest host's sampler for one emission: each call returns
    run(key, x, coins) on fresh coins from rng.

    With no coin bits the explicit-coin run is a deterministic function of
    (key, x), and Bits.random(0, rng) consumes no RNG state, so the honest
    output is computed once here and every call returns that same object.
    Callers see the same documents, in the same number, as from fresh runs.
    """
    if coin_bits == 0:
        return itertools.repeat(run(key, x, Bits.random(0, rng))).__next__
    return functools.partial(_run_on_fresh_coins, run, coin_bits, key, x, rng)


def _run_on_fresh_coins(run, coin_bits, key, x, rng):
    return run(key, x, Bits.random(coin_bits, rng))


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

"""Toy cryptographic fixtures.

Everything here is desk-scale and explicit-coin: encryption and signing take
their randomness as an argument, so callers (channels, games, attacks) control
every coin. Key and coin lengths are small enough to enumerate: a host states
no law of its own, and a channel's exact law at one of its outputs is a count
of its runs over all coin strings (channels._run_law), as keys and inputs
are counted over all uniform strings.

Every keyed digest here (keystreams, signature tags, the det codebook seed)
is an HMAC-SHA256 from prf: the hot ones (randpad's pads, the tags of a
forgery search) are finished inline from the key's bound states
(prf.hmac_states, with the label and counter 0 absorbed), the rest go
through prf.hmac_sha256. The hot fixtures (randpad, signatures) work on
integers and build one bit string per output; randpad also samples
ciphertexts as bare ints (enc_ints).
Attacks and channels alike draw a host's fresh outputs through
emission_draw: a PointDraw when the host (a RandomizedAlgorithm, such as
alg_from_encryption(ses)) takes no coins, an IntDraw over its run_ints (a
scheme's enc_ints) where it has one, and a run on fresh coins otherwise.
A channel session builds that draw once per cycle slot (key, input), and
the emissions that answer that input reuse it (channels.ChannelSession).

Each fixture instance keeps its keyed caches in prf's KeyTable (bounds and
eviction are set in prf): randpad maps a key to its pad table, which holds
the key's bound states and maps a coin string rho to its pad, and det maps
a key to its codebook. The inputs repeat: one session-unrel benchmark
report derives 5,145 pads over only 1,881 coin strings, since a randpad key
has 2^r of them. The signature fixture keeps no table across calls: its
payloads m || coins seldom repeat across calls. Its forgery search,
search(pk, m, budget, rng), is one loop that tests hundreds of candidates
on one fresh payload as ints, and keeps the tags of that search alone.
Every argument check runs on every call, before the lookup.

Security properties of the fixtures are measured by the games, not proven.
In particular the signature fixtures verify by recomputing a keyed tag, so
the "public" key carries secret-derived material; they are stand-ins for an
existentially unforgeable scheme, with tag_bits tuning how hard the shipped
forgers find them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable

from .bits import _EMPTY, Bits
from .errors import InvariantViolation, ParameterError
from . import prf
from .prf import _OUT_BITS, KeyTable, hmac_sha256, hmac_states

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


def _packing(nbits: int) -> tuple[int, int]:
    """(shift, nbytes) such that (value << shift).to_bytes(nbytes, "big") is
    the bytes Bits(value, nbits).to_bytes() gives, without the Bits."""
    nbytes = (nbits + 7) // 8
    return 8 * nbytes - nbits, nbytes


class _PadTable(dict):
    """rho -> pad int under one randpad key: the first ml bits of
    HMAC-SHA256(key, "pad" || counter || rho's bytes), as _keystream_int
    gives them. The key's bound states, with "pad" and counter 0 absorbed,
    are taken once, and a miss finishes its HMAC inline (a pad longer than
    one digest runs the keystream); a table that holds prf.TABLE_ENTRIES
    pads is emptied first."""

    __slots__ = ("kb", "inner", "outer", "shift", "nbytes", "ml")

    def __init__(self, kb: bytes, r: int, ml: int):
        self.kb, self.ml = kb, ml
        self.inner, self.outer = hmac_states(kb, b"pad\x00\x00")
        self.shift, self.nbytes = _packing(r)

    def __missing__(self, rho: int) -> int:
        payload = (rho << self.shift).to_bytes(self.nbytes, "big")
        if self.ml > _OUT_BITS:
            pad = _keystream_int(self.kb, b"pad", payload, self.ml)
        else:
            inner = self.inner.copy()
            inner.update(payload)
            outer = self.outer.copy()
            outer.update(inner.digest())
            pad = int.from_bytes(outer.digest(), "big") >> (_OUT_BITS - self.ml)
        if len(self) >= prf.TABLE_ENTRIES:
            self.clear()
        self[rho] = pad
        return pad


@dataclass(frozen=True)
class SymmetricEncryptionScheme:
    """Explicit-coin symmetric encryption with published lengths.

    enc(k, m, coins) is a deterministic function of its three arguments;
    enc_sample draws the coins from a caller-supplied PRNG, so seed-coupled
    runs reproduce ciphertext streams bit for bit. A scheme may also offer
    enc_ints(k, m, rng): a sampler bound to one (k, m) whose calls return,
    as ints, the ciphertexts that successive enc_sample(k, m, rng) calls
    would return, drawing the same coins.
    """

    scheme_id: str
    key_bits: int
    ml: int
    cl: int
    coin_bits: int
    gen: Callable[[random.Random], Bits]
    enc: Callable[[Bits, Bits, Bits], Bits]
    dec: Callable[[Bits, Bits], Bits | None]
    enc_ints: Callable[[Bits, Bits, random.Random], Callable[[], int]] | None = None

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
    pads = KeyTable(functools.partial(_PadTable, r=r, ml=ml))  # key bytes -> its pads

    def enc(k: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != r:
            raise ParameterError("randpad enc: wrong message or coin length")
        rho = coins.uint
        return Bits((rho << ml) | (m.uint ^ pads[k.to_bytes()][rho]), cl)

    def enc_ints(k: Bits, m: Bits, rng: random.Random) -> Callable[[], int]:
        # coins as enc_sample draws them: getrandbits(0) is 0 and takes no
        # RNG state, as Bits.random(0, rng) takes none
        if len(m) != ml:
            raise ParameterError("randpad enc: wrong message length")
        pad, mv, draw = pads[k.to_bytes()], m.uint, rng.getrandbits
        return lambda: ((rho := draw(r)) << ml) | (mv ^ pad[rho])

    def dec(k: Bits, c: Bits) -> Bits | None:
        if len(c) != cl:
            return None
        v = c.uint
        return Bits((v & body_mask) ^ pads[k.to_bytes()][v >> ml], ml)

    return SymmetricEncryptionScheme(
        scheme_id=f"randpad-{r}",
        key_bits=kappa,
        ml=ml,
        cl=cl,
        coin_bits=r,
        gen=lambda rng: Bits.random(kappa, rng),
        enc=enc,
        dec=dec,
        enc_ints=enc_ints,
    )


# det_scheme keeps a KeyTable of codebooks. Each key's entry also caches its
# ciphertexts, one Bits per message, built the first time that message is
# encrypted (never all 2^ml up front: most keys see few messages), and the
# inverse permutation, built on the key's first decryption (most keys are
# only ever used to encrypt). enc binds the codebook of the last key object
# it saw, so the encryptions of one session, all under one key object, look
# the codebook up once per session instead of hashing the key each time.


def _shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """random.Random.shuffle(x), inline over the generator's getrandbits.

    shuffle draws each index j through _randbelow_with_getrandbits(i + 1):
    getrandbits of (i + 1).bit_length() bits, redrawn while j > i. These
    are the same calls in the same order, so the permutation and the
    generator's state after it are shuffle's own. The two method calls per
    index are gone, and the bit count is computed once per run of indices
    that share it: shuffling 2^16 entries takes 9.5 ms instead of 20.5
    (best of five timeit runs each, 2-core Xeon, Python 3.11).
    """
    top = len(x) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = (1 << (bits - 1)) - 1  # the least i with (i + 1).bit_length() == bits
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            x[i], x[j] = x[j], x[i]
        top = low - 1


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

    def codebook(k: Bits) -> list:
        """[permutation, its inverse or None until a dec, ciphertexts]"""
        seed = hmac_sha256(k.to_bytes(), b"codebook")
        perm = list(range(size))
        _shuffle(perm, random.Random(int.from_bytes(seed[:16], "big")).getrandbits)
        return [perm, None, [None] * size]

    books = KeyTable(codebook)
    last = [(None, None)]  # (the last key object enc saw, its codebook)

    def enc(k: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != 0:
            raise ParameterError("det enc: wrong message or coin length")
        key, book = last[0]
        if key is not k:
            book = books[k]
            last[0] = (k, book)
        perm, _, cts = book
        i = m.uint
        c = cts[i]
        if c is None:
            c = cts[i] = Bits(perm[i], ml)
        return c

    def dec(k: Bits, c: Bits) -> Bits | None:
        if len(c) != ml:
            return None
        book = books[k]
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
    )


@dataclass(frozen=True)
class SignatureScheme:
    """Explicit-coin signature fixture.

    kind "coin-injective"/"coin-extractable": sig = coins || tag(sk, m, coins);
    the coins are exposed as a prefix, so the (m, coins) -> sig map is
    injective (checked exhaustively at toy sizes) and coins are extractable
    by reading the prefix. kind "unique": sig = tag(sk, m), no coins, exactly
    one verifying signature per message by construction.

    search(pk, m, budget, rng) is the brute-force forgery search: it draws
    up to `budget` candidates v = rng.getrandbits(sigl), as
    Bits.random(sigl, rng) would draw them, and returns the first v for
    which vrfy(pk, m, Bits(v, sigl)) holds, or None after `budget` draws,
    testing each candidate as an int without building its bit string.
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
    search: Callable[[Bits, Bits, int, random.Random], int | None]

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
    shift, nbytes = _packing(ml + coin_bits)  # packs the payload m || coins

    def tag(kb: bytes, payload: int) -> int:
        return _keystream_int(kb, b"sig", (payload << shift).to_bytes(nbytes, "big"), tag_bits)

    def gen(rng: random.Random) -> tuple[Bits, Bits]:
        sk = Bits.random(kappa, rng)
        return sk, sk  # toy fixture: verification recomputes the keyed tag

    def sign(sk: Bits, m: Bits, coins: Bits) -> Bits:
        if len(m) != ml or len(coins) != coin_bits:
            raise ParameterError("sign: wrong message or coin length")
        rho = coins.uint
        return Bits((rho << tag_bits) | tag(sk.to_bytes(), (m.uint << coin_bits) | rho), sigl)

    def vrfy(pk: Bits, m: Bits, sig: Bits) -> bool:
        if len(m) != ml or len(sig) != sigl:
            return False
        s = sig.uint
        return s & tag_mask == tag(pk.to_bytes(), (m.uint << coin_bits) | (s >> tag_bits))

    def search(pk: Bits, m: Bits, budget: int, rng: random.Random) -> int | None:
        draw = rng.getrandbits
        if len(m) != ml:  # nothing verifies, and every candidate is still drawn
            for _ in range(budget):
                draw(sigl)
            return None
        kb, base = pk.to_bytes(), m.uint << coin_bits
        # one-block tags are finished inline from pk's bound states
        inner, outer = hmac_states(kb, b"sig\x00\x00")
        cut = _OUT_BITS - tag_bits
        # coins -> tag for this search only: candidates repeat coin strings
        # (eight seed-0 lowerbound rate reports draw 570,209 candidates in
        # 2,166 searches over 281,873 distinct payloads)
        seen: dict[int, int] = {}
        get = seen.get
        for _ in range(budget):
            v = draw(sigl)
            coins = v >> tag_bits
            t = get(coins)
            if t is None:
                if cut < 0:
                    t = tag(kb, base | coins)
                else:
                    h = inner.copy()
                    h.update(((base | coins) << shift).to_bytes(nbytes, "big"))
                    o = outer.copy()
                    o.update(h.digest())
                    t = int.from_bytes(o.digest(), "big") >> cut
                seen[coins] = t
            if v & tag_mask == t:
                return v
        return None

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
        search=search,
    )


def _signature_search(vrfy, search, pk: Bits, m: Bits, sigl: int, budget: int, rng):
    """The first of `budget` random sigl-bit candidates that verifies on m
    under pk, or None: the scheme's search(pk, m, budget, rng) draws and
    tests them as ints, only the one it returns becomes a bit string, and
    vrfy must accept that one too."""
    v = search(pk, m, budget, rng)
    if v is None:
        return None
    sig = Bits(v, sigl)
    if not vrfy(pk, m, sig):
        raise InvariantViolation(f"search accepts {sig!r} on {m!r}, vrfy rejects it")
    return sig


@dataclass(frozen=True)
class RandomizedAlgorithm:
    """A keyed randomized algorithm y = R(s, x; coins) with published lengths.

    run(s, x, coins) is a deterministic function of its three arguments;
    run_sample draws the coins from a caller-supplied PRNG. With coin_bits 0
    the output for fixed (s, x) is therefore one point, which emission_draw
    relies on. run_ints(s, x, rng), where given, samples outputs as ints,
    as a scheme's enc_ints samples ciphertexts. input_gen(rng) draws a
    uniform input_bits-bit input, the inputs the games and watchdogs pick
    (a cycle channel draws its uniform inputs itself).
    """

    alg_id: str
    secret_bits: int
    input_bits: int
    output_bits: int
    coin_bits: int
    secret_gen: Callable[[random.Random], Bits]
    run: Callable[[Bits, Bits, Bits], Bits]
    input_gen: Callable[[random.Random], Bits] = field(init=False)
    run_ints: Callable[[Bits, Bits, random.Random], Callable[[], int]] | None = None

    def __post_init__(self):
        # a partial, not a lambda: no interpreted frame per drawn input
        object.__setattr__(self, "input_gen", functools.partial(Bits.random, self.input_bits))

    def run_sample(self, s: Bits, x: Bits, rng: random.Random) -> Bits:
        return self.run(s, x, Bits.random(self.coin_bits, rng))


class PointDraw:
    """The draw of a coin-free host's emission: every call returns .point,
    the host's one output for the emission's (key, input)."""

    __slots__ = ("point",)

    def __init__(self, point: Bits):
        self.point = point

    def __call__(self) -> Bits:
        return self.point


class IntDraw:
    """One emission's draw in int form: ints() samples the next document's
    value x, (x << shift).to_bytes(nbytes, "big") packs it into the bytes
    Bits(x, width).to_bytes() would give, and emit(x) builds the document.
    Called plainly, it returns the document, as any draw does."""

    __slots__ = ("ints", "width", "shift", "nbytes")

    def __init__(self, ints: Callable[[], int], width: int):
        self.ints, self.width = ints, width
        self.shift, self.nbytes = _packing(width)

    def emit(self, x: int) -> Bits:
        return Bits(x, self.width)

    def __call__(self) -> Bits:
        return Bits(self.ints(), self.width)


def emission_draw(
    alg: RandomizedAlgorithm, key: Bits, x: Bits, rng: random.Random
) -> Callable[[], Bits]:
    """The honest host's sampler for one emission: each call returns
    alg.run(key, x, coins) on fresh coins from rng.

    With no coin bits the explicit-coin run is a deterministic function of
    (key, x), and a zero-bit coin draw consumes no RNG state, so the honest
    output is computed once here, on the shared empty coin string, and
    returned as a point draw (PointDraw): each call returns that same
    object, and a sampler that reads .point (stego.encode_step) knows every
    draw of the emission without taking one. A host with run_ints gives an
    IntDraw. Callers see the same documents, from the same RNG calls, as
    from fresh runs. No draw holds state of its own besides rng's, so a
    caller may keep one and reuse it for every emission of a session that
    answers the same (key, x) from the same rng (a channel session does).
    """
    if alg.coin_bits == 0:
        return PointDraw(alg.run(key, x, _EMPTY))
    if alg.run_ints is not None:
        return IntDraw(alg.run_ints(key, x, rng), alg.output_bits)
    return functools.partial(alg.run_sample, key, x, rng)


def alg_from_encryption(ses: SymmetricEncryptionScheme) -> RandomizedAlgorithm:
    return RandomizedAlgorithm(
        alg_id=f"enc:{ses.scheme_id}",
        secret_bits=ses.key_bits,
        input_bits=ses.ml,
        output_bits=ses.cl,
        coin_bits=ses.coin_bits,
        secret_gen=ses.gen,
        run=ses.enc,
        run_ints=ses.enc_ints,
    )


def alg_from_signing(sig: SignatureScheme) -> RandomizedAlgorithm:
    return RandomizedAlgorithm(
        alg_id=f"sign:{sig.scheme_id}",
        secret_bits=sig.key_bits,
        input_bits=sig.ml,
        output_bits=sig.sigl,
        coin_bits=sig.coin_bits,
        secret_gen=lambda rng: sig.gen(rng)[1],
        run=sig.sign,
    )

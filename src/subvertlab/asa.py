"""Substitution attacks built from the embedding layer.

A substitution attack replaces an encryption routine with a subverted one
that leaks a hidden message through ordinary-looking ciphertexts; the
extractor recovers the message from the ciphertext stream alone, using the
attacker key. The constructions here are stateless: the state argument is
passed through untouched, so a reboot can never desynchronize them. The
state belongs to whoever runs the encoder: the enc_all drivers thread it
from None, and in a game the challenger's oracle keeps it (games.py), so an
adversary only ever sees outputs.

One construction turns a stegosystem into such an attack: each emission
runs the stego encoder at the session view s || x^ell and answers every
channel query with a fresh honest output. SubstitutionAttack is the one
attack type, against encryption, signing or any other randomized host.
universal_asa is the same construction against an oracle-only host: the
attack sees nothing but published lengths and an explicit-coin encryption
oracle, and every emitted ciphertext is one the oracle produced. The host
logs every oracle call in its own `queries`, which makes that checkable.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable

from .bits import Bits
from .errors import ParameterError, UniversalityViolation, WrongDocumentCountError
from .schemes import (
    RandomizedAlgorithm,
    SymmetricEncryptionScheme,
    alg_from_encryption,
    emission_draw,
)
from .stego import StegoSystem, mark_agreement

__all__ = [
    "SubstitutionAttack",
    "OracleQuery",
    "UniversalHost",
    "asa_from_stego",
    "asa_enc_all",
    "alg_enc_all",
    "universal_asa",
    "generic_asa_against_alg",
    "query_count",
    "QueryCountEstimate",
    "watchdog_to_warden",
]


@dataclass(frozen=True)
class SubstitutionAttack:
    """Attack triple against a randomized algorithm, encryption included.

    enc(ak, am, s, x, sigma, rng) -> (output, sigma), on the host's secret
    and input (a key and message); ext(ak, outputs) -> hidden message or
    None. host_params records the published lengths of the host the attack
    was built for.
    """

    attack_id: str
    ml: int
    outl: int
    key_bits: int
    host_params: dict
    gen: Callable[[random.Random], Bits]
    enc: Callable[..., tuple[Bits, object]]
    ext: Callable[[Bits, Sequence[Bits]], Bits | None]

    def describe(self) -> dict:
        return {
            "attack": self.attack_id,
            "ml": self.ml,
            "outl": self.outl,
            "host": self.host_params,
        }


class _SessionView(Sequence):
    """The session history key || m^ell, read-only and never built: len,
    indexing (negative too), slicing and iteration give what the tuple
    (key,) + (m,) * ell gives."""

    __slots__ = ("_key", "_m", "_ell")

    def __init__(self, key: Bits, m: Bits, ell: int):
        self._key, self._m, self._ell = key, m, ell

    def __len__(self) -> int:
        return self._ell + 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = operator.index(i)
        if i < 0:
            i += self._ell + 1
        if not 0 <= i <= self._ell:
            raise IndexError("session index out of range")
        return self._m if i else self._key

    def __iter__(self):
        yield self._key
        yield from itertools.repeat(self._m, self._ell)


def _stego_attack(steg, attack_id, host_params, host_draw):
    """The one stego-to-attack construction: each emission runs steg's
    encoder at the session view s || x^ell, unbuilt, over the draw
    host_draw(s, x, rng)."""
    steg_enc, params = steg.enc, steg.params
    ell = params.outl

    def enc(ak, am, s, x, sigma, rng):
        draw = host_draw(s, x, rng)
        return steg_enc(ak, am, _SessionView(s, x, ell), sigma, draw=draw, rng=rng)

    return SubstitutionAttack(
        attack_id=attack_id,
        ml=params.ml,
        outl=ell,
        key_bits=params.kappa,
        host_params=host_params,
        gen=steg.gen,
        enc=enc,
        ext=steg.dec,
    )


def asa_from_stego(steg: StegoSystem, ses: SymmetricEncryptionScheme) -> SubstitutionAttack:
    """Subvert `ses` with the encoder of `steg`.

    Each call embeds into the session view key || m^ell, answering every
    channel query of the encoder with a fresh Enc(k, m), drawn through
    schemes.emission_draw (as ints where the scheme has enc_ints, as one
    point draw per emission on a coin-free scheme). A seed-coupled run of
    this enc and of the plain stego encoder on the scheme's channel is
    bit-identical.
    """
    draw = functools.partial(emission_draw, alg_from_encryption(ses))
    return _stego_attack(steg, f"rejsam-asa:{ses.scheme_id}", ses.params_dict(), draw)


def _enc_all(enc, outl, what, ak, am, s, xs, rng) -> list[Bits]:
    if len(xs) != outl:
        raise WrongDocumentCountError(f"expected {outl} {what}, got {len(xs)}")
    out, sigma = [], None
    for x in xs:
        y, sigma = enc(ak, am, s, x, sigma, rng)
        out.append(y)
    return out


def asa_enc_all(
    asa: SubstitutionAttack,
    ak: Bits,
    am: Bits,
    k: Bits,
    messages: Sequence[Bits],
    rng: random.Random,
) -> list[Bits]:
    """Threaded-state driver: one subverted ciphertext per message, from state None."""
    return _enc_all(asa.enc, asa.outl, "messages", ak, am, k, messages, rng)


def alg_enc_all(
    attack: SubstitutionAttack,
    ak: Bits,
    am: Bits,
    s: Bits,
    inputs: Sequence[Bits],
    rng: random.Random,
) -> list[Bits]:
    """Threaded-state driver: one subverted output per input, from state None."""
    return _enc_all(attack.enc, attack.outl, "inputs", ak, am, s, inputs, rng)


# --- universal (oracle-only) attacks ---------------------------------------


@dataclass(frozen=True)
class OracleQuery:
    k: Bits
    m: Bits
    coins: Bits
    c: Bits


class UniversalHost:
    """Oracle-only view of an encryption scheme.

    Exposes exactly (ml, cl, coin_bits) and the explicit-coin oracle, which
    appends every call it answers to `queries`, in order. Any other
    attribute access raises and is counted, which is how tests assert that
    universal attacks never peek past the interface.
    """

    def __init__(self, ses: SymmetricEncryptionScheme):
        self.ml = ses.ml
        self.cl = ses.cl
        self.coin_bits = ses.coin_bits
        self.queries: list[OracleQuery] = []
        self.forbidden_accesses = 0
        enc, log = ses.enc, self.queries.append

        def oracle(k: Bits, m: Bits, coins: Bits) -> Bits:
            c = enc(k, m, coins)
            log(OracleQuery(k, m, coins, c))
            return c

        self.oracle = oracle

    def __getattr__(self, name):  # normal lookups never reach here
        self.__dict__["forbidden_accesses"] = self.__dict__.get("forbidden_accesses", 0) + 1
        raise UniversalityViolation(f"universal attack touched host field {name!r}")


def universal_asa(steg: StegoSystem, host: UniversalHost) -> SubstitutionAttack:
    """Rejection-sampling attack with oracle-only host access.

    The one stego-to-attack construction, at the session view k || m^ell,
    with every document the encoder inspects an oracle answer on fresh
    uniform coins; the host's queries log each invocation, including the
    over-cutoff draw.
    """

    def oracle_draw(k, m, rng):
        return lambda: host.oracle(k, m, Bits.random(host.coin_bits, rng))

    host_params = {"ml": host.ml, "cl": host.cl, "r": host.coin_bits}
    return _stego_attack(steg, "universal-rejsam", host_params, oracle_draw)


def generic_asa_against_alg(
    steg: StegoSystem,
    alg: RandomizedAlgorithm,
    demo_force_embed: bool = False,
) -> SubstitutionAttack:
    """Subvert any randomized algorithm by rejection-sampling its outputs.

    The one stego-to-attack construction, at the session view s || x^ell:
    every draw of the encoder is an honest run on fresh coins, drawn as
    schemes.emission_draw draws it (a point draw on a coin-free algorithm,
    an int draw where the algorithm has run_ints).

    demo_force_embed is a labeled demonstration mode for deterministic hosts:
    when the cutoff passes without a match it fabricates an off-support
    output that marks correctly, trading detectability for reliability
    (exactly the trade a repeat watchdog then measures). Default off.
    """
    attack_id = f"rejsam-asa:{alg.alg_id}" + ("+force-embed" if demo_force_embed else "")
    host_params = {"alg_id": alg.alg_id, "output_bits": alg.output_bits}
    attack = _stego_attack(steg, attack_id, host_params, functools.partial(emission_draw, alg))
    if not demo_force_embed:
        return attack
    if steg.prf is None:
        raise ParameterError("stego system does not publish its mark function")
    embed = attack.enc

    def enc(ak, am, s, x, sigma, rng):
        doc, sigma = embed(ak, am, s, x, sigma, rng)
        agrees = mark_agreement(steg.prf, steg.params, ak, am)
        for _ in range(65536):
            if agrees(doc):
                return doc, sigma
            doc = Bits.random(alg.output_bits, rng)
        raise ParameterError("could not fabricate a marking document")

    return replace(attack, enc=enc)


@dataclass(frozen=True)
class QueryCountEstimate:
    mean: float
    ci95: tuple[float, float]
    trials: int
    seed: int


def query_count(
    steg: StegoSystem, ses: SymmetricEncryptionScheme, trials: int, seed: int
) -> QueryCountEstimate:
    """Measured expected oracle calls per subverted ciphertext.

    Runs universal_asa(steg) against its own UniversalHost of ses and counts
    every oracle invocation the host logs, including the final over-cutoff
    draw, over at least two trials (the interval uses the sample deviation).
    """
    if trials < 2:
        raise ParameterError("query_count needs at least 2 trials")
    from .games import _Z95
    from .rng import substream

    host = UniversalHost(ses)
    asa = universal_asa(steg, host)
    counts = []
    for i in range(trials):
        rng = substream(seed, i, "query-count")
        ak = asa.gen(rng)
        am = Bits.random(asa.ml, rng)
        k = Bits.random(ses.key_bits, rng)
        m = Bits.random(ses.ml, rng)
        host.queries.clear()  # one trial's log at a time
        asa.enc(ak, am, k, m, None, rng)
        counts.append(len(host.queries))
    mean = statistics.fmean(counts)
    half = _Z95 * statistics.stdev(counts) / trials**0.5
    return QueryCountEstimate(mean=mean, ci95=(mean - half, mean + half), trials=trials, seed=seed)


def watchdog_to_warden(watchdog, ses: SymmetricEncryptionScheme, ell: int):
    """Reduction adapter: an attack watchdog replayed as a channel warden.

    The warden forwards each watchdog challenge (am, k, m) as the channel
    challenge (am, k || m^ell), at the session view every attack hands its
    encoder (_SessionView); the warden's oracle keeps the encoder state.
    With coupled seeds the watchdog sees the identical transcript in both
    games, so decisions match trial for trial. The watchdog sees the scheme
    as the randomized algorithm it is, exactly as in the encryption
    watchdog game.
    """
    from .games import Adversary

    alg = alg_from_encryption(ses)

    class _View:
        def __init__(self, parent):
            self._parent = parent
            self.alg = alg
            self.asa_ml = parent.stego_ml
            self.sim_rng = parent.sim_rng

        def ch(self, am, k, m):
            return self._parent.ch(am, _SessionView(k, m, ell))

    def strategy(oracles, rng):
        return watchdog.strategy(_View(oracles), rng)

    return Adversary(
        kind="warden",
        name=f"wrapped:{watchdog.name}",
        strategy=strategy,
    )

"""Rate versus forgeability: the signed-family experiment.

A signed family couples an encryption scheme to a signature scheme: each
output is a ciphertext plus a signature on it, under a signing key fixed
when the family is built. Any substitution attack on the family that leaks
more than it could have gathered from its own oracle calls must be emitting
signed pairs the oracle never produced, i.e. forgeries. phi() is the
counting bound for "could have gathered": with outl outputs assembled from
outl*query oracle answers, a hidden message of ml bits is recoverable from
oracle material alone with probability at most 2^(outl*log2(outl*query) - ml).

rate_report() runs all four measured legs (detectability, unreliability,
the counting bound, forgery rate) and assembles the lower-bound inequality
empirically; its five Monte Carlo plays (three watchdogs, unreliability,
forgery) share one set of worker processes. fabricating_asa() is the
attack that makes it bite: one output carrying an ml-bit message (8 by
default, which fits the 16-bit ciphertexts of randpad_scheme(8, 16, 8)),
signed by brute verifier search.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace

from .adversaries import default_watchdogs
from .asa import SubstitutionAttack, UniversalHost, universal_asa
from .bits import Bits
from .errors import LengthMismatchError, ParameterError, WrongDocumentCountError
from .games import (
    SCHEMA,
    _Z95,
    Adversary,
    _forge_play,
    _play_all,
    _rasa_play,
    _unrel_alg_play,
)
from .schemes import (
    RandomizedAlgorithm,
    SignatureScheme,
    SymmetricEncryptionScheme,
    _keystream_int,
    _signature_search,
)
from .stego import StegoSystem

__all__ = [
    "SignedFamily",
    "make_signed_family",
    "PhiReport",
    "phi",
    "fabricating_asa",
    "forger_from_universal_asa",
    "forger_from_fabricating_asa",
    "rate_report",
]


@dataclass(frozen=True)
class SignedFamily:
    """Encrypt-then-sign under a keypair fixed at construction."""

    ses: SymmetricEncryptionScheme
    sig: SignatureScheme
    pk: Bits
    sk: Bits
    alg: RandomizedAlgorithm


def make_signed_family(
    ses: SymmetricEncryptionScheme, sig: SignatureScheme, rng: random.Random
) -> SignedFamily:
    """Couple `ses` and `sig` into one randomized algorithm.

    The signing keypair is drawn here, once: the family's secret is only the
    encryption key, so the same keypair backs reliability runs, watchdog
    runs, and the forgery game the construction reduces to. The signature
    scheme must sign ciphertext-length messages.
    """
    if sig.ml != ses.cl:
        raise LengthMismatchError(
            f"signature scheme signs {sig.ml}-bit messages but ciphertexts are {ses.cl} bits"
        )
    sk, pk = sig.gen(rng)

    def run(k: Bits, m: Bits, coins: Bits) -> Bits:
        c = ses.enc(k, m, coins[: ses.coin_bits])
        return c + sig.sign(sk, c, coins[ses.coin_bits :])

    alg = RandomizedAlgorithm(
        alg_id=f"signed:{ses.scheme_id}+{sig.scheme_id}",
        secret_bits=ses.key_bits,
        input_bits=ses.ml,
        output_bits=ses.cl + sig.sigl,
        coin_bits=ses.coin_bits + sig.coin_bits,
        secret_gen=ses.gen,
        run=run,
    )
    return SignedFamily(ses=ses, sig=sig, pk=pk, sk=sk, alg=alg)


@dataclass(frozen=True)
class PhiReport:
    """Log-domain counting bound; trivial means the bound says nothing."""

    ml: int
    outl: int
    query: float
    log2_phi: float
    phi: float
    trivial: bool

    def to_json_dict(self) -> dict:
        """The fields as JSON values; a phi that overflowed a float is null."""
        out = asdict(self)
        if math.isinf(self.phi):
            out["phi"] = None
        return out


def phi(ml: int, outl: int, query: float) -> PhiReport:
    """Chance that oracle material alone pins down an ml-bit hidden message."""
    if outl < 1 or not 1 <= query < math.inf:
        raise ParameterError(f"need outl >= 1 and 1 <= query < inf, got outl={outl}, query={query}")
    if ml < 0:
        raise ParameterError("ml must be nonnegative")
    try:
        log2_phi = outl * math.log2(outl * query) - ml
    except OverflowError:  # an int argument too large for a float
        log2_phi = math.inf
    if not math.isfinite(log2_phi):
        raise ParameterError(f"log2 phi overflows a float at ml={ml}, outl={outl}, query={query}")
    if log2_phi >= 1024:
        value = math.inf
    elif log2_phi <= -1074:
        value = 0.0
    else:
        value = 2.0**log2_phi
    return PhiReport(
        ml=ml, outl=outl, query=query, log2_phi=log2_phi, phi=value, trivial=log2_phi >= 0
    )


def _fab_prefix(ses: SymmetricEncryptionScheme, ml: int) -> int:
    """Length of the random prefix rho in front of a fabricated ml-bit payload."""
    if ml < 0:
        raise ParameterError(f"hidden message length must be non-negative, got {ml}")
    if ses.cl < ml:
        raise ParameterError("hidden message longer than a ciphertext")
    return ses.cl - ml


def _check_decoys(decoys: int) -> None:
    # the fallback after an exhausted search emits the last decoy's answer
    if decoys < 1:
        raise ParameterError(f"need decoys >= 1 (one honest oracle answer), got {decoys}")


def _fab_pad(ak: Bits, rho: Bits, ml: int) -> Bits:
    return Bits(_keystream_int(ak.to_bytes(), b"fabricate", rho.to_bytes(), ml), ml)


def _fabricate_and_search(ak, am, prefix, sigl, vrfy, search, pk, budget, rng):
    """The fabricated ciphertext rho || (am xor pad(ak, rho)) and a signature
    on it found by the scheme's random search on (pk, c_star) and confirmed
    by vrfy; None when the budget runs out."""
    rho = Bits.random(prefix, rng)
    c_star = rho + (am ^ _fab_pad(ak, rho, len(am)))
    sig = _signature_search(vrfy, search, pk, c_star, sigl, budget, rng)
    return None if sig is None else (c_star, sig)


def fabricating_asa(
    family: SignedFamily, ml: int = 8, decoys: int = 4, budget: int = 4096
) -> SubstitutionAttack:
    """One-output attack that leaks ml bits by inventing a signed pair.

    The emitted document is rho || (am xor pad(ak, rho)) with a signature
    found by random search against the public verifier; the decoy oracle
    calls only shape the query count. When the search budget runs out
    (strong tags), it falls back to an honest oracle answer, losing the
    message instead of emitting an invalid document.
    """
    ses, sig = family.ses, family.sig
    _check_decoys(decoys)
    prefix = _fab_prefix(ses, ml)
    total_len = ses.cl + sig.sigl

    def gen(rng: random.Random) -> Bits:
        return Bits.random(128, rng)

    def enc(ak, am, s, x, sigma, rng):
        if len(am) != ml:
            raise LengthMismatchError(f"hidden message must be {ml} bits")
        last = None
        for _ in range(decoys):
            last = family.alg.run_sample(s, x, rng)
        found = _fabricate_and_search(
            ak, am, prefix, sig.sigl, sig.vrfy, sig.search, family.pk, budget, rng
        )
        return (last if found is None else found[0] + found[1]), sigma

    def ext(ak, docs):
        if len(docs) != 1:
            raise WrongDocumentCountError(f"expected 1 document, got {len(docs)}")
        d = docs[0]
        if len(d) != total_len:
            return None
        return d[prefix : prefix + ml] ^ _fab_pad(ak, d[:prefix], ml)

    return SubstitutionAttack(
        attack_id=f"fabricating:{family.alg.alg_id}",
        ml=ml,
        outl=1,
        key_bits=128,
        host_params={"alg_id": family.alg.alg_id, "output_bits": family.alg.output_bits},
        gen=gen,
        enc=enc,
        ext=ext,
    )


def forger_from_universal_asa(
    steg: StegoSystem, ses: SymmetricEncryptionScheme, sig: SignatureScheme
) -> Adversary:
    """Run a universal attack against the signed family inside the forgery game.

    The attack runs on a UniversalHost over the signed encryption: every
    ciphertext it inspects is signed by the game's oracle, so an attack
    that only ever emits oracle answers can never win: its output message
    is always on the queried list. Only a fabricating attack gets past this
    forger's own bookkeeping.
    """
    if sig.ml != ses.cl:
        raise LengthMismatchError("signature scheme must sign ciphertext-length messages")

    def strategy(view, rng: random.Random):
        def enc(k: Bits, m: Bits, coins: Bits) -> Bits:
            c = ses.enc(k, m, coins)
            return c + view.sign(c)

        signed = replace(ses, cl=ses.cl + sig.sigl, enc=enc, enc_ints=None)
        attack = universal_asa(steg, UniversalHost(signed))
        ak = attack.gen(rng)
        am = Bits.random(attack.ml, rng)
        k = Bits.random(ses.key_bits, rng)
        m = Bits.random(ses.ml, rng)
        doc, _ = attack.enc(ak, am, k, m, None, rng)
        return doc[: ses.cl], doc[ses.cl :]

    return Adversary(
        name="universal-attack",
        strategy=strategy,
    )


def forger_from_fabricating_asa(
    ses: SymmetricEncryptionScheme,
    sig: SignatureScheme,
    ml: int = 8,
    decoys: int = 4,
    budget: int = 4096,
) -> Adversary:
    """The fabricating attack replayed inside the forgery game."""
    if sig.ml != ses.cl:
        raise LengthMismatchError("signature scheme must sign ciphertext-length messages")
    _check_decoys(decoys)
    prefix = _fab_prefix(ses, ml)

    def strategy(view, rng: random.Random):
        ak = Bits.random(128, rng)
        am = Bits.random(ml, rng)
        k = Bits.random(ses.key_bits, rng)
        x = Bits.random(ses.ml, rng)
        last = None
        for _ in range(decoys):
            c = ses.enc_sample(k, x, rng)
            last = (c, view.sign(c))
        found = _fabricate_and_search(
            ak, am, prefix, sig.sigl, view.vrfy, view.search, view.pk, budget, rng
        )
        return last if found is None else found

    return Adversary(
        name=f"fabricating-{ml}",
        strategy=strategy,
    )


def rate_report(
    family: SignedFamily,
    attack: SubstitutionAttack,
    query: float,
    forger: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> dict:
    """Assemble the rate lower-bound inequality from measured legs.

    forger_bound = 1 - insec_hat - unrel_hat - phi - 3*SE, floored at zero;
    a sound attack/forger pairing should show forger_success_hat >= bound.
    insec_hat is the worst normalized advantage over the default watchdogs.
    """
    phi_rep = phi(attack.ml, attack.outl, query)  # checks query before the legs run
    watchdogs = default_watchdogs()
    plays = [_rasa_play(attack, family.alg, w, trials, seed) for w in watchdogs]
    plays.append(_unrel_alg_play(attack, family.alg, trials, seed))
    plays.append(_forge_play(family.sig, forger, trials, seed))
    *watchdog_reps, unrel_rep, forge_rep = _play_all(plays, jobs)

    insec_hat, se_insec = 0.0, 0.0
    insec_by_watchdog = {}
    for w, rep in zip(watchdogs, watchdog_reps):
        insec_by_watchdog[w.name] = rep.normalized_advantage
        if rep.normalized_advantage >= insec_hat:
            insec_hat = rep.normalized_advantage
            lo, hi = rep.advantage_ci95
            se_insec = (hi - lo) / (2 * _Z95)

    unrel_hat = unrel_rep.failure_rate
    lo, hi = unrel_rep.ci95
    se_unrel = (hi - lo) / (2 * _Z95)

    slack = 3.0 * math.sqrt(se_insec**2 + se_unrel**2)
    bound = max(0.0, 1.0 - insec_hat - unrel_hat - phi_rep.phi - slack)

    return {
        "schema": SCHEMA,
        "game": "rate-lower-bound",
        "ml": attack.ml,
        "outl": attack.outl,
        "bits_per_ciphertext": attack.ml / attack.outl,
        "log2_phi": phi_rep.log2_phi,
        "insec_hat": insec_hat,
        "unrel_hat": unrel_hat,
        "forger_bound": bound,
        "forger_success_hat": forge_rep.p_hat,
        "query": query,
        "trials": trials,
        "seed": seed,
        "insec_by_watchdog": insec_by_watchdog,
    }

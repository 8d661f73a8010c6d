"""Signed families, the counting bound, and the fabrication experiment."""

import dataclasses
import math
import random

import pytest

from subvertlab import (
    Bits,
    InvariantViolation,
    LengthMismatchError,
    ParameterError,
    StegoParams,
    WrongDocumentCountError,
    estimate_unrel_alg,
    fabricating_asa,
    forger_from_fabricating_asa,
    forger_from_universal_asa,
    make_signed_family,
    phi,
    randpad_scheme,
    rate_report,
    rejsam_system,
    run_sig_forge,
    search_forger,
    sig_fixture,
)
from subvertlab import lowerbound

KAPPA = 16


def family_fixture(tag_bits=8, rng_seed=0):
    ses = randpad_scheme(r=8, kappa=KAPPA, ml=8)
    sig = sig_fixture("coin-extractable", kappa=KAPPA, ml=ses.cl, coin_bits=8, tag_bits=tag_bits)
    return ses, sig, make_signed_family(ses, sig, random.Random(rng_seed))


def test_counting_bound_reference_points():
    # one ciphertext from four oracle answers leaves a 64-bit message
    # essentially unguessable
    tight = phi(ml=64, outl=1, query=4)
    assert tight.log2_phi == pytest.approx(-62.0)
    assert tight.phi == pytest.approx(2.0**-62)
    assert not tight.trivial

    # low rate with many outputs: the bound crosses one and says nothing
    vacuous = phi(ml=16, outl=256, query=2)
    assert vacuous.log2_phi == pytest.approx(2288.0)
    assert vacuous.phi == math.inf and vacuous.trivial
    assert vacuous.to_json_dict()["phi"] is None  # JSON has no infinity

    # an empty message is always recoverable
    empty = phi(ml=0, outl=1, query=1)
    assert empty.phi == 1.0 and empty.trivial

    huge = phi(ml=64, outl=2**20, query=2)  # must not overflow
    assert huge.phi == math.inf

    d = tight.to_json_dict()
    assert set(d) == {"ml", "outl", "query", "log2_phi", "phi", "trivial"}
    for bad in ((8, 0, 2), (8, 1, 0.5), (-1, 1, 2), (8, 1, math.nan), (8, 1, math.inf), (8, 2, 1e308)):
        with pytest.raises(ParameterError):
            phi(*bad)


def test_signed_family_couples_the_coins():
    ses, sig, family = family_fixture()
    assert family.alg.output_bits == ses.cl + sig.sigl
    assert family.alg.coin_bits == ses.coin_bits + sig.coin_bits

    rng = random.Random(3)
    k = ses.gen(rng)
    m = Bits.random(ses.ml, rng)
    coins = Bits.random(family.alg.coin_bits, rng)
    doc = family.alg.run(k, m, coins)
    c = ses.enc(k, m, coins[: ses.coin_bits])
    assert doc == c + sig.sign(family.sk, c, coins[ses.coin_bits :])
    assert sig.vrfy(family.pk, doc[: ses.cl], doc[ses.cl :])

    short = sig_fixture("coin-extractable", kappa=KAPPA, ml=ses.cl - 8, tag_bits=8)
    with pytest.raises(LengthMismatchError):
        make_signed_family(ses, short, rng)


def test_fabrication_recovers_against_weak_tags_only():
    ses, sig, weak = family_fixture(tag_bits=8)
    attack = fabricating_asa(weak, ml=8, decoys=4, budget=4096)
    assert attack.outl == 1
    report = estimate_unrel_alg(attack, weak.alg, trials=30, seed=1)
    assert report.p_hat >= 0.95

    # strong tags exhaust the search budget; the honest fallback loses the
    # message instead of emitting an off-support document
    _, _, strong = family_fixture(tag_bits=64)
    guarded = fabricating_asa(strong, ml=8, decoys=4, budget=64)
    fallback = estimate_unrel_alg(guarded, strong.alg, trials=10, seed=1)
    assert fallback.p_hat <= 0.1

    rng = random.Random(2)
    ak = attack.gen(rng)
    with pytest.raises(WrongDocumentCountError):
        attack.ext(ak, [Bits.random(weak.alg.output_bits, rng)] * 2)
    assert attack.ext(ak, [Bits.random(weak.alg.output_bits - 1, rng)]) is None
    for ml in (weak.ses.cl + 1, -1):
        with pytest.raises(ParameterError):
            fabricating_asa(weak, ml=ml)
        with pytest.raises(ParameterError):
            forger_from_fabricating_asa(ses, sig, ml=ml)
    # the fallback needs at least one honest answer to fall back on
    for decoys in (0, -1):
        with pytest.raises(ParameterError, match="decoys"):
            fabricating_asa(strong, ml=8, decoys=decoys, budget=0)
        with pytest.raises(ParameterError, match="decoys"):
            forger_from_fabricating_asa(ses, sig, ml=8, decoys=decoys, budget=0)


def test_fabricating_defaults_fit_the_default_randpad_host():
    # 8 hidden bits, as the CLI's --fab-ml, fit this host's 16-bit ciphertexts
    ses = randpad_scheme(8, 16, 8)
    sig = sig_fixture("coin-extractable", kappa=16, ml=ses.cl, tag_bits=8)
    family = make_signed_family(ses, sig, random.Random(0))
    attack = fabricating_asa(family)
    forger = forger_from_fabricating_asa(ses, sig)
    assert (attack.ml, forger.name) == (8, "fabricating-8")
    assert estimate_unrel_alg(attack, family.alg, trials=4, seed=1).p_hat == 1.0
    assert run_sig_forge(sig, forger, trials=4, seed=1).p_hat == 1.0


def test_oracle_bound_attack_never_forges():
    ses, sig, _ = family_fixture()
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=1, kappa=KAPPA))
    forger = forger_from_universal_asa(steg, ses, sig)
    report = run_sig_forge(sig, forger, trials=50, seed=4)
    assert report.p_hat == 0.0

    narrow = sig_fixture("coin-extractable", kappa=KAPPA, ml=ses.cl - 8, tag_bits=8)
    with pytest.raises(LengthMismatchError):
        forger_from_universal_asa(steg, ses, narrow)


def test_fabricating_forger_wins_exactly_when_search_is_feasible():
    ses, sig, _ = family_fixture(tag_bits=8)
    forger = forger_from_fabricating_asa(ses, sig, ml=8, decoys=4, budget=4096)
    assert forger.name == "fabricating-8"
    assert run_sig_forge(sig, forger, trials=30, seed=5).p_hat >= 0.9

    strong = sig_fixture("coin-extractable", kappa=KAPPA, ml=ses.cl, coin_bits=8, tag_bits=64)
    stuck = forger_from_fabricating_asa(ses, strong, ml=8, decoys=4, budget=256)
    assert run_sig_forge(strong, stuck, trials=10, seed=5).p_hat == 0.0


def test_rate_report_assembles_the_inequality():
    ses, sig, family = family_fixture(tag_bits=8)
    attack = fabricating_asa(family, ml=8, decoys=4, budget=4096)
    forger = forger_from_fabricating_asa(ses, sig, ml=8, decoys=4, budget=4096)
    report = rate_report(family, attack, query=5.0, forger=forger, trials=60, seed=14)

    assert report["game"] == "rate-lower-bound"
    assert report["bits_per_ciphertext"] == pytest.approx(8.0)
    assert report["log2_phi"] == pytest.approx(math.log2(5.0) - 8.0)
    assert set(report["insec_by_watchdog"]) == {"constant-1", "repeat-2", "chi2-16x4"}

    # the assembled bound is the stated arithmetic (slack only shrinks it)
    ceiling = 1.0 - report["insec_hat"] - report["unrel_hat"] - 2.0 ** report["log2_phi"]
    assert 0.0 <= report["forger_bound"] <= ceiling + 1e-12
    # and the forger it reduces to does clear the bound
    assert report["forger_success_hat"] >= report["forger_bound"]
    assert report["forger_bound"] >= 0.5


def _reference_search(ak, am, prefix, sigl, vrfy, pk, budget, rng):
    """The fabricate-and-search loop over bit strings: every candidate is a
    Bits.random draw checked by vrfy."""
    rho = Bits.random(prefix, rng)
    c_star = rho + (am ^ lowerbound._fab_pad(ak, rho, len(am)))
    for _ in range(budget):
        cand = Bits.random(sigl, rng)
        if vrfy(pk, c_star, cand):
            return c_star, cand
    return None


@pytest.mark.parametrize("tag_bits,budget", [(6, 4096), (8, 4096), (8, 40), (12, 300), (8, 0)])
def test_search_draws_and_finds_what_the_bit_string_loop_does(tag_bits, budget):
    ses, sig, family = family_fixture(tag_bits=tag_bits)
    outcomes = set()
    for seed in range(12):
        setup = random.Random(seed)
        ak, am = Bits.random(128, setup), Bits.random(8, setup)
        ref_rng, rng = random.Random(seed), random.Random(seed)
        want = _reference_search(ak, am, 8, sig.sigl, sig.vrfy, family.pk, budget, ref_rng)
        got = lowerbound._fabricate_and_search(
            ak, am, 8, sig.sigl, sig.vrfy, sig.search, family.pk, budget, rng
        )
        assert got == want and rng.getstate() == ref_rng.getstate(), seed
        outcomes.add(got is None)
    # budget 0 never searches; 4096 always finds a forgery; 40 and 300
    # candidates against 8- and 12-bit tags find one at some seeds only
    assert outcomes == {0: {True}, 4096: {False}}.get(budget, {True, False})


def test_verifiers_that_disagree_stop_the_run():
    ses, sig, _ = family_fixture(tag_bits=6)
    lying = dataclasses.replace(sig, vrfy=lambda *a: False)
    forgers = (
        search_forger(budget=4096),
        forger_from_fabricating_asa(ses, lying, ml=8, decoys=1, budget=4096),
    )
    for forger in forgers:
        with pytest.raises(InvariantViolation, match="vrfy rejects"):
            run_sig_forge(lying, forger, trials=3, seed=0)
    family = make_signed_family(ses, lying, random.Random(0))
    attack = fabricating_asa(family, ml=8, decoys=1, budget=4096)
    with pytest.raises(InvariantViolation, match="vrfy rejects"):
        estimate_unrel_alg(attack, family.alg, trials=3, seed=0)

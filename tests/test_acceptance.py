"""Ten end-to-end checks, one per package-level claim.

Each test prints one `criterion N: PASS/FAIL - detail` line (run pytest -s
to see them all) and then asserts. The seed is fixed, so every run draws the
same samples. A measured rate is checked either against a floor or ceiling,
or against the exact model value, which must then lie inside the report's
95% Wilson interval (criterion 9). Criterion 10 checks that the intervals of
several estimates of one rate overlap.
"""

import math
from collections import Counter
from fractions import Fraction

from subvertlab import (
    Bits,
    StegoParams,
    UniversalHost,
    alg_from_encryption,
    alg_from_signing,
    asa_enc_all,
    asa_from_stego,
    channel_pmf,
    channel_sample,
    channel_support,
    chi2_watchdog,
    constant_guess,
    det_scheme,
    encode_all,
    estimate_unrel,
    estimate_unrel_alg,
    estimate_unrel_reboot,
    estimate_unrel_stego,
    fabricating_asa,
    forger_from_fabricating_asa,
    forger_from_universal_asa,
    generic_asa_against_alg,
    make_signed_family,
    outl_for,
    phi,
    randpad_scheme,
    rejsam_system,
    repeat_warden,
    repeat_watchdog,
    run_cpa_dist,
    run_enc_asa_dist,
    run_rasa_dist,
    run_sig_forge,
    run_ss_cha_dist,
    ses_channel,
    sig_fixture,
    stego_from_asa,
    substream,
    uniform_channel,
    universal_asa,
    wrapped_warden_to_watchdog,
)

import oracles

SEED = 0
N_DIST = 10_000


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def steg_bit(ml, outl, s=64):
    return rejsam_system(StegoParams(ml=ml, s=s, outl=outl, kappa=128))


def host_scheme():
    return randpad_scheme(r=8, kappa=16, ml=8)


def test_criterion_01_roundtrip_reliability():
    steg = steg_bit(8, 64)
    rep = estimate_unrel_stego(steg, uniform_channel(8), trials=500, seed=SEED)
    model = oracles.coupon_fail_refined(16, 8, 64)  # 256 docs over 16 mark cells
    ok = rep.failure_rate <= 0.02
    verdict(
        1, ok, f"decode failure {rep.failure_rate:.4f} <= 0.02 (model approx {model:.4f})"
    )


def test_criterion_02_attack_transfer():
    ses = host_scheme()
    steg = steg_bit(8, 64)
    asa = asa_from_stego(steg, ses)
    rep = estimate_unrel(asa, ses, trials=500, seed=SEED)

    ell = steg.params.outl
    channel = ses_channel(ses, ell)
    mismatches = 0
    for i in range(100):
        setup = substream(SEED, i, "c2-setup")
        ak = asa.gen(setup)
        am = Bits.random(asa.ml, setup)
        k = ses.gen(setup)
        m = Bits.random(ses.ml, setup)
        subverted = asa_enc_all(asa, ak, am, k, [m] * ell, substream(SEED, i, "c2-run"))
        embedded = encode_all(
            steg, ak, am, (k,) + (m,) * ell, channel, substream(SEED, i, "c2-run")
        )
        mismatches += subverted != embedded
    ok = rep.p_hat >= 0.98 and mismatches == 0
    verdict(2, ok, f"extraction {rep.p_hat:.4f} >= 0.98, coupled mismatches {mismatches}/100")


def test_criterion_03_desk_scale_indistinguishability():
    ses = host_scheme()
    steg = steg_bit(8, 64)
    asa = asa_from_stego(steg, ses)
    pieces = []
    ok = True
    for wd in (repeat_watchdog(), chi2_watchdog()):
        rep = run_enc_asa_dist(asa, ses, wd, trials=N_DIST, seed=SEED)
        good = rep.normalized_advantage <= 0.05 and rep.advantage_ci95[0] == 0.0
        ok = ok and good
        pieces.append(f"{wd.name} adv {rep.normalized_advantage:.4f}")

    alg = alg_from_encryption(ses)
    gasa = generic_asa_against_alg(steg, alg)
    baselines = [
        run_cpa_dist(ses, constant_guess("attacker"), N_DIST, SEED),
        run_enc_asa_dist(asa, ses, constant_guess("watchdog"), N_DIST, SEED),
        run_ss_cha_dist(steg, ses_channel(ses, 4), constant_guess("warden"), N_DIST, SEED),
        run_rasa_dist(gasa, alg, constant_guess("watchdog"), N_DIST, SEED),
    ]
    flat = all(r.advantage_ci95[0] == 0.0 for r in baselines)
    ok = ok and flat
    verdict(3, ok, f"{', '.join(pieces)}, all CIs contain 0, constant baseline flat in 4 games")


def test_criterion_04_deterministic_host_obstruction():
    det = det_scheme(kappa=16, ml=8)
    steg = steg_bit(16, 256)
    asa = asa_from_stego(steg, det)
    rep = estimate_unrel(asa, det, trials=500, seed=SEED)
    ok = rep.failure_rate >= 0.9
    verdict(4, ok, f"point-mass host decode failure {rep.failure_rate:.4f} >= 0.9")


def test_criterion_05_converse_and_adapter():
    ses = host_scheme()
    asa = asa_from_stego(steg_bit(8, 64), ses)
    wrapped = stego_from_asa(asa, ses)
    channel = ses_channel(ses, asa.outl)
    rt = estimate_unrel_stego(wrapped, channel, trials=500, seed=SEED)

    warden = repeat_warden()
    watchdog = wrapped_warden_to_watchdog(warden, ses, asa.outl)
    on_channel = run_ss_cha_dist(wrapped, channel, warden, trials=1000, seed=SEED)
    on_attack = run_enc_asa_dist(asa, ses, watchdog, trials=1000, seed=SEED)
    mismatches = sum(a != b for a, b in zip(on_channel.decisions, on_attack.decisions))
    ok = rt.p_hat >= 0.98 and mismatches == 0
    verdict(5, ok, f"wrapped roundtrip {rt.p_hat:.4f} >= 0.98, decision mismatches {mismatches}/1000")


def test_criterion_06_channel_faithfulness():
    # exhaustive: at a full session history the channel law IS Enc(k, m)
    ses4 = randpad_scheme(r=4, kappa=16, ml=4)
    ch4 = ses_channel(ses4, 4)
    rng = substream(SEED, "c6-exact")
    k = ses4.gen(rng)
    ms = [Bits.random(4, rng) for _ in range(4)]
    h = (k,) + tuple(ms)
    channel_mass = {c: channel_pmf(ch4, h, c) for c in channel_support(ch4, h)}
    enc_mass = Counter(ses4.enc(k, ms[0], Bits(rho, 4)) for rho in range(16))
    exhaustive = channel_mass == {c: Fraction(n, 16) for c, n in enc_mass.items()}

    # statistical: 10^5 samples against the exact law, df 255
    ses8 = host_scheme()
    ch8 = ses_channel(ses8, 4)
    rng = substream(SEED, "c6-chi2")
    k8 = ses8.gen(rng)
    h8 = (k8,) + tuple(Bits.random(8, rng) for _ in range(4))
    n = 100_000
    counts = Counter(channel_sample(ch8, h8, rng) for _ in range(n))
    support8 = list(channel_support(ch8, h8))
    expected = n / len(support8)
    stat = sum((counts.get(c, 0) - expected) ** 2 / expected for c in support8)
    threshold = oracles.CHI2_TABLE[(255, 0.999)]
    ok = exhaustive and stat <= threshold
    verdict(6, ok, f"exhaustive pmf equality {exhaustive}, chi2 {stat:.1f} <= {threshold:.1f}")


def test_criterion_07_generic_attack_on_signing():
    sig = sig_fixture("coin-extractable", kappa=16, ml=8, coin_bits=8, tag_bits=64)
    alg = alg_from_signing(sig)
    attack = generic_asa_against_alg(steg_bit(8, 64), alg)
    rep = estimate_unrel_alg(attack, alg, trials=500, seed=SEED)
    advs = [
        run_rasa_dist(attack, alg, wd, trials=N_DIST, seed=SEED).normalized_advantage
        for wd in (repeat_watchdog(), chi2_watchdog())
    ]
    ok = rep.p_hat >= 0.98 and max(advs) <= 0.05
    verdict(7, ok, f"extraction {rep.p_hat:.4f} >= 0.98, worst advantage {max(advs):.4f} <= 0.05")


def test_criterion_08_lower_bound_apparatus():
    tight = phi(ml=64, outl=1, query=4)
    vacuous = phi(ml=16, outl=256, query=2)
    empty = phi(ml=0, outl=8, query=2)
    a_ok = (
        tight.log2_phi == -62.0
        and not tight.trivial
        and vacuous.log2_phi == 2288.0
        and vacuous.phi == math.inf
        and vacuous.trivial
        and empty.trivial
        and empty.phi >= 1.0
    )

    # (b) a universal attack only ever emits oracle answers, so it cannot forge
    ses = host_scheme()
    steg = steg_bit(8, 64)
    host = UniversalHost(ses)
    uasa = universal_asa(steg, host)
    emitted, outside = 0, 0
    for i in range(157):  # 157 * 64 = 10048 ciphertexts
        rng = substream(SEED, i, "c8-universal")
        ak = uasa.gen(rng)
        am = Bits.random(uasa.ml, rng)
        k = Bits.random(ses.key_bits, rng)
        msgs = [Bits.random(ses.ml, rng) for _ in range(uasa.outl)]
        host.queries.clear()
        docs = asa_enc_all(uasa, ak, am, k, msgs, rng)
        answered = {q.c for q in host.queries}
        emitted += len(docs)
        outside += sum(1 for d in docs if d not in answered)
    sig16 = sig_fixture("coin-extractable", kappa=16, ml=ses.cl, coin_bits=8, tag_bits=8)
    never = run_sig_forge(sig16, forger_from_universal_asa(steg, ses, sig16), 500, SEED)
    b_ok = emitted >= 10_000 and outside == 0 and never.p_hat <= 0.01

    # (c) the fabricating attack forges, and the measured inequality holds
    # with a bound that is actually positive, not vacuously satisfied
    from subvertlab import rate_report

    family = make_signed_family(ses, sig16, substream(SEED, "c8-family"))
    attack = fabricating_asa(family, ml=8, decoys=4, budget=4096)
    forger = forger_from_fabricating_asa(ses, sig16, ml=8, decoys=4, budget=4096)
    rep = rate_report(family, attack, query=5.0, forger=forger, trials=200, seed=SEED)
    c_ok = (
        rep["forger_success_hat"] >= 0.9
        and rep["forger_success_hat"] >= rep["forger_bound"]
        and rep["forger_bound"] > 0.5
    )
    ok = a_ok and b_ok and c_ok
    verdict(
        8,
        ok,
        f"phi rows exact {a_ok}; {outside}/{emitted} off-transcript, null forger "
        f"{never.p_hat:.4f}; fabricating forger {rep['forger_success_hat']:.3f} >= "
        f"bound {rep['forger_bound']:.3f}",
    )


def test_criterion_09_rate_accounting():
    # bit variant: 16 hidden bits across outl_for(16) = 16^2 documents is 1/16
    bit = StegoParams(ml=16, s=64, outl=outl_for(16), kappa=128)
    rate = Fraction(bit.ml, bit.outl)
    bit_ok = rate == Fraction(1, 16)

    # block variant at one bit per document: 64 hidden bits in 64 documents
    params = StegoParams(ml=64, s=1024, outl=64, kappa=128, block_bits=6)
    block_rate = Fraction(params.ml, params.outl)
    rate_ok = block_rate == 1 and params.n_slots == 11
    steg = rejsam_system(params)
    rep = estimate_unrel_stego(steg, uniform_channel(32), trials=500, seed=SEED)
    # exact slot-coverage model: 64 uniform draws over ceil(64/6) = 11 slots;
    # the cutoff loss (1 - 11/1024)^1024 ~ 1.6e-5 per emission is negligible
    model_success = 1.0 - float(oracles.coupon_fail_exact(params.n_slots, params.outl))
    lo, hi = rep.ci95
    ref = oracles.wilson_reference(rep.success_count, rep.trials)
    ci_ok = all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(rep.ci95, ref))
    model_ok = ci_ok and lo <= model_success <= hi
    # 98% success at this slot count needs more documents than bits
    outl_98 = params.outl
    while oracles.coupon_fail_exact(params.n_slots, outl_98) > Fraction(1, 50):
        outl_98 += 1
    tradeoff_ok = outl_98 > params.ml
    verdict(
        9,
        bit_ok and rate_ok and model_ok and tradeoff_ok,
        f"bit rate {rate} == 1/16; block rate {block_rate} over {params.n_slots} slots, "
        f"model success {model_success:.5f} vs measured {rep.p_hat:.4f} "
        f"CI [{lo:.4f}, {hi:.4f}]; 98% first needs outl={outl_98} "
        f"(rate {Fraction(params.ml, outl_98)})",
    )


def test_criterion_10_reboot_schedules_agree():
    steg = steg_bit(8, 64)
    channel = uniform_channel(8)
    rates, cis = [], []
    for tau in (1, 4, 64):
        rep = estimate_unrel_reboot(
            steg, channel, trials=500, seed=SEED, schedules=[[tau] * (64 // tau)]
        )
        rates.append(rep.failure_rate)
        cis.append(rep.ci95)
    lo = max(ci[0] for ci in cis)
    hi = min(ci[1] for ci in cis)
    ok = lo <= hi
    verdict(
        10,
        ok,
        f"failure rates {[f'{r:.4f}' for r in rates]} across segment lengths 1/4/64, "
        f"CI intersection [{lo:.4f}, {hi:.4f}] nonempty",
    )

"""Substitution attacks: construction, coupling, universality, query counts."""

import dataclasses
import itertools
import random
from functools import partial

import pytest

from subvertlab import (
    Bits,
    ParameterError,
    StegoParams,
    UniversalHost,
    UniversalityViolation,
    WrongDocumentCountError,
    alg_enc_all,
    alg_from_encryption,
    asa_enc_all,
    asa_from_stego,
    chi2_watchdog,
    det_scheme,
    encode_all,
    encode_step,
    estimate_unrel,
    estimate_unrel_alg,
    generic_asa_against_alg,
    query_count,
    randpad_scheme,
    rejsam_system,
    repeat_watchdog,
    run_enc_asa_dist,
    run_rasa_dist,
    run_ss_cha_dist,
    ses_channel,
    stego_from_asa,
    substream,
    universal_asa,
    watchdog_to_warden,
)
from subvertlab import stego
from subvertlab.asa import _SessionView
from subvertlab.channels import _cycle_input
from subvertlab.schemes import IntDraw, PointDraw
from subvertlab.stego import mark_agreement

import oracles

KAPPA = 16


def small_setup(ml=4, s=16, outl=24):
    steg = rejsam_system(StegoParams(ml=ml, s=s, outl=outl, kappa=KAPPA))
    ses = randpad_scheme(r=8, kappa=KAPPA, ml=8)
    return steg, ses


def test_construction_publishes_host_parameters():
    steg, ses = small_setup()
    asa = asa_from_stego(steg, ses)
    assert asa.attack_id == f"rejsam-asa:{ses.scheme_id}"
    assert asa.ml == 4 and asa.outl == 24 and asa.key_bits == KAPPA
    assert asa.host_params == ses.params_dict()
    d = asa.describe()
    assert d["attack"] == asa.attack_id and d["host"]["cl"] == ses.cl


def test_subverted_session_equals_plain_encoder_bit_for_bit():
    # coupled seeds: the attack run and the stego run on the scheme's channel
    # consume identical draws, so the document sequences are equal
    steg, ses = small_setup()
    asa = asa_from_stego(steg, ses)
    ell = steg.params.outl
    channel = ses_channel(ses, ell)
    mismatches = 0
    recovered = 0
    for i in range(20):
        setup = substream(7, i, "setup")
        ak = asa.gen(setup)
        am = Bits.random(asa.ml, setup)
        k = ses.gen(setup)
        m = Bits.random(ses.ml, setup)
        a_docs = asa_enc_all(asa, ak, am, k, [m] * ell, substream(7, i, "run"))
        s_docs = encode_all(steg, ak, am, (k,) + (m,) * ell, channel, substream(7, i, "run"))
        if a_docs != s_docs:
            mismatches += 1
        if asa.ext(ak, a_docs) == am:
            recovered += 1
    assert mismatches == 0
    assert recovered >= 18  # a rare slot-coverage miss is fine, divergence is not


def test_enc_all_rejects_wrong_message_count():
    steg, ses = small_setup()
    asa = asa_from_stego(steg, ses)
    rng = random.Random(0)
    ak, am, k = asa.gen(rng), Bits.random(4, rng), ses.gen(rng)
    with pytest.raises(WrongDocumentCountError):
        asa_enc_all(asa, ak, am, k, [Bits.random(8, rng)] * 3, rng)


def test_extraction_survives_full_sessions():
    steg, ses = small_setup()
    asa = asa_from_stego(steg, ses)
    report = estimate_unrel(asa, ses, trials=60, seed=3)
    assert report.p_hat >= 0.9
    equal = estimate_unrel(asa, ses, trials=60, seed=3, message_mode="equal")
    assert equal.p_hat >= 0.9


def test_universal_attack_only_sees_the_oracle():
    steg, ses = small_setup()
    host = UniversalHost(ses)
    uasa = universal_asa(steg, host)
    assert uasa.host_params == {"ml": ses.ml, "cl": ses.cl, "r": ses.coin_bits}

    rng = substream(11, 0, "universal")
    ak = uasa.gen(rng)
    am = Bits.random(uasa.ml, rng)
    k = Bits.random(KAPPA, rng)
    msgs = [Bits.random(ses.ml, rng) for _ in range(uasa.outl)]
    docs = asa_enc_all(uasa, ak, am, k, msgs, rng)

    # a full run never steps outside the oracle interface
    assert host.forbidden_accesses == 0
    assert uasa.ext(ak, docs) == am
    # every emitted document is literally one of the oracle's answers,
    # and every logged answer is the oracle on the logged coins
    assert set(docs) <= {q.c for q in host.queries}
    assert len(host.queries) >= uasa.outl
    for q in host.queries:
        assert ses.enc(q.k, q.m, q.coins) == q.c


def test_off_interface_access_raises_and_is_counted():
    _, ses = small_setup()
    host = UniversalHost(ses)
    assert host.ml == ses.ml and host.cl == ses.cl and host.coin_bits == ses.coin_bits
    with pytest.raises(UniversalityViolation):
        host.gen
    assert host.forbidden_accesses == 1
    with pytest.raises(UniversalityViolation):
        host.dec
    assert host.forbidden_accesses == 2


def test_query_count_matches_geometric_expectation():
    steg, ses = small_setup(ml=4, s=16, outl=24)
    est = query_count(steg, ses, trials=300, seed=9)
    # one-bit marks on a power-of-two slot table accept half the draws
    assert abs(est.mean - oracles.expected_draws(0.5, 16)) < 0.35
    assert est.ci95[0] <= est.mean <= est.ci95[1]
    assert est.trials == 300 and est.seed == 9


def test_query_count_scales_with_block_width():
    ses = randpad_scheme(r=8, kappa=KAPPA, ml=8)
    steg = rejsam_system(StegoParams(ml=8, s=32, outl=8, kappa=KAPPA, block_bits=2))
    est = query_count(steg, ses, trials=300, seed=9)
    # two-bit blocks accept a quarter of the draws
    assert abs(est.mean - oracles.expected_draws(0.25, 32)) < 0.8


def test_query_count_guards():
    steg, ses = small_setup()
    with pytest.raises(ParameterError, match="at least 2 trials"):
        query_count(steg, ses, trials=1, seed=0)


# --- one construction: every attack runs its encoder at the session view -----


def _constructors(steg, ses):
    alg = alg_from_encryption(ses)
    return {
        "asa_from_stego": asa_from_stego(steg, ses),
        "generic": generic_asa_against_alg(steg, alg),
        "generic+force": generic_asa_against_alg(steg, alg, demo_force_embed=True),
        "universal": universal_asa(steg, UniversalHost(ses)),
    }


def test_every_constructor_hands_its_encoder_the_session_view():
    steg, ses = small_setup(outl=6)
    seen = []

    def spy_enc(ak, am, history, sigma, *, draw, rng):
        seen.append(tuple(history))
        return steg.enc(ak, am, history, sigma, draw=draw, rng=rng)

    spy = dataclasses.replace(steg, enc=spy_enc)
    for name, attack in _constructors(spy, ses).items():
        rng = substream(17, 0, name)
        ak, am = attack.gen(rng), Bits.random(attack.ml, rng)
        k, m = ses.gen(rng), Bits.random(ses.ml, rng)
        seen.clear()
        attack.enc(ak, am, k, m, None, rng)
        assert seen == [(k,) + (m,) * 6], name


def test_a_history_reading_encoder_emits_host_outputs_under_every_constructor():
    # the wrapped attack reads the session key and message back out of the
    # history it is handed; at an empty history it would emit a session key
    ses = randpad_scheme(r=8, kappa=12, ml=8)
    inner = rejsam_system(StegoParams(ml=4, s=16, outl=4, kappa=16))
    wrapped = stego_from_asa(asa_from_stego(inner, ses), ses)
    for name, make in (
        ("asa_from_stego", lambda: asa_from_stego(wrapped, ses)),
        ("generic", lambda: generic_asa_against_alg(wrapped, alg_from_encryption(ses))),
        ("universal", lambda: universal_asa(wrapped, UniversalHost(ses))),
    ):
        attack = make()
        rng = substream(19, 0, name)
        ak, am = attack.gen(rng), Bits.random(attack.ml, rng)
        k, m = ses.gen(rng), Bits.random(ses.ml, rng)
        doc, _ = attack.enc(ak, am, k, m, None, rng)
        assert len(doc) == ses.cl == 16, name


def test_generic_attack_on_a_randomized_algorithm():
    steg, ses = small_setup()
    alg = alg_from_encryption(ses)
    gasa = generic_asa_against_alg(steg, alg)
    assert gasa.attack_id == f"rejsam-asa:{alg.alg_id}"
    rng = substream(13, 0, "alg")
    ak = gasa.gen(rng)
    am = Bits.random(gasa.ml, rng)
    s = alg.secret_gen(rng)
    inputs = [alg.input_gen(rng) for _ in range(gasa.outl)]
    outputs = alg_enc_all(gasa, ak, am, s, inputs, rng)
    assert gasa.ext(ak, outputs) == am
    with pytest.raises(WrongDocumentCountError):
        alg_enc_all(gasa, ak, am, s, inputs[:-1], rng)


def test_force_embed_demo_trades_detectability_for_reliability():
    # deterministic host: plain rejection sampling cannot steer the marks,
    # the labeled fabrication mode can, and a repeat watchdog then sees it
    det = det_scheme(kappa=KAPPA, ml=16)
    alg = alg_from_encryption(det)
    steg = rejsam_system(StegoParams(ml=8, s=8, outl=64, kappa=KAPPA))
    plain = generic_asa_against_alg(steg, alg)
    forced = generic_asa_against_alg(steg, alg, demo_force_embed=True)
    assert forced.attack_id.endswith("+force-embed")

    assert estimate_unrel_alg(plain, alg, trials=25, seed=1).p_hat <= 0.2
    assert estimate_unrel_alg(forced, alg, trials=25, seed=1).p_hat >= 0.9

    quiet = run_rasa_dist(plain, alg, repeat_watchdog(), trials=200, seed=2)
    loud = run_rasa_dist(forced, alg, repeat_watchdog(), trials=200, seed=2)
    assert quiet.advantage_ci95[0] == 0.0
    assert loud.normalized_advantage >= 0.5


def test_watchdog_replayed_as_warden_decides_identically():
    steg, ses = small_setup()
    asa = asa_from_stego(steg, ses)
    ell = steg.params.outl
    channel = ses_channel(ses, ell)
    for wd, trials in ((repeat_watchdog(), 120), (chi2_watchdog(queries=8), 40)):
        warden = watchdog_to_warden(wd, ses, ell)
        assert warden.kind == "warden" and warden.name == f"wrapped:{wd.name}"
        against_attack = run_enc_asa_dist(asa, ses, wd, trials, seed=5)
        against_channel = run_ss_cha_dist(steg, channel, warden, trials, seed=5)
        assert against_attack.decisions == against_channel.decisions


# --- one honest output per emission on a coin-free host --------------------

COIN_FREE = {
    "det": lambda: det_scheme(kappa=KAPPA, ml=8),
    "randpad-0": lambda: randpad_scheme(r=0, kappa=KAPPA, ml=8),
}
HOSTS = {**COIN_FREE, "randpad-2": lambda: randpad_scheme(r=2, kappa=KAPPA, ml=8)}


def _counting_enc(ses):
    calls = []
    enc = ses.enc

    def counted(k, m, coins):
        calls.append(1)
        return enc(k, m, coins)

    return dataclasses.replace(ses, enc=counted), calls


def _count_draws(monkeypatch):
    """Draws the encoder takes, one entry per emission."""
    per_emission = []
    real = stego.encode_step

    def counting_step(prf, params, ak, am, draw):
        n = 0

        def counted():
            nonlocal n
            n += 1
            return draw()

        doc = real(prf, params, ak, am, counted)
        per_emission.append(n)
        return doc

    monkeypatch.setattr(stego, "encode_step", counting_step)
    return per_emission


def _spy_draw_kinds(monkeypatch):
    """Per emission, the kind of draw the encoder was handed: a PointDraw
    (a coin-free host's, which it returns without drawing), an IntDraw (a
    host with an int form) or a plain callable; the references below call
    the loop directly, over a plain closure."""
    kinds = []
    real = stego.encode_step

    def spying_step(prf, params, ak, am, draw):
        kinds.append(type(draw))
        return real(prf, params, ak, am, draw)

    monkeypatch.setattr(stego, "encode_step", spying_step)
    return kinds


def _draw_kind(host):
    return PointDraw if host in COIN_FREE else IntDraw  # randpad-2 has enc_ints


def _cases(ses, steg, n=60):
    rng = random.Random(f"{ses.scheme_id}/cases")
    for i in range(n):
        ak, am = steg.gen(rng), Bits.random(steg.params.ml, rng)
        yield i, ak, am, ses.gen(rng), Bits.random(ses.ml, rng)


def _old_generic_enc(steg, alg, ak, am, s, x, rng, force):
    """generic_asa_against_alg's enc as it was: a fresh run per draw."""
    doc = encode_step(steg.prf, steg.params, ak, am, lambda: alg.run_sample(s, x, rng))
    if force:
        agrees = mark_agreement(steg.prf, steg.params, ak, am)
        while not agrees(doc):
            doc = Bits.random(alg.output_bits, rng)
    return doc


@pytest.mark.parametrize("host", sorted(HOSTS))
def test_asa_enc_equals_fresh_encryption_per_draw(monkeypatch, host):
    kinds = _spy_draw_kinds(monkeypatch)
    ses = HOSTS[host]()
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=24, kappa=KAPPA))
    asa = asa_from_stego(steg, ses)
    for i, ak, am, k, m in _cases(ses, steg):
        rng, ref_rng = random.Random(i), random.Random(i)
        c, _ = asa.enc(ak, am, k, m, None, rng)
        ref = encode_step(steg.prf, steg.params, ak, am, partial(ses.enc_sample, k, m, ref_rng))
        assert c == ref
        assert rng.getstate() == ref_rng.getstate()
    assert kinds == [_draw_kind(host)] * 60


@pytest.mark.parametrize("ell", range(5))
def test_session_view_reads_as_its_tuple(ell):
    # every attack hands its encoder key || m^ell unbuilt; every read a
    # stegosystem may make (converse.stego_from_asa: len, [0], _cycle_input)
    # must see the tuple
    key, m = Bits(5, 16), Bits(3, 8)
    view, tup = _SessionView(key, m, ell), (key,) + (m,) * ell
    assert len(view) == len(tup) and tuple(view) == tup and list(reversed(view)) == list(tup[::-1])
    for i in range(-len(tup), len(tup)):
        assert view[i] is tup[i]
    for i in (len(tup), -len(tup) - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view["0"]
    bounds = [None, *range(-ell - 3, ell + 4)]
    for start, stop, step in itertools.product(bounds, bounds, (None, 1, 2, -1, -3)):
        assert view[start:stop:step] == tup[start:stop:step]
    if ell:
        assert _cycle_input(view, ell) is _cycle_input(tup, ell)


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_generic_enc_equals_fresh_run_per_draw(monkeypatch, host, force):
    kinds = _spy_draw_kinds(monkeypatch)
    ses = HOSTS[host]()
    alg = alg_from_encryption(ses)
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=24, kappa=KAPPA))
    attack = generic_asa_against_alg(steg, alg, demo_force_embed=force)
    forced = 0
    for i, ak, am, s, x in _cases(ses, steg):
        rng, ref_rng = random.Random(i), random.Random(i)
        y, _ = attack.enc(ak, am, s, x, None, rng)
        assert y == _old_generic_enc(steg, alg, ak, am, s, x, ref_rng, force)
        assert rng.getstate() == ref_rng.getstate()
        forced += rng.getstate() != random.Random(i).getstate()
    if force and host in COIN_FREE:
        assert forced > 0  # some emissions were fabricated, drawing from the rng
    assert kinds == [_draw_kind(host)] * 60


@pytest.mark.parametrize("host", sorted(COIN_FREE))
def test_coin_free_host_encrypts_once_per_emission(monkeypatch, host):
    draws = _count_draws(monkeypatch)
    ses, enc_calls = _counting_enc(COIN_FREE[host]())
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=24, kappa=KAPPA))
    alg = alg_from_encryption(ses)
    for enc in (
        asa_from_stego(steg, ses).enc,
        generic_asa_against_alg(steg, alg).enc,
        generic_asa_against_alg(steg, alg, demo_force_embed=True).enc,
    ):
        draws.clear()
        enc_calls.clear()
        for i, ak, am, k, m in _cases(ses, steg):
            enc(ak, am, k, m, None, random.Random(i))
        assert len(enc_calls) == len(draws) == 60
        # the encoder still sees every draw: one on a match, s+1 on a cutoff
        assert set(draws) == {1, steg.params.s + 1}


def _counting_ints(ses):
    """ses whose enc_ints samplers count their calls."""
    calls = []
    enc_ints = ses.enc_ints

    def counted(k, m, rng):
        sample = enc_ints(k, m, rng)

        def counted_sample():
            calls.append(1)
            return sample()

        return counted_sample

    return dataclasses.replace(ses, enc_ints=counted), calls


def test_host_with_coins_encrypts_once_per_draw(monkeypatch):
    # randpad's draws are its enc_ints samples, and a host with no int
    # form runs enc once per draw
    draws = _count_draws(monkeypatch)
    randpad, enc_calls = _counting_enc(randpad_scheme(r=2, kappa=KAPPA, ml=8))
    with_ints, int_calls = _counting_ints(randpad)
    without_ints = dataclasses.replace(randpad, enc_ints=None)
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=24, kappa=KAPPA))
    for ses, calls in ((with_ints, int_calls), (without_ints, enc_calls)):
        for enc in (
            asa_from_stego(steg, ses).enc,
            generic_asa_against_alg(steg, alg_from_encryption(ses)).enc,
        ):
            draws.clear()
            enc_calls.clear()
            int_calls.clear()
            for i, ak, am, k, m in _cases(ses, steg):
                enc(ak, am, k, m, None, random.Random(i))
            assert len(calls) == sum(draws) > len(draws) == 60
            assert len(enc_calls) + len(int_calls) == len(calls)  # no draw runs both

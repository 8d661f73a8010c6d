import random
import types
from fractions import Fraction

import pytest

from subvertlab import (
    Bits,
    ParameterError,
    alg_from_encryption,
    alg_from_signing,
    det_scheme,
    randpad_scheme,
    sig_fixture,
)
from subvertlab import schemes


def test_randpad_shape_and_decrypt():
    ses = randpad_scheme(8, 16, ml=8)
    assert (ses.key_bits, ses.ml, ses.cl, ses.coin_bits) == (16, 8, 16, 8)
    rng = random.Random(1)
    k = ses.gen(rng)
    for _ in range(30):
        m = Bits.random(8, rng)
        c = ses.enc_sample(k, m, rng)
        assert len(c) == 16
        assert ses.dec(k, c) == m
    assert ses.dec(k, Bits.zeros(8)) is None  # wrong length


def test_randpad_coins_are_the_prefix():
    ses = randpad_scheme(8, 16, ml=8)
    k, m = Bits.from_hex("0102", 16), Bits.from_hex("ab", 8)
    c = ses.enc(k, m, Bits.from_hex("5a", 8))
    assert c[:8] == Bits.from_hex("5a", 8)
    # same coins, same ciphertext; different coins, different ciphertext
    assert ses.enc(k, m, Bits.from_hex("5a", 8)) == c
    assert ses.enc(k, m, Bits.from_hex("5b", 8)) != c


def test_randpad_exact_pmf_uniform_over_support():
    ses = randpad_scheme(4, 8, ml=4)
    rng = random.Random(2)
    k, m = ses.gen(rng), Bits.random(4, rng)
    support = list(ses.ciphertext_support(k, m))
    assert len(set(support)) == 16
    total = Fraction(0)
    for c in support:
        p = ses.exact_pmf(k, m, c)
        assert p == Fraction(1, 16)
        total += p
    assert total == 1
    assert ses.exact_pmf(k, m, Bits.zeros(8)) in (Fraction(0), Fraction(1, 16))
    assert ses.exact_pmf(k, m, Bits.zeros(7)) == Fraction(0)


def test_randpad_parameter_validation():
    with pytest.raises(ParameterError):
        randpad_scheme(-1, 16)
    with pytest.raises(ParameterError):
        randpad_scheme(8, 0)
    ses = randpad_scheme(8, 16, ml=8)
    with pytest.raises(ParameterError):
        ses.enc(Bits.zeros(16), Bits.zeros(4), Bits.zeros(8))


def test_det_scheme_is_a_keyed_permutation():
    ses = det_scheme(16, ml=4)
    assert ses.coin_bits == 0 and ses.cl == 4
    rng = random.Random(3)
    k = ses.gen(rng)
    images = {ses.enc(k, Bits(m, 4), Bits.zeros(0)) for m in range(16)}
    assert len(images) == 16  # bijection
    for m in range(16):
        mb = Bits(m, 4)
        c = ses.enc(k, mb, Bits.zeros(0))
        assert ses.dec(k, c) == mb
        assert ses.exact_pmf(k, mb, c) == Fraction(1)
    # point mass: enc_sample never varies
    m = Bits(5, 4)
    assert len({ses.enc_sample(k, m, random.Random(i)) for i in range(10)}) == 1
    assert list(ses.ciphertext_support(k, m)) == [ses.enc(k, m, Bits.zeros(0))]


def test_det_scheme_differs_across_keys():
    ses = det_scheme(32, ml=8)
    k1, k2 = Bits(1, 32), Bits(2, 32)
    diffs = sum(
        ses.enc(k1, Bits(m, 8), Bits.zeros(0)) != ses.enc(k2, Bits(m, 8), Bits.zeros(0))
        for m in range(256)
    )
    assert diffs > 200


def test_det_codebook_memo_stays_bounded(monkeypatch):
    builds = []

    class CountingRandom(random.Random):
        def shuffle(self, x):
            builds.append(1)
            super().shuffle(x)

    monkeypatch.setattr(schemes, "random", types.SimpleNamespace(Random=CountingRandom))
    ses = det_scheme(32, ml=8)
    first = Bits(0, 32)
    images = [ses.enc(first, Bits(m, 8), Bits.zeros(0)) for m in range(256)]
    assert len(builds) == 1  # one codebook per key, built on first use
    cap = schemes._CODEBOOK_MEMO
    for i in range(1, 5 * cap):
        ses.enc(Bits(i, 32), Bits(0, 8), Bits.zeros(0))
    assert len(builds) == 5 * cap
    # the latest cap keys are still held; the first was evicted and is rebuilt
    for i in range(4 * cap, 5 * cap):
        ses.dec(Bits(i, 32), Bits(0, 8))
    assert len(builds) == 5 * cap
    again = [ses.enc(first, Bits(m, 8), Bits.zeros(0)) for m in range(256)]
    assert len(builds) == 5 * cap + 1
    assert again == images
    assert all(ses.dec(first, c) == Bits(m, 8) for m, c in enumerate(again))


def test_sig_fixture_sign_verify():
    sig = sig_fixture("coin-injective", 16, ml=8, coin_bits=8, tag_bits=64)
    assert sig.sigl == 72
    rng = random.Random(4)
    sk, pk = sig.gen(rng)
    m = Bits.random(8, rng)
    s = sig.sign_sample(sk, m, rng)
    assert sig.vrfy(pk, m, s)
    assert not sig.vrfy(pk, m ^ Bits(1, 8), s)
    tampered = s[:8] + (s[8:] ^ Bits(1, 64))
    assert not sig.vrfy(pk, m, tampered)
    assert not sig.vrfy(pk, m, Bits.zeros(10))


def test_sig_fixture_coins_are_recoverable():
    sig = sig_fixture("coin-extractable", 16, ml=8, coin_bits=8, tag_bits=16)
    sk, pk = sig.gen(random.Random(5))
    coins = Bits.from_hex("c3", 8)
    s = sig.sign(sk, Bits.zeros(8), coins)
    assert sig.extract_coins(s) == coins
    # distinct coins give distinct signatures (injective in the coins)
    sigs = {sig.sign(sk, Bits.zeros(8), Bits(r, 8)) for r in range(256)}
    assert len(sigs) == 256


def test_sig_fixture_unique_kind_has_no_coins():
    sig = sig_fixture("unique", 16, ml=8, coin_bits=8, tag_bits=32)
    assert sig.coin_bits == 0 and sig.sigl == 32
    sk, pk = sig.gen(random.Random(6))
    m = Bits.random(8, random.Random(7))
    assert sig.sign_sample(sk, m, random.Random(1)) == sig.sign_sample(sk, m, random.Random(2))


def test_sig_fixture_validation():
    with pytest.raises(ParameterError):
        sig_fixture("rsa", 16)
    with pytest.raises(ParameterError):
        sig_fixture("coin-injective", 16, tag_bits=0)
    sig = sig_fixture("coin-injective", 16, ml=8, coin_bits=8)
    with pytest.raises(ParameterError):
        sig.sign(Bits.zeros(16), Bits.zeros(4), Bits.zeros(8))


def test_params_dicts():
    ses = randpad_scheme(8, 16, ml=8)
    assert ses.params_dict() == {
        "kind": "randpad-8",
        "kappa": 16,
        "r": 8,
        "ml": 8,
        "cl": 16,
        "t": None,
    }
    sig = sig_fixture("coin-injective", 16, ml=8, coin_bits=8, tag_bits=64)
    d = sig.params_dict()
    assert d["t"] == 64 and d["cl"] == 72 and d["r"] == 8


def test_alg_wrappers_expose_lengths_and_runs():
    ses = randpad_scheme(4, 16, ml=4)
    alg = alg_from_encryption(ses)
    assert (alg.secret_bits, alg.input_bits, alg.output_bits, alg.coin_bits) == (16, 4, 8, 4)
    rng = random.Random(8)
    s, x = alg.secret_gen(rng), alg.input_gen(rng)
    y = alg.run_sample(s, x, rng)
    assert ses.dec(s, y) == x
    assert alg.exact_pmf(s, x, y) == Fraction(1, 16)

    sig = sig_fixture("coin-injective", 16, ml=4, coin_bits=4, tag_bits=8)
    salg = alg_from_signing(sig)
    assert salg.output_bits == 12
    sk = salg.secret_gen(rng)
    out = salg.run_sample(sk, Bits.zeros(4), rng)
    assert sig.vrfy(sk, Bits.zeros(4), out)
    assert salg.exact_pmf(sk, Bits.zeros(4), out) == Fraction(1, 16)

import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from subvertlab import (
    Bits,
    ParameterError,
    alg_from_encryption,
    alg_from_signing,
    channel_law,
    det_scheme,
    rand_alg_channel,
    randpad_scheme,
    ses_channel,
    sig_fixture,
)
from subvertlab import prf as prf_module
from subvertlab import schemes
from subvertlab.prf import TABLE_KEYS


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
    # the channel law at an output position: each of the 2^r coin strings
    # gives its own ciphertext, so each ciphertext has mass 2^-r
    ses = randpad_scheme(4, 8, ml=4)
    rng = random.Random(2)
    k, m = ses.gen(rng), Bits.random(4, rng)
    ch, h = ses_channel(ses, 1), (k, m)
    weights, total = channel_law(ch, h)
    support = list(weights)
    assert support == [ses.enc(k, m, Bits(rho, 4)) for rho in range(16)]
    assert len(set(support)) == 16
    mass = Fraction(0)
    for c in support:
        p = Fraction(weights[c], total)
        assert p == Fraction(1, 16)
        mass += p
    assert mass == 1
    zero = Bits.zeros(8)
    assert Fraction(weights.get(zero, 0), total) == (Fraction(1, 16) if zero in support else 0)
    assert Fraction(weights.get(Bits.zeros(7), 0), total) == Fraction(0)


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
    ch = ses_channel(ses, 1)
    for m in range(16):
        mb = Bits(m, 4)
        c = ses.enc(k, mb, Bits.zeros(0))
        assert ses.dec(k, c) == mb
        weights, total = channel_law(ch, (k, mb))
        assert Fraction(weights.get(c, 0), total) == Fraction(1)
    # point mass: enc_sample never varies
    m = Bits(5, 4)
    assert len({ses.enc_sample(k, m, random.Random(i)) for i in range(10)}) == 1
    assert list(channel_law(ch, (k, m))[0]) == [ses.enc(k, m, Bits.zeros(0))]


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

    class CountingRandom(random.Random):  # a codebook build seeds one generator
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(schemes, "random", types.SimpleNamespace(Random=CountingRandom))
    ses = det_scheme(32, ml=8)
    first = Bits(0, 32)
    images = [ses.enc(first, Bits(m, 8), Bits.zeros(0)) for m in range(256)]
    assert len(builds) == 1  # one codebook per key, built on first use
    cap = TABLE_KEYS
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


def test_inline_shuffle_is_random_shuffle():
    # the det codebook's inline Fisher-Yates makes random.shuffle's calls:
    # the same permutation, and the generator left in the same state (a
    # drift at one size would also change every later permutation). The
    # draw width changes where an index crosses a power of two, so the sizes
    # are 1-64 and every 2^b - 1, 2^b and 2^b + 1 up to 2^16 + 1. Each seed
    # runs every size up to 2^12 + 1 and one of the twelve larger ones in
    # turn, so each larger size runs under one or two seeds
    boundaries = [2**b + d for b in range(1, 17) for d in (-1, 0, 1)]
    small = sorted({*range(1, 65), *(n for n in boundaries if n <= 2**12 + 1)})
    large = [n for n in boundaries if n > 2**12 + 1]
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        for size in (*small, large[seed % len(large)]):
            x, y = list(range(size)), list(range(size))
            schemes._shuffle(x, ours.getrandbits)
            theirs.shuffle(y)
            assert x == y, (seed, size)
        assert ours.getstate() == theirs.getstate(), seed


@pytest.mark.parametrize("ml", [1, 8, 9])
def test_det_ciphertexts_match_reference_and_are_cached_per_key(ml, monkeypatch):
    builds = []
    shuffle = schemes._shuffle
    monkeypatch.setattr(schemes, "_shuffle", lambda x, bits: builds.append(1) or shuffle(x, bits))
    ses = det_scheme(16, ml=ml)
    no_coins = Bits.zeros(0)
    keys = [Bits(4099 * i + 1, 16) for i in range(TABLE_KEYS + 2)]
    first = {}
    # the last pass revisits the first two keys, evicted by then and rebuilt:
    # one codebook per key, and two more for the revisits
    for k in keys + keys[:2]:
        book = oracles.det_codebook_bits(k.bin(), ml)
        for m in range(2**ml):
            mb = Bits(m, ml)
            c = ses.enc(k, mb, no_coins)
            assert c.bin() == book[m] and c == Bits(int(book[m], 2), ml)
            assert ses.enc(k, mb, no_coins) is c
            assert ses.enc_sample(k, mb, random.Random(m)) is c
            assert ses.dec(k, c) == mb
            if (k, m) in first:
                # ciphertexts of 8 bits or fewer are shared values, so only
                # a wider one shows the rebuilt codebook by identity
                assert c == first[k, m] and (c is first[k, m]) == (ml <= 8)
            first.setdefault((k, m), c)
    assert len(builds) == TABLE_KEYS + 4


def test_det_inverse_is_built_on_first_dec_only(monkeypatch):
    inversions = []
    invert = schemes._invert
    monkeypatch.setattr(schemes, "_invert", lambda perm: inversions.append(1) or invert(perm))
    ses = det_scheme(16, ml=8)
    no_coins = Bits.zeros(0)
    keys = [Bits(977 * i + 3, 16) for i in range(TABLE_KEYS + 1)]
    messages = [Bits(m, 8) for m in range(256)]

    def decrypts(k):
        book = oracles.det_codebook_bits(k.bin(), 8)
        return [ses.dec(k, Bits(int(c, 2), 8)) for c in book] == messages

    assert decrypts(keys[0]) and len(inversions) == 1  # dec before any enc
    cts = [ses.enc(keys[1], m, no_coins) for m in messages]
    assert len(inversions) == 1  # enc alone builds no inverse
    assert [ses.dec(keys[1], c) for c in cts] == messages and len(inversions) == 2
    for k in keys[2:]:
        ses.enc(k, messages[0], no_coins)  # the last key evicts keys[0]
    assert decrypts(keys[0]) and len(inversions) == 3


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
    assert s[: sig.coin_bits] == coins
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


def _count_macs(monkeypatch):
    """Counts the HMACs of schemes: the tags of sign and vrfy (hmac_sha256)
    and the pads of randpad, finished inline at a pad table's miss."""
    macs = []
    real = schemes.hmac_sha256
    monkeypatch.setattr(schemes, "hmac_sha256", lambda *a: macs.append(1) or real(*a))
    miss = schemes._PadTable.__missing__
    monkeypatch.setattr(
        schemes._PadTable, "__missing__", lambda pads, rho: macs.append(1) or miss(pads, rho)
    )
    return macs


def test_randpad_pad_table_matches_reference_on_every_call(monkeypatch):
    # a key has 2^r pads: each is derived once, and enc and dec share it
    macs = _count_macs(monkeypatch)
    ses = randpad_scheme(4, 16, ml=8)
    rng = random.Random(11)
    k = Bits.random(16, rng)
    msgs = [Bits.random(8, rng) for _ in range(3)]
    for _ in range(2):
        for rho in range(16):
            coins = Bits(rho, 4)
            for m in msgs:
                c = ses.enc(k, m, coins)
                assert c.bin() == oracles.randpad_enc_bits(k.bin(), m.bin(), coins.bin())
                other = c ^ Bits(0x5A, 12)  # same coins, another body
                assert ses.dec(k, c) == m
                assert ses.dec(k, other).bin() == oracles.randpad_dec_bits(k.bin(), other.bin(), 4, 8)
        assert len(macs) == 16
    # the checks run before the lookup, also on bytes the table holds
    for _ in range(2):
        with pytest.raises(ParameterError):
            ses.enc(k, Bits(msgs[0].uint, 9), Bits(0, 4))
        with pytest.raises(ParameterError):
            ses.enc(k, msgs[0], Bits(0, 5))
        assert ses.dec(k, Bits(ses.enc(k, msgs[0], Bits(0, 4)).uint, 13)) is None


@pytest.mark.parametrize("kind", ["coin-extractable", "unique"])
def test_sig_tags_match_reference_on_every_call(kind, monkeypatch):
    macs = _count_macs(monkeypatch)
    sig = sig_fixture(kind, 16, ml=6, coin_bits=3, tag_bits=10)
    c, t = sig.coin_bits, sig.tag_bits
    sk = Bits(0x1D2C, 16)
    payloads = [(Bits(m, 6), Bits(rho, c)) for m in (5, 40) for rho in range(2**c)]
    for rounds in (1, 2):
        for m, coins in payloads:
            s = sig.sign(sk, m, coins)
            assert s.bin() == oracles.sig_sign_bits(sk.bin(), m.bin(), coins.bin(), t)
            for cand in (s, s ^ Bits(1, c + t)):
                assert sig.vrfy(sk, m, cand) == oracles.sig_vrfy_bits(
                    sk.bin(), m.bin(), cand.bin(), 6, c, t
                )
        # no tag table: one HMAC per sign and per vrfy, repeats included
        assert len(macs) == 3 * len(payloads) * rounds
    # the checks run before the HMAC, also on payloads signed before
    m, coins = payloads[0]
    s = sig.sign(sk, m, coins)
    for _ in range(2):
        with pytest.raises(ParameterError):
            sig.sign(sk, Bits(m.uint, 7), coins)
        with pytest.raises(ParameterError):
            sig.sign(sk, m, Bits(coins.uint, c + 1))
        assert not sig.vrfy(sk, Bits(m.uint, 7), s)
        assert not sig.vrfy(sk, m, Bits(s.uint, c + t + 1))
        assert sig.vrfy(sk, m, s)


def test_scheme_tables_stay_bounded_and_rebuild_right(monkeypatch):
    macs = _count_macs(monkeypatch)
    m = Bits(0xA7, 8)

    def right(ses, sig, k, rho):
        coins = Bits(rho, 4)
        c, s = ses.enc(k, m, coins), sig.sign(k, m, coins)
        return (
            c.bin() == oracles.randpad_enc_bits(k.bin(), m.bin(), coins.bin())
            and s.bin() == oracles.sig_sign_bits(k.bin(), m.bin(), coins.bin(), 12)
            and sig.vrfy(k, m, s)
        )

    ses = randpad_scheme(4, 16, ml=8)
    sig = sig_fixture("coin-extractable", 16, ml=8, coin_bits=4, tag_bits=12)
    keys = [Bits(31 * i + 7, 16) for i in range(TABLE_KEYS + 1)]
    # each right() signs and verifies once, one HMAC each, and derives a pad
    # unless the pad table holds it
    for k in keys:
        assert right(ses, sig, k, 0)
    assert len(macs) == 3 * len(keys)
    # the latest TABLE_KEYS keys are held; the first was evicted and is rebuilt
    assert all(right(ses, sig, k, 0) for k in keys[1:]) and len(macs) == 5 * len(keys) - 2
    assert right(ses, sig, keys[0], 0) and len(macs) == 5 * len(keys) + 1
    # a table that reaches TABLE_ENTRIES entries is emptied: with 3, rho 3
    # and rho 6 each find a full table, so only rho 6 is held after rho 6
    monkeypatch.setattr(prf_module, "TABLE_ENTRIES", 3)
    ses = randpad_scheme(4, 16, ml=8)
    sig = sig_fixture("coin-extractable", 16, ml=8, coin_bits=4, tag_bits=12)
    macs.clear()
    assert all(right(ses, sig, keys[0], rho) for rho in range(7)) and len(macs) == 21
    assert right(ses, sig, keys[0], 6) and len(macs) == 23
    assert right(ses, sig, keys[0], 0) and len(macs) == 26


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
    # one of the 16 coin strings gives each randpad ciphertext
    weights, total = channel_law(rand_alg_channel(alg, 1), (s, x))
    assert Fraction(weights.get(y, 0), total) == Fraction(1, 16)

    sig = sig_fixture("coin-injective", 16, ml=4, coin_bits=4, tag_bits=8)
    salg = alg_from_signing(sig)
    assert salg.output_bits == 12
    sk = salg.secret_gen(rng)
    out = salg.run_sample(sk, Bits.zeros(4), rng)
    assert sig.vrfy(sk, Bits.zeros(4), out)
    # coin-injective: one of the 16 coin strings gives each signature
    weights, total = channel_law(rand_alg_channel(salg, 1), (sk, Bits.zeros(4)))
    assert Fraction(weights.get(out, 0), total) == Fraction(1, 16)


def _bits(draw, n):
    return Bits(draw(st.integers(0, 2**n - 1)), n)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["coin-injective", "coin-extractable", "unique"]),
    st.integers(1, 40),
    st.integers(1, 21),
    st.integers(0, 13),
    st.one_of(st.integers(1, 12), st.integers(250, 600)),
    st.data(),
)
def test_sig_fixture_matches_bit_string_reference(kind, kappa, ml, coin_bits, tag_bits, data):
    # ml + coin_bits ranges over lengths that are not whole bytes, and
    # tag_bits > 256 needs more than one counter block
    sig = sig_fixture(kind, kappa, ml=ml, coin_bits=coin_bits, tag_bits=tag_bits)
    c, t = sig.coin_bits, sig.tag_bits
    sk = _bits(data.draw, kappa)
    m = _bits(data.draw, ml)
    coins = _bits(data.draw, c)
    s = sig.sign(sk, m, coins)
    assert s.bin() == oracles.sig_sign_bits(sk.bin(), m.bin(), coins.bin(), t)
    assert sig.vrfy(sk, m, s)
    # a random candidate verifies exactly when the reference says so; with
    # short tags some do
    for cand in (_bits(data.draw, c + t), s ^ Bits(1, c + t), s ^ Bits(1 << t, c + t) if c else s):
        assert sig.vrfy(sk, m, cand) == oracles.sig_vrfy_bits(sk.bin(), m.bin(), cand.bin(), ml, c, t)
    # wrong lengths never verify
    for bad_m, bad_s in ((m, s + Bits(0, 1)), (m, s[1:]), (m + Bits(0, 1), s), (m[1:], s)):
        assert not sig.vrfy(sk, bad_m, bad_s)
        assert not oracles.sig_vrfy_bits(sk.bin(), bad_m.bin(), bad_s.bin(), ml, c, t)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 20), st.integers(1, 40), st.integers(1, 300), st.data())
def test_randpad_matches_bit_string_reference(r, kappa, ml, data):
    ses = randpad_scheme(r, kappa, ml=ml)
    k = _bits(data.draw, kappa)
    m = _bits(data.draw, ml)
    coins = _bits(data.draw, r)
    c = ses.enc(k, m, coins)
    assert c.bin() == oracles.randpad_enc_bits(k.bin(), m.bin(), coins.bin())
    assert ses.dec(k, c) == m
    other = _bits(data.draw, r + ml)
    assert ses.dec(k, other).bin() == oracles.randpad_dec_bits(k.bin(), other.bin(), r, ml)
    assert ses.dec(k, other + Bits(0, 1)) is None
    assert oracles.randpad_dec_bits(k.bin(), other.bin() + "0", r, ml) is None


class _Script:
    """An rng stand-in whose getrandbits(nbits) hands out scripted
    candidates in order, counting the draws."""

    def __init__(self, candidates, nbits):
        self.candidates, self.nbits, self.drawn = list(candidates), nbits, 0

    def getrandbits(self, n):
        assert n == self.nbits
        self.drawn += 1
        return self.candidates[self.drawn - 1]


@pytest.mark.parametrize(
    "kind,coin_bits,tag_bits", [("coin-injective", 3, 4), ("coin-extractable", 2, 5), ("unique", 0, 6)]
)
def test_bound_verifier_matches_vrfy_on_every_candidate(kind, coin_bits, tag_bits):
    # the search bound to (pk, m) tests each scripted candidate as vrfy does
    ml = 5
    sig = sig_fixture(kind, 12, ml=ml, coin_bits=coin_bits, tag_bits=tag_bits)
    c, t, sigl = sig.coin_bits, sig.tag_bits, sig.sigl
    every = range(2**sigl)
    for pk, m in ((Bits(0x5A3, 12), Bits(9, ml)), (Bits(0x0F1, 12), Bits(9, ml))):
        got = []
        for v in every:  # one candidate per search: found exactly when it verifies
            rng = _Script([v], sigl)
            found = sig.search(pk, m, 1, rng)
            cand = Bits(v, sigl)
            assert (found == v) == sig.vrfy(pk, m, cand) == oracles.sig_vrfy_bits(
                pk.bin(), m.bin(), cand.bin(), ml, c, t
            ), (pk, v)
            assert found in (None, v) and rng.drawn == 1
            got.append(found == v)
        assert sum(got) == 2**c  # one tag per coin string
        # one search over every candidate, the rejected ones first and in
        # reverse: its per-search memo rejects them all, and it stops at the
        # first that verifies, after drawing it
        order = [v for v in reversed(every) if not got[v]] + [v for v in every if got[v]]
        rng = _Script(order, sigl)
        assert sig.search(pk, m, len(order), rng) == order[-(2**c)]
        assert rng.drawn == len(order) - 2**c + 1
    # a wrong-length message verifies nothing, and every candidate is drawn
    for bad_m in (Bits(9, ml + 1), Bits(4, ml - 1)):
        rng = _Script(every, sigl)
        assert sig.search(pk, bad_m, len(every), rng) is None and rng.drawn == len(every)


def test_bound_verifier_reads_a_two_block_tag():
    sig = sig_fixture("coin-extractable", 16, ml=7, coin_bits=2, tag_bits=300)
    sk, m = Bits(0xBEEF, 16), Bits(0x55, 7)
    for rho in range(4):
        s = sig.sign(sk, m, Bits(rho, 2))
        cands = (s ^ Bits(1, 302), s ^ Bits(1 << 299, 302), s ^ Bits(1 << 300, 302), s)
        for cand in cands:
            found = sig.search(sk, m, 1, _Script([cand.uint], 302))
            assert (found == cand.uint) == sig.vrfy(sk, m, cand) == oracles.sig_vrfy_bits(
                sk.bin(), m.bin(), cand.bin(), 7, 2, 300
            )
        rng = _Script([cand.uint for cand in cands], 302)
        assert sig.search(sk, m, len(cands), rng) == s.uint and rng.drawn == len(cands)


def _vrfy_search(sig, pk, m, budget, rng):
    """The search as a loop over bit strings: every candidate is a
    Bits.random draw checked by vrfy."""
    for _ in range(budget):
        cand = Bits.random(sig.sigl, rng)
        if sig.vrfy(pk, m, cand):
            return cand.uint
    return None


@pytest.mark.parametrize(
    "kind,ml,coin_bits,tag_bits",
    [
        ("coin-injective", 8, 3, 4),  # m || coins is 11 bits, off a byte boundary
        ("coin-extractable", 16, 8, 8),
        ("coin-extractable", 5, 6, 2),  # more coin bits than tag bits
        ("unique", 7, 0, 5),  # no coins: one tag per search
        ("coin-extractable", 7, 2, 300),  # two-block tags
    ],
)
@pytest.mark.parametrize("budget", [0, 1, 70, 400])
def test_search_matches_the_vrfy_loop(kind, ml, coin_bits, tag_bits, budget):
    sig = sig_fixture(kind, 16, ml=ml, coin_bits=coin_bits, tag_bits=tag_bits)
    found = set()
    for seed in range(8):
        setup = random.Random(seed)
        pk, m = Bits.random(16, setup), Bits.random(ml, setup)
        # a wrong-length message is searched too: nothing verifies on it
        for msg in (m, m + Bits(seed & 1, 1), m[1:]):
            ref_rng, rng = random.Random(seed), random.Random(seed)
            want = _vrfy_search(sig, pk, msg, budget, ref_rng)
            assert sig.search(pk, msg, budget, rng) == want, (seed, msg)
            assert rng.getstate() == ref_rng.getstate(), (seed, msg)
            found.add(want is not None)
    if budget >= 70 and tag_bits <= 8:
        assert True in found  # the found path is compared too, not only None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(1, 20), st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_randpad_int_sampler_draws_what_enc_sample_draws(r, ml, count, salt):
    # ml off byte boundaries; r = 0 draws no coins on either side
    ses = randpad_scheme(r, kappa=16, ml=ml)
    seed = random.Random(salt)
    k, m = Bits.random(16, seed), Bits.random(ml, seed)
    by_bits, by_ints = random.Random(salt), random.Random(salt)
    want = [ses.enc_sample(k, m, by_bits) for _ in range(count)]
    sample = ses.enc_ints(k, m, by_ints)
    assert [Bits(sample(), ses.cl) for _ in range(count)] == want
    assert by_ints.getstate() == by_bits.getstate()
    with pytest.raises(ParameterError):
        ses.enc_ints(k, Bits.random(ml + 1, seed), by_ints)

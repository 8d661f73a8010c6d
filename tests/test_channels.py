import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subvertlab import (
    Bits,
    InvalidHistoryError,
    RandomizedAlgorithm,
    alg_from_encryption,
    alg_from_signing,
    channel_law,
    channel_sample,
    channel_walk,
    det_scheme,
    make_signed_family,
    min_entropy_estimate,
    min_entropy_exact,
    rand_alg_channel,
    randpad_scheme,
    ses_channel,
    sig_fixture,
    uniform_channel,
)
from subvertlab import channels
from subvertlab.schemes import IntDraw, PointDraw


def walk(channel, depth, rng):
    h = ()
    for _ in range(depth):
        h = h + (channel_sample(channel, h, rng),)
    return h


def reference_next(host, ell, h, rng):
    """The next document of a cycle channel at h, drawn without the package's
    channel code: host is an encryption scheme (outputs from enc_sample) or
    a randomized algorithm (outputs from run_sample); ell None means the
    uniform channel of host-many bits."""
    if ell is None:
        return Bits.random(host, rng)
    n = len(h)
    if n == 0:
        return host.gen(rng) if hasattr(host, "gen") else host.secret_gen(rng)
    if n <= ell:
        return Bits.random(host.ml if hasattr(host, "ml") else host.input_bits, rng)
    key, x = h[0], h[1 + (n - ell - 1) % ell]
    if hasattr(host, "enc_sample"):
        return host.enc_sample(key, x, rng)
    return host.run_sample(key, x, rng)


def test_uniform_channel_basics():
    ch = uniform_channel(6)
    rng = random.Random(1)
    d = channel_sample(ch, (), rng)
    assert len(d) == 6
    weights, total = channel_law(ch, ())
    assert Fraction(weights.get(d, 0), total) == Fraction(1, 64)
    assert len(weights) == 64
    assert ch.grammar((d, d))
    assert not ch.grammar((Bits.zeros(5),))


def test_ses_channel_grammar_checks_lengths():
    ses = randpad_scheme(4, 16, ml=4)
    ch = ses_channel(ses, 2)
    key, msg, out = Bits.zeros(16), Bits.zeros(4), Bits.zeros(8)
    assert ch.grammar(())
    assert ch.grammar((key,))
    assert ch.grammar((key, msg, msg))
    assert ch.grammar((key, msg, msg, out, out, out))
    assert not ch.grammar((msg,))  # key slot must hold 16 bits
    assert not ch.grammar((key, out))  # message slot must hold 4 bits
    assert not ch.grammar((key, msg, msg, msg))  # third input is an output slot
    with pytest.raises(InvalidHistoryError):
        channel_sample(ch, (msg,), random.Random(0))


def test_channel_walk_matches_chained_samples():
    # validating once and then each new document at its own position draws
    # exactly what per-draw validation draws
    ch = ses_channel(randpad_scheme(4, 16, ml=4), 2)
    assert channel_walk(ch, 9, random.Random(10)) == walk(ch, 9, random.Random(10))
    start = walk(ch, 4, random.Random(11))
    rest = channel_walk(ch, 5, random.Random(12), start)
    assert rest[:4] == start and ch.grammar(rest) and len(rest) == 9
    with pytest.raises(InvalidHistoryError):
        channel_walk(ch, 1, random.Random(0), (Bits.zeros(16), Bits.zeros(8)))
    # a drawer that emits an off-grammar document is caught at its append
    short = dataclasses.replace(ch, drawer=lambda rng: lambda h: lambda: Bits.zeros(3))
    with pytest.raises(InvalidHistoryError, match="position 0"):
        channel_walk(short, 1, random.Random(0))
    # the per-position rule is the grammar, one position at a time
    key, msg, out = Bits.zeros(16), Bits.zeros(4), Bits.zeros(8)
    assert [ch.accepts_at(i, d) for i, d in enumerate((key, msg, msg, out))] == [True] * 4
    assert not ch.accepts_at(3, msg) and not ch.accepts_at(0, out)


def test_ses_channel_output_positions_cycle_through_messages():
    # with ell=2 the outputs encrypt m1, m2, m1, m2, ... under the fixed key
    ses = randpad_scheme(4, 16, ml=4)
    ch = ses_channel(ses, 2)
    rng = random.Random(2)
    k = ses.gen(rng)
    m1, m2 = Bits.random(4, rng), Bits.random(4, rng)
    h = (k, m1, m2)
    for i in range(6):
        want = m1 if i % 2 == 0 else m2
        doc = channel_sample(ch, h, rng)
        assert ses.dec(k, doc) == want
        weights, total = channel_law(ch, h)
        assert Fraction(weights.get(doc, 0), total) == Fraction(1, 2**ses.coin_bits)
        h = h + (doc,)


def test_ses_channel_pmf_matches_encryption_exhaustively():
    # every ciphertext in the scheme's support carries the same probability
    # mass in the channel as under Enc(k, .) itself, and nothing else does
    ses = randpad_scheme(4, 8, ml=4)
    ch = ses_channel(ses, 1)
    rng = random.Random(3)
    k, m = ses.gen(rng), Bits.random(4, rng)
    h = (k, m)
    weights, total = channel_law(ch, h)
    channel_mass = {d: Fraction(w, total) for d, w in weights.items()}
    scheme_mass = {}
    for rho in range(16):
        c = ses.enc(k, m, Bits(rho, 4))
        scheme_mass[c] = scheme_mass.get(c, Fraction(0)) + Fraction(1, 16)
    assert channel_mass == scheme_mass
    assert sum(channel_mass.values()) == 1
    # a ciphertext outside the support has zero channel mass
    outside = next(Bits(v, 8) for v in range(256) if Bits(v, 8) not in scheme_mass)
    assert Fraction(weights.get(outside, 0), total) == Fraction(0)


def test_ses_channel_key_and_input_positions_are_uniform():
    ses = randpad_scheme(2, 4, ml=2)
    ch = ses_channel(ses, 1)
    weights, total = channel_law(ch, ())
    assert Fraction(weights.get(Bits.zeros(4), 0), total) == Fraction(1, 16)
    assert len(weights) == 16
    weights, total = channel_law(ch, (Bits.zeros(4),))
    assert Fraction(weights.get(Bits.zeros(2), 0), total) == Fraction(1, 4)


def _drawn(draw, rng):
    return [draw() for _ in range(6)], rng.getstate()


def test_rand_alg_channel_agrees_with_ses_channel():
    # one builder: at every position the two channels have the same pmf,
    # and a session on either draws what the reference draws from the same
    # RNG calls; the draw is an int draw at inputs and at randpad's
    # outputs, a point draw at a coin-free host's outputs
    for ses in [randpad_scheme(r, 8, ml=3) for r in (0, 1, 4)] + [det_scheme(8, ml=3)]:
        ch_ses = ses_channel(ses, 2)
        ch_alg = rand_alg_channel(alg_from_encryption(ses), 2)
        assert ch_alg.descriptor["type"] == "rand-alg"
        output_kind = PointDraw if ses.coin_bits == 0 else IntDraw
        h = channel_walk(ch_ses, 6, random.Random(4))
        for depth in range(len(h) + 1):
            prefix, case = h[:depth], (ses.scheme_id, depth)
            ses_weights, ses_total = channel_law(ch_ses, prefix)
            alg_weights, alg_total = channel_law(ch_alg, prefix)
            for d, w in ses_weights.items():
                assert Fraction(w, ses_total) == Fraction(alg_weights.get(d, 0), alg_total)
            rng = random.Random(depth)
            want = _drawn(partial(reference_next, ses, 2, prefix, rng), rng)
            kind = partial if depth == 0 else IntDraw if depth <= 2 else output_kind
            for ch in (ch_ses, ch_alg):
                rng = random.Random(depth)
                draw = ch.session(prefix, rng).draw()
                assert type(draw) is kind and _drawn(draw, rng) == want, case


def test_rand_alg_channel_inputs_are_uniform_and_enumerable():
    # every input position of a run has the uniform pmf over all input
    # strings, for an encryption host and a signing host alike
    hosts = (alg_from_encryption(randpad_scheme(3, 8, ml=3)),
             alg_from_signing(sig_fixture("coin-injective", 16, 4, 4, 8)))
    for alg in hosts:
        ch = rand_alg_channel(alg, 2)
        h = channel_walk(ch, 3, random.Random(7))
        for prefix in (h[:1], h[:2]):
            weights, total = channel_law(ch, prefix)
            support = list(weights)
            assert support == [Bits(v, alg.input_bits) for v in range(2**alg.input_bits)]
            assert {Fraction(weights[d], total) for d in support} == {
                Fraction(1, 2**alg.input_bits)}
            assert Fraction(weights.get(Bits.zeros(alg.input_bits + 1), 0), total) == 0
            assert len(channel_sample(ch, prefix, random.Random(8))) == alg.input_bits


def test_min_entropy_exact_randpad_equals_pad_bits():
    ses = randpad_scheme(5, 8, ml=4)
    ch = ses_channel(ses, 1)
    rng = random.Random(5)
    h = walk(ch, 2, rng)  # key + one input: next document is an output
    rep = min_entropy_exact(ch, [h])
    assert rep.bits == pytest.approx(5.0)
    assert rep.method == "exact" and rep.histories == 1
    # key position dominates when included: still the flattest is what counts
    rep2 = min_entropy_exact(ch, [(), h])
    assert rep2.bits == pytest.approx(5.0)  # worst case over histories


def test_min_entropy_exact_det_scheme_is_zero():
    ses = det_scheme(8, ml=4)
    ch = ses_channel(ses, 1)
    rng = random.Random(6)
    h = walk(ch, 2, rng)
    assert min_entropy_exact(ch, [h]).bits == pytest.approx(0.0)


def test_min_entropy_exact_checks_each_history_once(monkeypatch):
    # the history is checked once, not again for every support document
    ch = ses_channel(randpad_scheme(5, 8, ml=4), 1)
    histories = [(), walk(ch, 2, random.Random(5))]
    checked, check = [], channels.check_history

    def counting(channel, history):
        checked.append(history)
        return check(channel, history)

    monkeypatch.setattr(channels, "check_history", counting)
    assert min_entropy_exact(ch, histories).bits == pytest.approx(5.0)
    assert checked == histories


def test_signed_family_law_counts_its_coin_strings():
    # randpad r=2 signed with 2 coin bits: at an output position the law is
    # a count of family.alg.run over all 16 coin strings
    ses = randpad_scheme(2, 8, ml=4)
    sig = sig_fixture("coin-injective", 8, ml=ses.cl, coin_bits=2, tag_bits=8)
    family = make_signed_family(ses, sig, random.Random(12))
    ch = rand_alg_channel(family.alg, 1)
    h = channel_walk(ch, 3, random.Random(13))
    # with ell=1 both output positions answer the one input h[1]
    counts = Counter(family.alg.run(h[0], h[1], Bits(rho, 4)) for rho in range(16))
    for prefix in (h[:2], h):
        weights, total = channel_law(ch, prefix)
        law = {d: Fraction(w, total) for d, w in weights.items()}
        assert law == {d: Fraction(n, 16) for d, n in counts.items()}
        assert sum(law.values()) == 1
    assert min_entropy_exact(ch, [h[:2], h]).bits == pytest.approx(4.0)
    # a unique signature takes no coins: the min-entropy is the host's r
    unique = sig_fixture("unique", 8, ml=ses.cl, tag_bits=8)
    ch = rand_alg_channel(make_signed_family(ses, unique, random.Random(12)).alg, 1)
    h = channel_walk(ch, 3, random.Random(13))
    assert min_entropy_exact(ch, [h[:2], h]).bits == pytest.approx(2.0)


def test_output_law_weighs_coin_strings_that_collide():
    # a host that reads one of its two coin bits: 2 of the 4 coin strings
    # give each output
    alg = RandomizedAlgorithm(
        alg_id="one-coin-read", secret_bits=2, input_bits=2, output_bits=3, coin_bits=2,
        secret_gen=partial(Bits.random, 2), run=lambda s, x, coins: x + coins[:1],
    )
    ch, h = rand_alg_channel(alg, 1), (Bits(1, 2), Bits(2, 2))
    weights, total = channel_law(ch, h)
    law = {d: Fraction(w, total) for d, w in weights.items()}
    assert law == {Bits(4, 3): Fraction(1, 2), Bits(5, 3): Fraction(1, 2)}
    assert min_entropy_exact(ch, [h]).bits == 1.0


def test_min_entropy_estimate_tracks_exact():
    ses = randpad_scheme(6, 8, ml=4)
    ch = ses_channel(ses, 1)
    rng = random.Random(7)
    h = walk(ch, 2, rng)
    rep = min_entropy_estimate(ch, h, 4000, rng)
    assert rep.method == "collision"
    assert abs(rep.bits - 6.0) < 0.35
    with pytest.raises(Exception):
        min_entropy_estimate(ch, h, 1, rng)


def test_min_entropy_estimate_point_mass():
    ses = det_scheme(8, ml=4)
    ch = ses_channel(ses, 1)
    rng = random.Random(8)
    h = walk(ch, 2, rng)
    assert min_entropy_estimate(ch, h, 100, rng).bits == pytest.approx(0.0)


def test_min_entropy_estimate_without_collisions_reports_a_bound():
    # 2^64 equally likely documents: 64 draws collide with chance 1e-16
    rep = min_entropy_estimate(uniform_channel(64), (), 64, random.Random(9))
    assert rep.method == "collision-bound" and rep.sample_count == 64
    # 95% one-sided bound on the collision rate over 2016 pairs, about 3/N
    assert rep.bits == pytest.approx(-math.log2(1 - 0.05 ** (1 / 2016)))
    assert abs(rep.bits - math.log2(2016 / 3)) < 0.01


def test_descriptor_carries_shape():
    ses = randpad_scheme(8, 16, ml=8)
    ch = ses_channel(ses, 4)
    d = ch.descriptor
    assert d["ell"] == 4 and d["kappa"] == 16
    assert d["in_bits"] == 8 and d["out_bits"] == 16
    assert d["scheme_id"] == "randpad-8"


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 6))
def test_channel_pmf_sums_to_one_property(r, ml, depth):
    ses = randpad_scheme(r, 4, ml=ml)
    ch = ses_channel(ses, 2)
    rng = random.Random(depth * 100 + r * 10 + ml)
    h = walk(ch, depth, rng)
    weights, total = channel_law(ch, h)
    assert sum(Fraction(weights[d], total) for d in set(weights)) == 1


def _law_channels():
    ses = randpad_scheme(2, 8, ml=4)
    signing = alg_from_signing(sig_fixture("coin-injective", 8, ml=4, coin_bits=3, tag_bits=8))
    sig = sig_fixture("coin-injective", 8, ml=ses.cl, coin_bits=2, tag_bits=8)
    return {
        "uniform": uniform_channel(6),
        "ses-randpad": ses_channel(ses, 2),
        "ses-det": ses_channel(det_scheme(8, ml=4), 2),
        "rand-alg-signing": rand_alg_channel(signing, 2),
        "signed": rand_alg_channel(make_signed_family(ses, sig, random.Random(14)).alg, 2),
    }


@pytest.mark.parametrize("name", list(_law_channels()))
def test_every_channel_kind_law_sums_to_its_total(name):
    # at every position of a short walk the law's weights are positive, sum
    # to its total, and weigh the document the walk drew there
    ch = _law_channels()[name]
    h = channel_walk(ch, 6, random.Random(15))
    for depth in range(len(h) + 1):
        weights, total = channel_law(ch, h[:depth])
        assert min(weights.values()) > 0 and sum(weights.values()) == total, (name, depth)
        assert depth == len(h) or h[depth] in weights, (name, depth)
    with pytest.raises(InvalidHistoryError):
        channel_law(ch, (Bits.zeros(ch.max_doc_len + 1),))


def test_sampling_respects_pmf():
    # chi-square against the exact pmf at an output position
    ses = randpad_scheme(4, 8, ml=4)
    ch = ses_channel(ses, 1)
    rng = random.Random(9)
    h = walk(ch, 2, rng)
    n = 8000
    counts = {}
    for _ in range(n):
        d = channel_sample(ch, h, rng)
        counts[d] = counts.get(d, 0) + 1
    weights, total = channel_law(ch, h)
    support = list(set(weights))
    stat = 0.0
    for d in support:
        e = float(Fraction(weights[d], total)) * n
        stat += (counts.get(d, 0) - e) ** 2 / e
    import oracles

    assert stat < oracles.chi2_quantile_exact(len(support) - 1, 0.9999)
    assert math.isclose(sum(counts.values()), n)


def _both_forms(channel, history, reference, count, salt):
    """count documents at history from the reference and from the session
    draw's int form, each on its own copy of one RNG, and the RNG states
    after."""
    by_bits, by_ints = random.Random(salt), random.Random(salt)
    want = [reference(by_bits) for _ in range(count)]
    draw = channel.session(history, by_ints).draw()
    assert isinstance(draw, IntDraw)
    xs = [draw.ints() for _ in range(count)]
    assert [(x << draw.shift).to_bytes(draw.nbytes, "big") for x in xs] == [
        d.to_bytes() for d in want
    ]
    return [draw.emit(x) for x in xs], want, by_ints.getstate(), by_bits.getstate()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_uniform_int_form_draws_what_bits_random_draws(width, count, salt):
    reference = partial(Bits.random, width)
    got, want, state, want_state = _both_forms(uniform_channel(width), (), reference, count, salt)
    assert got == want and state == want_state


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10),
    st.integers(1, 12),
    st.integers(1, 3),
    st.data(),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_ses_int_forms_draw_what_enc_sample_draws(r, ml, ell, data, count, salt):
    # message positions and randpad ciphertext positions have an int form,
    # except the ciphertexts of r = 0, which are one point
    ses = randpad_scheme(r, 16, ml)
    ch = ses_channel(ses, ell)
    depth = data.draw(st.integers(1, ell + 4))
    h = channel_walk(ch, depth, random.Random(salt ^ 1))
    if r == 0 and depth > ell:
        _assert_point_draw(ch, ses, ell, h, random.Random(salt))
        return
    reference = partial(reference_next, ses, ell, h)
    got, want, state, want_state = _both_forms(ch, h, reference, count, salt)
    assert got == want and state == want_state


def _assert_point_draw(channel, ses, ell, history, rng):
    state = rng.getstate()
    draw = channel.session(history, rng).draw()
    assert isinstance(draw, PointDraw) and rng.getstate() == state
    assert draw() is draw.point == reference_next(ses, ell, history, rng)
    assert rng.getstate() == state


def test_positions_without_an_int_form_draw_what_the_host_draws():
    rng = random.Random(3)
    randpad = randpad_scheme(4, 16, 8)
    signing = alg_from_signing(sig_fixture("coin-injective", 16, 8, 4, 8))
    ses = ses_channel(randpad, 2)
    alg = rand_alg_channel(alg_from_encryption(randpad), 2)
    signed = rand_alg_channel(signing, 2)
    # keys, and outputs of a host with coins and no run_ints
    for ch, host, h in ((ses, randpad, ()), (alg, randpad, ()),
                        (signed, signing, channel_walk(signed, 3, rng))):
        draw = ch.session(h, rng).draw()
        assert not isinstance(draw, (IntDraw, PointDraw))
        state = rng.getstate()
        doc = draw()
        rng.setstate(state)
        assert doc == reference_next(host, 2, h, rng)
    # a coin-free host's output is a point draw, and takes no randomness
    det = det_scheme(16, 8)
    det_ch = ses_channel(det, 2)
    _assert_point_draw(det_ch, det, 2, channel_walk(det_ch, 3, rng), rng)


def test_a_draw_wider_than_the_channel_is_refused():
    # every form of draw is checked against max_doc_len: an int draw and a
    # point draw when the session hands them out, a plain callable per call
    ch = uniform_channel(16)
    wide = (IntDraw(lambda: 0, 17), PointDraw(Bits.zeros(17)), lambda: Bits.zeros(17))
    for draw in wide:
        bad = dataclasses.replace(ch, drawer=lambda rng, draw=draw: lambda h: draw)
        with pytest.raises(InvalidHistoryError, match="oversized"):
            channel_sample(bad, (), random.Random(0))
        with pytest.raises(InvalidHistoryError, match="oversized"):
            channel_walk(bad, 1, random.Random(0))
    at_width = (IntDraw(lambda: 0, 16), PointDraw(Bits.zeros(16)), lambda: Bits.zeros(16))
    for draw in at_width:
        ok = dataclasses.replace(ch, drawer=lambda rng, draw=draw: lambda h: draw)
        assert channel_sample(ok, (), random.Random(0)) == Bits.zeros(16)


def _walk_channels():
    """One channel of each kind, by name, with its reference host and ell."""
    randpad = randpad_scheme(3, 16, 4)
    det = det_scheme(16, 4)
    signing = alg_from_signing(sig_fixture("coin-injective", 16, 4, 3, 8))
    return {
        "uniform": (uniform_channel(12), 12, None),
        "ses randpad": (ses_channel(randpad, 3), randpad, 3),
        "ses det": (ses_channel(det, 3), det, 3),
        "rand-alg": (rand_alg_channel(alg_from_encryption(randpad), 3), randpad, 3),
        "signed": (rand_alg_channel(signing, 3), signing, 3),
    }


@pytest.mark.parametrize("name", list(_walk_channels()))
def test_channel_walk_leaves_the_rng_where_the_reference_does(name):
    # channel_walk and chained channel_sample calls draw the documents the
    # reference draws, from the same RNG calls, from the empty history and
    # from a start history
    channel, host, ell = _walk_channels()[name]
    for seed in range(4):
        by_walk, by_samples, by_ref = random.Random(seed), random.Random(seed), random.Random(seed)
        start = channel_walk(channel, seed, by_walk)
        want = ()
        for _ in range(seed):
            want = want + (reference_next(host, ell, want, by_ref),)
        assert start == want == walk(channel, seed, by_samples)
        for _ in range(14):
            want = want + (reference_next(host, ell, want, by_ref),)
        assert channel_walk(channel, 14, by_walk, start) == want, (name, seed)
        assert by_walk.getstate() == by_ref.getstate(), (name, seed)


@pytest.mark.parametrize("name", ["ses randpad", "ses det", "rand-alg", "signed"])
def test_interleaved_sessions_on_one_channel_draw_what_fresh_references_draw(name):
    # one channel object, two sessions with their own rngs and host keys,
    # drawn in turn; two more on the first one's rng, one with its key
    # object and other inputs, one with its input objects and another key;
    # and one with the first one's key and inputs on the second one's rng.
    # Each session's draw gives, call after call, what the reference gives
    # from a copy of the rng, and each session appends its first document
    channel, host, ell = _walk_channels()[name]
    first = channel_walk(channel, 4, random.Random(1))
    second = channel_walk(channel, 4, random.Random(2))
    assert first[0] != second[0] and first[1:] != second[1:]
    rngs = [(random.Random(10 + i), random.Random(10 + i)) for i in range(2)]
    sessions = [
        (channel.session(first, rngs[0][0]), rngs[0][1]),
        (channel.session(second, rngs[1][0]), rngs[1][1]),
        (channel.session(first[:1] + second[1:], rngs[0][0]), rngs[0][1]),
        (channel.session(second[:1] + first[1:], rngs[0][0]), rngs[0][1]),
        (channel.session(first, rngs[1][0]), rngs[1][1]),
    ]
    for step, i in enumerate(random.Random(3).choices(range(len(sessions)), k=80)):
        session, reference = sessions[i]
        h = tuple(session.history)
        draw = session.draw()
        got = [draw() for _ in range(3)]
        assert got == [reference_next(host, ell, h, reference) for _ in range(3)], (name, step)
        rng = rngs[0][0] if reference is rngs[0][1] else rngs[1][0]
        assert rng.getstate() == reference.getstate(), (name, step)
        session.append(got[0])
        assert session.history[-1] is got[0] and len(session.history) == len(h) + 1


def test_a_session_validates_its_start_and_each_append_and_copies_its_start():
    ch = ses_channel(randpad_scheme(4, 16, ml=4), 2)
    start = walk(ch, 4, random.Random(5))
    session = ch.session(start, random.Random(6))
    assert session.history == list(start) and session.history is not start
    with pytest.raises(InvalidHistoryError, match="position 4"):
        session.append(Bits.zeros(4))  # a message where an output belongs
    assert len(session.history) == 4
    session.append(session.draw()())
    assert len(start) == 4 and len(session.history) == 5
    with pytest.raises(InvalidHistoryError):
        ch.session((Bits.zeros(16), Bits.zeros(8)), random.Random(0))

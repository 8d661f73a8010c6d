import dataclasses
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import subvertlab.prf
import subvertlab.stego
from subvertlab.channels import IntDraw
from subvertlab.schemes import PointDraw
from subvertlab import (
    Bits,
    InvalidHistoryError,
    ParameterError,
    Prf,
    ScheduleError,
    StegoParams,
    WrongDocumentCountError,
    channel_sample,
    channel_walk,
    default_beta,
    encode_all,
    encode_schedule,
    encode_step,
    estimate_unrel_reboot,
    estimate_unrel_stego,
    outl_for,
    prf_split_block,
    randpad_scheme,
    rejsam_decode,
    rejsam_system,
    ses_channel,
    substream,
    uniform_channel,
)


def find_doc(prf, key, params, want_value, want_slot, doc_bits=16):
    """Brute-force a document whose mark is the requested (value, slot)."""
    for v in range(2**doc_bits):
        doc = Bits(v, doc_bits)
        value, j = prf_split_block(prf, key, doc, params.block_bits, params.n_slots)
        if j == want_slot and value.uint == want_value:
            return doc
    raise AssertionError("no document found")


def test_params_validation():
    StegoParams(ml=8, s=64, outl=64)
    with pytest.raises(ParameterError):
        StegoParams(ml=6, s=64, outl=64)  # not a power of two
    with pytest.raises(ParameterError):
        StegoParams(ml=8, s=0, outl=64)
    with pytest.raises(ParameterError):
        StegoParams(ml=8, s=64, outl=0)
    with pytest.raises(ParameterError):
        StegoParams(ml=8, s=64, outl=64, block_bits=9)
    with pytest.raises(ParameterError):
        StegoParams(ml=8, s=64, outl=64, kappa=0)


def test_slot_accounting():
    p = StegoParams(ml=8, s=64, outl=64, block_bits=3)
    assert p.n_slots == 3 and p.padded_ml == 9
    q = StegoParams(ml=64, s=64, outl=64, block_bits=6)
    assert q.n_slots == 11 and q.padded_ml == 66


def test_outl_for_reference_values():
    # default slack beta = ml - ln ml turns pool*(ln pool + beta) into ml^2
    assert outl_for(8) == 64
    assert outl_for(16) == 256
    assert default_beta(8) == pytest.approx(8 - math.log(8))
    assert outl_for(8, beta=1.0) == math.ceil(8 * (math.log(8) + 1.0))
    assert outl_for(8, block_bits=2) == math.ceil(4 * (math.log(4) + default_beta(8)))
    with pytest.raises(ParameterError):
        default_beta(0)
    with pytest.raises(ParameterError):
        outl_for(1, beta=-5.0)
    # a block of no bits, or a slack with no finite length, is rejected
    # rather than dividing by zero or taking the ceiling of infinity
    for bad in ({"block_bits": 0}, {"block_bits": -1}, {"beta": math.nan}, {"beta": math.inf},
                {"beta": -math.inf}, {"beta": 1e308}):
        with pytest.raises(ParameterError):
            outl_for(8, **bad)
    for beta in (math.nan, math.inf, "1"):
        with pytest.raises(ParameterError, match="beta"):
            StegoParams(ml=8, s=64, outl=64, beta=beta)


def test_encode_step_draw_budget_is_exact():
    # ml=1: a single slot, the mark is one PRF bit. A draw stream stuck on a
    # document with the wrong bit burns exactly s draws plus the final
    # unconditional one; with the right bit it stops immediately.
    params = StegoParams(ml=1, s=7, outl=4, kappa=64)
    prf = Prf(64)
    key = Bits.random(64, random.Random(0))
    doc0 = find_doc(prf, key, params, 0, 0)
    calls = []

    def draw():
        calls.append(1)
        return doc0

    got = encode_step(prf, params, key, Bits(1, 1), draw)
    assert got == doc0 and len(calls) == params.s + 1
    calls.clear()
    got = encode_step(prf, params, key, Bits(0, 1), draw)
    assert got == doc0 and len(calls) == 1


def test_encode_step_marks_each_distinct_document_once(monkeypatch):
    # ml=1: one slot, the mark is one PRF bit. The mark is a function of the
    # document, so a stream stuck on rejected documents costs one mark per
    # distinct document, while every one of the s+1 draws is still taken.
    # Marks are counted as fills of the PRF's mark table (its misses after
    # the tables are emptied), since a re-mark would be a table hit
    params = StegoParams(ml=1, s=7, outl=4, kappa=64)
    prf = Prf(64)
    key = Bits.random(64, random.Random(0))
    candidates = [Bits(v, 16) for v in range(64)]
    zero0, zero1 = [d for d in candidates if prf_split_block(prf, key, d, 1, 1)[0].uint == 0][:2]
    one = next(d for d in candidates if prf_split_block(prf, key, d, 1, 1)[0].uint == 1)
    marks = []
    miss = subvertlab.prf.MarkTable.__missing__
    monkeypatch.setattr(
        subvertlab.prf.MarkTable, "__missing__", lambda table, db: marks.append(1) or miss(table, db)
    )

    def run(am, stream, draw=None):
        subvertlab.prf._marks.clear()
        marks.clear()
        it = itertools.cycle(stream)
        draws = []

        def counted():
            draws.append(1)
            return next(it)

        doc = encode_step(prf, params, key, Bits(am, 1), draw(counted) if draw else counted)
        return doc, len(draws), len(marks)

    assert run(1, [zero0]) == (zero0, params.s + 1, 1)  # rejected: s+1 draws
    assert run(0, [zero0]) == (zero0, 1, 1)  # accepted: one draw
    assert run(1, [zero0, zero1]) == (zero1, params.s + 1, 2)
    # a repeated object, an equal copy and a return to an earlier document
    # are all skipped without a mark, until a document that marks 1
    stream = [zero0, zero0, Bits(zero0.uint, 16), zero1, zero0, one]
    assert run(1, stream) == (one, 6, 3)
    # in int form, an equal int that is not the same object is marked once
    # (values past 256 are not interned, and int(str(.)) builds a new one)
    wide = next(
        d for d in (Bits(v, 17) for v in range(2**16, 2**17))
        if prf_split_block(prf, key, d, 1, 1)[0].uint == 0
    )

    def int_form(counted):
        return IntDraw(lambda: int(str(counted().uint)), 17)

    assert run(1, [wide], int_form) == (wide, params.s + 1, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4),
    st.data(),
    st.integers(1, 6),
    st.lists(st.integers(0, 63), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_encode_and_decode_match_bit_string_reference(log_ml, data, s, pool, salt):
    ml = 2**log_ml
    block_bits = data.draw(st.integers(1, ml))
    params = StegoParams(ml=ml, s=s, outl=len(pool), kappa=64, block_bits=block_bits)
    prf = Prf(64)
    rng = random.Random(salt)
    key = Bits.random(64, rng)
    am = Bits.random(ml, rng)
    docs = [Bits(v, 6) for v in pool]

    def mark(doc):
        return prf.eval(key, doc).bin()

    draws = [docs[i % len(docs)] for i in range(s + 1)]
    want = oracles.rejsam_emit_index(mark, am.bin(), block_bits, params.n_slots, s, draws)
    # the same documents from a plain Bits closure and as ints (an IntDraw)
    for as_ints in (False, True):
        it = iter(draws)
        taken = []

        def counted():
            taken.append(1)
            return next(it)

        draw = IntDraw(lambda: counted().uint, 6) if as_ints else counted
        got = encode_step(prf, params, key, am, draw)
        assert got == draws[want] and len(taken) == want + 1

    decoded = rejsam_decode(prf, params, key, docs)
    ref = oracles.rejsam_decode_bits(mark, ml, block_bits, params.n_slots, docs)
    assert (decoded.bin() if decoded is not None else None) == ref


def test_decode_reference_covers_non_dyadic_slots():
    # 8 bits in 3-bit blocks: three slots, index field of two bits, value 3
    # out of range; a full table over 6-bit documents covers every slot
    params = StegoParams(ml=8, s=4, outl=64, kappa=64, block_bits=3)
    prf = Prf(64)
    key = Bits.random(64, random.Random(5))
    docs = [Bits(v, 6) for v in range(64)]
    decoded = rejsam_decode(prf, params, key, docs)
    ref = oracles.rejsam_decode_bits(
        lambda d: prf.eval(key, d).bin(), 8, 3, params.n_slots, docs
    )
    assert ref is not None and decoded.bin() == ref


def test_encode_all_validates_history_and_emitted_documents():
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=6, kappa=64))
    ch = uniform_channel(8)
    ak = steg.gen(substream(51, "k"))
    am = Bits.from_str("0110")
    with pytest.raises(InvalidHistoryError):
        encode_all(steg, ak, am, (Bits.zeros(8), Bits.zeros(7)), ch, substream(51))
    # an encoder that emits an off-grammar document is caught at the emission
    # that produced it, the last one included
    def short_last(ak, am, history, sigma, *, draw, rng=None):
        doc = draw()
        return (doc[:7] if len(history) == 5 else doc), sigma

    bad = dataclasses.replace(steg, enc=short_last)
    with pytest.raises(InvalidHistoryError, match="position 5"):
        encode_all(bad, ak, am, (), ch, substream(51))
    # on a session channel the start history is checked against each role
    ses = randpad_scheme(4, 16, ml=4)
    sch = ses_channel(ses, 2)
    with pytest.raises(InvalidHistoryError):
        encode_all(steg, ak, am, (Bits.zeros(16), Bits.zeros(8)), sch, substream(51))


def test_encode_step_rejects_wrong_message_length():
    params = StegoParams(ml=4, s=4, outl=4, kappa=64)
    with pytest.raises(ParameterError):
        encode_step(Prf(64), params, Bits.zeros(64), Bits.zeros(3), lambda: Bits.zeros(16))


def test_point_draw_is_the_loop_after_every_argument_check():
    # a coin-free host's emission (schemes.PointDraw) is its point, without
    # a draw: the same document the loop emits when every draw repeats it,
    # and only once the arguments pass the checks the loop's draws meet
    params = StegoParams(ml=4, s=4, outl=4, kappa=64)
    prf, key, rng = Prf(64), Bits.random(64, random.Random(3)), random.Random(4)
    for _ in range(16):
        doc, am = Bits.random(16, rng), Bits.random(4, rng)
        assert encode_step(prf, params, key, am, PointDraw(doc)) is doc
        assert encode_step(prf, params, key, am, lambda: doc) is doc
    doc = Bits.zeros(16)
    no_slots = types.SimpleNamespace(ml=4, s=4, block_bits=1, n_slots=0)
    wide = StegoParams(ml=512, s=4, outl=4, kappa=64, block_bits=256)
    for draw in (PointDraw(doc), lambda: doc):
        with pytest.raises(ParameterError, match="hidden message"):
            encode_step(prf, params, key, Bits.zeros(3), draw)
        with pytest.raises(ParameterError, match="key must have"):
            encode_step(prf, params, Bits.zeros(63), Bits.zeros(4), draw)
        with pytest.raises(ParameterError, match="too short"):  # a 257-bit split
            encode_step(prf, wide, key, Bits.zeros(512), draw)
        with pytest.raises(ParameterError, match="positive"):
            encode_step(prf, no_slots, key, Bits.zeros(4), draw)


def test_a_bound_session_still_checks_every_other_argument():
    # encode_step keeps the checked binding of the last (prf, params, ak,
    # am) objects; after a valid emission, any other key or message object
    # is checked again, however its value compares
    params = StegoParams(ml=4, s=4, outl=4, kappa=64)
    prf, key, am = Prf(64), Bits.random(64, random.Random(5)), Bits(0b1010, 4)
    wide = StegoParams(ml=512, s=4, outl=4, kappa=64, block_bits=256)
    doc = Bits.zeros(16)
    for draw in (PointDraw(doc), lambda: doc):
        assert encode_step(prf, params, key, am, draw) is doc
        with pytest.raises(ParameterError, match="hidden message"):
            encode_step(prf, params, key, Bits(0b101, 3), draw)
        with pytest.raises(ParameterError, match="key must have"):
            encode_step(prf, params, Bits(key.uint >> 1, 63), am, draw)
        with pytest.raises(ParameterError, match="key must have"):
            encode_step(Prf(32), params, key, am, draw)
        with pytest.raises(ParameterError, match="too short"):
            encode_step(prf, wide, key, Bits.zeros(512), draw)
        assert encode_step(prf, params, key, am, draw) is doc


def test_alternating_sessions_emit_what_fresh_bindings_emit():
    # three sessions interleaved emission by emission, each sharing its key
    # or its message object with another, against the same emissions bound
    # from scratch each time (equal copies of every argument miss the
    # binding)
    params = StegoParams(ml=8, s=16, outl=24, kappa=64, block_bits=2)
    prf = Prf(64)
    key = Bits.random(64, random.Random(6))
    other = Bits.random(64, random.Random(7))
    am = Bits(0xA5, 8)
    pairs = [(key, am), (key, Bits(0x3C, 8)), (other, am)]

    def emissions(fresh):
        rng = random.Random(8)
        docs = []
        for i in range(3 * params.outl):
            ak, am = pairs[i % len(pairs)]
            if fresh:
                ak, am = Bits(ak.uint, len(ak)), Bits(am.uint, len(am))
            if i == params.outl:  # a bound table outlives its eviction
                subvertlab.prf._marks.clear()
            docs.append(encode_step(prf, params, ak, am, lambda: Bits.random(12, rng)))
        return docs, rng.getstate()

    assert emissions(fresh=False) == emissions(fresh=True)


def test_decode_last_write_wins_and_none_when_uncovered():
    params = StegoParams(ml=2, s=4, outl=4, kappa=64)
    prf = Prf(64)
    key = Bits.random(64, random.Random(1))
    d00 = find_doc(prf, key, params, 0, 0)
    d10 = find_doc(prf, key, params, 1, 0)
    d01 = find_doc(prf, key, params, 0, 1)
    d11 = find_doc(prf, key, params, 1, 1)
    assert rejsam_decode(prf, params, key, [d00, d01, d10, d01]) == Bits.from_str("10")
    assert rejsam_decode(prf, params, key, [d10, d11, d01, d00]) == Bits.from_str("00")
    # slot 1 never written
    assert rejsam_decode(prf, params, key, [d00, d10, d00, d10]) is None
    with pytest.raises(WrongDocumentCountError):
        rejsam_decode(prf, params, key, [d00, d01])


def test_decode_binds_the_mark_table_once(monkeypatch):
    # one split_marker call per decode, and one HMAC per distinct document
    # bytes, however often and in whatever Bits form a document repeats
    params = StegoParams(ml=4, s=4, outl=40, kappa=64)
    prf, key = Prf(64), Bits.random(64, random.Random(8))  # its marks cover every slot
    distinct = [Bits(v, 16) for v in range(0, 7 * 4104, 4104)]  # low 3 bits zero
    # a 13-bit document pads to the same bytes as the 16-bit one it prefixes
    alias = Bits(distinct[3].uint >> 3, 13)
    assert alias.to_bytes() == distinct[3].to_bytes() and alias != distinct[3]
    docs = [alias if i % 9 == 4 else distinct[(i * 5) % 7] for i in range(params.outl)]
    binds, macs = [], []
    bind = subvertlab.stego.split_marker
    monkeypatch.setattr(subvertlab.stego, "split_marker", lambda *a: binds.append(1) or bind(*a))
    miss = subvertlab.prf.MarkTable.__missing__
    monkeypatch.setattr(
        subvertlab.prf.MarkTable, "__missing__", lambda table, db: macs.append(1) or miss(table, db)
    )
    subvertlab.prf._marks.clear()
    got = rejsam_decode(prf, params, key, docs)
    assert (len(binds), len(macs)) == (1, len(distinct))
    slots = {}
    for doc in docs:
        value, j = prf_split_block(prf, key, doc, params.block_bits, params.n_slots)
        if j is not None:
            slots[j] = value.uint
    assert got == Bits(sum(slots[j] << (3 - j) for j in range(4)), 4)
    assert rejsam_decode(prf, params, key, docs) == got
    assert (len(binds), len(macs)) == (2, len(distinct))


def test_decode_checks_the_document_count_before_the_key():
    params = StegoParams(ml=4, s=4, outl=8, kappa=64)
    prf, short_key = Prf(64), Bits.zeros(63)
    with pytest.raises(WrongDocumentCountError):
        rejsam_decode(prf, params, short_key, [Bits.zeros(16)] * 7)
    with pytest.raises(ParameterError, match="key must have"):
        rejsam_decode(prf, params, short_key, [Bits.zeros(16)] * 8)


def test_system_construction_checks():
    params = StegoParams(ml=8, s=8, outl=8, kappa=128)
    steg = rejsam_system(params)
    assert steg.prf is not None and steg.prf.key_bits == 128
    assert steg.describe()["system"] == "rejsam"
    ak = steg.gen(random.Random(2))
    assert len(ak) == 128


def test_roundtrip_bit_variant():
    steg = rejsam_system(StegoParams(ml=8, s=64, outl=64, kappa=128))
    ch = uniform_channel(8)
    failures = 0
    for t in range(200):
        rng = substream(42, "rt", t)
        ak = steg.gen(rng)
        am = Bits.random(8, rng)
        docs = encode_all(steg, ak, am, (), ch, rng)
        assert len(docs) == 64 and all(len(d) == 8 for d in docs)
        got = steg.dec(ak, docs)
        if got is None:
            failures += 1
        else:
            assert got == am  # a covered message never decodes wrong
    # finite-table model predicts about 0.9% misses; allow a wide margin
    assert failures <= 10, f"{failures} misses vs model {oracles.coupon_fail_refined(16, 8, 64):.4f}"


def test_roundtrip_block_variant():
    params = StegoParams(ml=8, s=64, outl=outl_for(8, block_bits=2), kappa=128, block_bits=2)
    steg = rejsam_system(params)
    ch = uniform_channel(16)
    ok = 0
    for t in range(100):
        rng = substream(43, "blk", t)
        ak = steg.gen(rng)
        am = Bits.random(8, rng)
        docs = encode_all(steg, ak, am, (), ch, rng)
        ok += steg.dec(ak, docs) == am
    assert ok >= 97


def test_roundtrip_block_variant_with_padding():
    # 8 bits in 3-bit blocks: three slots, one of them half padding
    params = StegoParams(ml=8, s=128, outl=outl_for(8, block_bits=3), kappa=128, block_bits=3)
    steg = rejsam_system(params)
    ch = uniform_channel(16)
    ok = 0
    for t in range(60):
        rng = substream(44, "pad", t)
        ak = steg.gen(rng)
        am = Bits.random(8, rng)
        got = steg.dec(ak, encode_all(steg, ak, am, (), ch, rng))
        assert got is None or len(got) == 8
        ok += got == am
    assert ok >= 57


def test_emission_distribution_matches_closed_form():
    """The per-key distribution of one emission has an exact closed form:
    accepted documents share the rejection mass, everything else keeps the
    residual (1-alpha)^s sliver. Chi-square at a pinned seed."""
    params = StegoParams(ml=2, s=3, outl=4, kappa=64)
    prf = Prf(64)
    rng = substream(45, "dist")
    key = Bits.random(64, rng)
    am = Bits.from_str("10")
    doc_bits, n_docs = 6, 64
    accept = set()
    for v in range(n_docs):
        value, j = prf_split_block(prf, key, Bits(v, doc_bits), 1, 2)
        if j is not None and value.uint == am[j]:
            accept.add(v)
    pmf = oracles.rejsam_emit_pmf(accept, n_docs, params.s)
    assert sum(pmf.values()) == 1
    ch = uniform_channel(doc_bits)
    n = 20_000
    counts = [0] * n_docs
    for _ in range(n):
        doc = encode_step(prf, params, key, am, lambda: channel_sample(ch, (), rng))
        counts[doc.uint] += 1
    stat = sum((counts[v] - n * float(pmf[v])) ** 2 / (n * float(pmf[v])) for v in range(n_docs))
    assert stat < oracles.chi2_quantile_exact(n_docs - 1, 0.9999)


def test_the_encoder_sees_one_history_object_per_session():
    # encode_all and encode_schedule hand every emission the session's one
    # history list, grown by each document emitted before it, not a copy
    # per emission; the caller's start history is left as it was
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=6, kappa=64))
    seen = []

    def recording(ak, am, history, sigma, *, draw, rng=None):
        seen.append((history, list(history)))
        return steg.enc(ak, am, history, sigma, draw=draw, rng=rng)

    spy = dataclasses.replace(steg, enc=recording)
    ch = ses_channel(randpad_scheme(4, 16, ml=8), 2)
    start = channel_walk(ch, 3, substream(52, "h"))
    ak, am = steg.gen(substream(52, "k")), Bits.from_str("0110")
    runs = {  # encode_schedule always starts at the empty history
        "encode_all": (start, lambda: encode_all(spy, ak, am, start, ch, substream(52))),
        "encode_schedule": ((), lambda: encode_schedule(spy, ak, am, [2, 1, 3], ch, substream(52))),
    }
    for name, (begin, run) in runs.items():
        seen.clear()
        docs = run()
        full = [*begin, *docs]
        assert len({id(history) for history, _ in seen}) == 1, name
        assert seen[0][0] is not begin and seen[0][0] == full, name
        assert [prefix for _, prefix in seen] == [full[:n] for n in range(len(begin), len(full))]
    assert docs == encode_all(steg, ak, am, (), ch, substream(52)) and len(start) == 3


def test_encode_all_emits_outl_documents_threading_state_from_none():
    # encode_all starts one state at None and threads it through all outl
    # emissions; encode_schedule restarts it at None at every segment
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=6, kappa=64))
    states = []

    def counting(ak, am, history, sigma, *, draw, rng=None):
        states.append(sigma)
        doc, _ = steg.enc(ak, am, history, sigma, draw=draw, rng=rng)
        return doc, (0 if sigma is None else sigma) + 1

    spy = dataclasses.replace(steg, enc=counting)
    ch = uniform_channel(8)
    ak, am = steg.gen(substream(53, "k")), Bits.from_str("1001")
    docs = encode_all(spy, ak, am, (), ch, substream(53))
    assert len(docs) == 6 and states == [None, 1, 2, 3, 4, 5]
    assert docs == encode_all(steg, ak, am, (), ch, substream(53))
    states.clear()
    encode_schedule(spy, ak, am, [2, 1, 3], ch, substream(53))
    assert states == [None, 1, None, None, 1, 2]


def test_schedule_validation_and_equivalence():
    steg = rejsam_system(StegoParams(ml=4, s=16, outl=12, kappa=64))
    ch = uniform_channel(8)
    ak = steg.gen(substream(47, "k"))
    am = Bits.from_str("1011")
    with pytest.raises(ScheduleError):
        encode_schedule(steg, ak, am, [4, 4], ch, substream(47, 0))
    with pytest.raises(ScheduleError):
        encode_schedule(steg, ak, am, [6, 0, 6], ch, substream(47, 0))
    # the encoder is stateless and the channel ignores history, so any
    # segmentation of the same stream emits identical documents
    whole = encode_schedule(steg, ak, am, [12], ch, substream(47, 1))
    pieces = encode_schedule(steg, ak, am, [1] * 12, ch, substream(47, 1))
    mixed = encode_schedule(steg, ak, am, [3, 4, 5], ch, substream(47, 1))
    assert whole == pieces == mixed
    assert steg.dec(ak, whole) == am


def test_reboot_estimator_deterministic_and_reliable():
    steg = rejsam_system(StegoParams(ml=8, s=64, outl=64, kappa=128))
    ch = uniform_channel(8)
    r1 = estimate_unrel_reboot(steg, ch, 40, seed=48, schedules=[[16] * 4])
    r2 = estimate_unrel_reboot(steg, ch, 40, seed=48, schedules=[[16] * 4])
    assert r1 == r2
    assert r1.p_hat >= 0.9
    r3 = estimate_unrel_reboot(steg, ch, 40, seed=48)  # random compositions
    assert r3.config["schedules"] == "random-compositions"
    assert r3.p_hat >= 0.9


def test_unrel_estimator_sampled_histories():
    steg = rejsam_system(StegoParams(ml=4, s=32, outl=16, kappa=64))
    ch = uniform_channel(8)
    rep = estimate_unrel_stego(steg, ch, 40, seed=49, history_mode="sampled")
    assert rep.p_hat >= 0.9
    assert rep.config["history_mode"] == "sampled"


def test_coupon_oracle_self_check():
    # freeze the reference arithmetic the reliability claims lean on
    assert float(oracles.coupon_fail_exact(8, 64)) == pytest.approx(0.0015544, abs=2e-6)
    assert float(oracles.coupon_fail_exact(11, 64)) == pytest.approx(0.0245297, abs=2e-6)
    assert float(oracles.coupon_fail_exact(11, 66)) == pytest.approx(0.0202946, abs=2e-6)
    assert oracles.coupon_fail_exact(2, 1) == Fraction(1)
    assert oracles.expected_draws(0.5, 64) == pytest.approx(2.0, abs=1e-9)
    refined = oracles.coupon_fail_refined(16.0, 8, 64)
    assert 0.008 < refined < 0.011  # finite 8-bit table inflates 0.0016 to ~0.009


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10**6))
def test_roundtrip_property(msg, salt):
    steg = rejsam_system(StegoParams(ml=2, s=48, outl=24, kappa=64))
    ch = uniform_channel(8)
    rng = substream(50, salt)
    ak = steg.gen(rng)
    am = Bits(msg, 2)
    assert steg.dec(ak, encode_all(steg, ak, am, (), ch, rng)) == am

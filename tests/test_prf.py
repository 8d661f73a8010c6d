import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from subvertlab import Bits, ParameterError, Prf, is_power_of_two, prf_split_block
from subvertlab import prf as prf_module
from subvertlab.prf import hmac_sha256


def test_matches_rfc4231_vectors():
    for key, msg, digest in (oracles.RFC4231_CASE1, oracles.RFC4231_CASE2):
        prf = Prf(8 * len(key))
        out = prf.eval(Bits.from_bytes(key), Bits.from_bytes(msg))
        assert out.hex() == digest
        assert oracles.manual_hmac_sha256(key, msg).hex() == digest


def test_matches_manual_hmac_on_random_inputs():
    rng = random.Random(202)
    prf = Prf(128)
    for _ in range(25):
        key = Bits.random(128, rng)
        doc = Bits.random(8 * rng.randrange(1, 12), rng)
        assert prf.eval(key, doc).to_bytes() == oracles.manual_hmac_sha256(
            key.to_bytes(), doc.to_bytes()
        )


def test_frozen_project_vector():
    prf = Prf(128)
    key = Bits.from_bytes(oracles.VECTOR_KEY)
    doc = Bits.from_bytes(oracles.VECTOR_DOC)
    assert prf.eval(key, doc).hex() == oracles.VECTOR_DIGEST
    for ml, expected in ((16, oracles.VECTOR_SPLIT_ML16), (8, oracles.VECTOR_SPLIT_ML8)):
        value, j = prf_split_block(prf, key, doc, 1, ml)
        assert (value.uint, j) == expected
    value, j = prf_split_block(prf, key, doc, 6, 11)
    assert (value.uint, j) == oracles.VECTOR_BLOCK_6_11


def test_split_reads_msb_prefix():
    prf = Prf(64)
    rng = random.Random(9)
    for _ in range(20):
        key, doc = Bits.random(64, rng), Bits.random(32, rng)
        out = prf.eval(key, doc)
        bit, j = prf_split_block(prf, key, doc, 1, 16)
        assert bit.uint == out[0]
        assert j == out[1:5].uint
        value, jb = prf_split_block(prf, key, doc, 3, 4)
        assert value == out[0:3]
        assert jb == out[3:5].uint  # 4 slots: always in range


def test_block_split_skips_out_of_range():
    # 3 slots need a 2-bit index; index 3 must come back as None, and the
    # remaining indices must each actually occur.
    prf = Prf(64)
    rng = random.Random(5)
    key = Bits.random(64, rng)
    seen = set()
    raw_high = 0
    for i in range(400):
        doc = Bits(i, 16)
        value, j = prf_split_block(prf, key, doc, 2, 3)
        out = prf.eval(key, doc)
        raw = out[2:4].uint
        assert j == (raw if raw < 3 else None)
        raw_high += raw == 3
        seen.add(j)
        assert len(value) == 2
    assert seen == {None, 0, 1, 2}
    assert raw_high > 0


def test_block_split_degenerate_single_slot():
    prf = Prf(64)
    value, j = prf_split_block(prf, Bits.zeros(64), Bits.zeros(8), 4, 1)
    assert j == 0 and len(value) == 4


def test_key_length_enforced():
    prf = Prf(128)
    with pytest.raises(ParameterError):
        prf.eval(Bits.zeros(64), Bits.zeros(8))
    with pytest.raises(ParameterError):
        Prf(0)
    with pytest.raises(ParameterError):
        prf_split_block(prf, Bits.zeros(128), Bits.zeros(8), 255, 4)  # 255+2 > 256


def test_slot_distribution_is_balanced():
    # chi-square over the 16 (bit, slot) cells at ml=8; threshold from the
    # exact quantile so a systematic skew fails loudly
    prf = Prf(128)
    key = Bits.from_bytes(oracles.VECTOR_KEY)
    counts = [0] * 16
    n = 4096
    for i in range(n):
        bit, j = prf_split_block(prf, key, Bits(i, 16), 1, 8)
        counts[bit.uint * 8 + j] += 1
    expected = n / 16
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < oracles.chi2_quantile_exact(15, 0.9999)


def test_is_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2**20))
def test_power_of_two_matches_bit_count(n):
    assert is_power_of_two(n) == (bin(n).count("1") == 1)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=130), st.binary(max_size=300))
@example(bytes(range(64)), b"")  # a key of exactly one block is used as is
@example(bytes(range(65)), b"m")  # one byte longer and it is hashed first
def test_hmac_sha256_matches_its_definition(key, msg):
    assert hmac_sha256(key, msg) == oracles.manual_hmac_sha256(key, msg)
    assert hmac_sha256(key, msg) == oracles.manual_hmac_sha256(key, msg)  # from the memo


def test_hmac_sha256_every_key_length_to_130_bytes():
    for n in range(131):
        key = bytes((7 * i + n) & 0xFF for i in range(n))
        assert hmac_sha256(key, b"doc") == oracles.manual_hmac_sha256(key, b"doc"), n


def test_hmac_pad_memo_stays_bounded():
    cap = prf_module._PAD_MEMO
    keys = [i.to_bytes(4, "big") for i in range(3 * cap)]
    for key in keys:
        hmac_sha256(key, b"x")
        assert len(prf_module._pads) <= cap
    assert keys[-1] in prf_module._pads and keys[0] not in prf_module._pads
    # an evicted key is rebuilt and still gives the right digest
    assert hmac_sha256(keys[0], b"x") == oracles.manual_hmac_sha256(keys[0], b"x")
    assert len(prf_module._pads) == cap


def _manual_split(key, doc, block_bits, n_slots):
    digest = oracles.manual_hmac_sha256(key.to_bytes(), doc.to_bytes())
    out = format(int.from_bytes(digest, "big"), "0256b")
    value, j = oracles.rejsam_mark_bits(out, block_bits, n_slots)
    return int(value, 2), j


def test_mark_tables_match_manual_split_on_every_call(monkeypatch):
    # one key under two (block_bits, n_slots) pairs: each pair has its own
    # table, and a repeated document costs no HMAC and returns its first mark
    prf_module._marks.clear()
    macs = []
    monkeypatch.setattr(prf_module, "hmac_sha256", lambda *a: macs.append(1) or hmac_sha256(*a))
    prf = Prf(64)
    key = Bits.random(64, random.Random(31))
    docs = [Bits(v, 24) for v in range(0, 3000, 97)]
    splits = ((1, 16), (3, 5))
    first = {}
    for _ in range(2):
        for doc in docs:
            for block_bits, n_slots in splits:
                mark = prf_split_block(prf, key, doc, block_bits, n_slots)
                value, j = mark
                assert (value.uint, j) == _manual_split(key, doc, block_bits, n_slots)
                assert len(value) == block_bits
                assert first.setdefault((doc, block_bits), mark) == mark
        assert len(macs) == len(docs) * len(splits)


def test_mark_tables_stay_bounded_and_rebuild_right(monkeypatch):
    prf_module._marks.clear()
    monkeypatch.setattr(prf_module, "TABLE_ENTRIES", 3)
    prf = Prf(32)
    keys = [Bits(7919 * i + 1, 32) for i in range(prf_module.TABLE_KEYS + 2)]

    def right(key, doc):
        value, j = prf_split_block(prf, key, doc, 1, 16)
        return (value.uint, j) == _manual_split(key, doc, 1, 16)

    doc = Bits(0xBEEF, 16)
    for key in keys:
        assert right(key, doc)
        assert len(prf_module._marks) <= prf_module.TABLE_KEYS
    held = [kb for kb, _, _ in prf_module._marks]
    assert held == [key.to_bytes() for key in keys[-prf_module.TABLE_KEYS :]]
    # an evicted key's table is rebuilt, and its marks are still right
    assert right(keys[0], doc)
    table = prf_module._marks[keys[0].to_bytes(), 1, 16]
    # a table that reaches TABLE_ENTRIES entries is emptied, then refilled
    sizes = []
    for v in range(7):
        assert right(keys[0], Bits(v, 16))
        sizes.append(len(table))
    assert sizes == [2, 3, 1, 2, 3, 1, 2]
    assert right(keys[0], Bits(0, 16)) and right(keys[0], doc)


def test_split_checks_its_arguments_on_every_call():
    prf = Prf(64)
    key = Bits(0xC0FFEE << 8, 64)
    short_key = Bits(key.uint >> 1, 63)
    assert short_key.to_bytes() == key.to_bytes()  # same bytes, same table
    doc = Bits(0x1234, 16)
    good = prf_split_block(prf, key, doc, 4, 8)
    for _ in range(2):
        for bad in (
            lambda: prf_split_block(prf, key, doc, 0, 8),
            lambda: prf_split_block(prf, key, doc, 4, 0),
            lambda: prf_split_block(prf, key, doc, 256, 2),
            lambda: prf_split_block(Prf(63), key, doc, 4, 8),
            lambda: prf_split_block(prf, short_key, doc, 4, 8),
        ):
            with pytest.raises(ParameterError):
                bad()
        assert prf_split_block(prf, key, doc, 4, 8) == good


def test_documents_with_equal_padded_bytes_mark_the_same():
    prf = Prf(64)
    key = Bits.random(64, random.Random(41))
    for pair in ((Bits(0b1011, 4), Bits(0b10110000, 8)), (Bits(0x1FF, 9), Bits(0xFF80, 16))):
        assert pair[0].to_bytes() == pair[1].to_bytes()
        for docs in (pair, pair[::-1]):
            prf_module._marks.clear()
            marks = [prf_split_block(prf, key, doc, 2, 16) for doc in docs]
            assert marks[0] == marks[1]
            assert (marks[0][0].uint, marks[0][1]) == _manual_split(key, docs[0], 2, 16)

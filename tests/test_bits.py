import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subvertlab import Bits, LengthMismatchError, ParameterError
from subvertlab.bits import decode_history, encode_history


def test_construction_bounds():
    assert Bits(5, 3).bin() == "101"
    assert len(Bits.zeros(10)) == 10
    assert Bits.zeros(0).hex() == ""
    with pytest.raises(ParameterError):
        Bits(8, 3)  # 1000 needs four bits
    with pytest.raises(ParameterError):
        Bits(-1, 3)
    with pytest.raises(ParameterError):
        Bits(0, -1)


def test_msb_first_indexing():
    b = Bits.from_str("10110")
    assert [b[i] for i in range(5)] == [1, 0, 1, 1, 0]
    assert b[-1] == 0 and b[-5] == 1
    assert b[1:4].bin() == "011"
    assert b[3:3].bin() == ""
    with pytest.raises(IndexError):
        b[5]
    with pytest.raises(ParameterError):
        b[::2]


def test_bytes_and_hex_roundtrip():
    b = Bits.from_bytes(b"\xa5\x0f")
    assert b.hex() == "a50f" and len(b) == 16
    # sub-byte lengths take the most significant bits and pad right on output
    assert Bits.from_bytes(b"\xa5", 4).bin() == "1010"
    assert Bits.from_str("101").hex() == "a0"
    assert Bits.from_hex("a50f", 12).bin() == "101001010000"
    with pytest.raises(ParameterError):
        Bits.from_bytes(b"\xa5", 9)


def test_concat_xor_join():
    a, b = Bits.from_str("1010"), Bits.from_str("0110")
    assert (a + b).bin() == "10100110"
    assert (a ^ b).bin() == "1100"
    assert Bits.join([a, b, Bits.zeros(0)]).bin() == "10100110"
    with pytest.raises(LengthMismatchError):
        a ^ Bits.from_str("10")


def test_equality_and_hash():
    assert Bits.from_str("0010") == Bits(2, 4)
    assert Bits.from_str("10") != Bits.from_str("010")  # length matters
    assert Bits.from_str("10") != "10"
    assert len({Bits(2, 4), Bits.from_str("0010")}) == 1


def test_random_is_rng_driven():
    assert Bits.random(64, random.Random(7)) == Bits.random(64, random.Random(7))
    assert Bits.random(64, random.Random(7)) != Bits.random(64, random.Random(8))
    assert Bits.random(0, random.Random(7)) == Bits.zeros(0)


def test_immutability():
    b = Bits(1, 2)
    with pytest.raises(AttributeError):
        b._v = 3


def test_history_codec_roundtrip():
    docs = (Bits.from_str("101"), Bits.zeros(0), Bits.from_hex("beef", 16))
    assert decode_history(encode_history(docs)) == docs


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=24))
def test_bytes_roundtrip_property(data):
    assert Bits.from_bytes(data).to_bytes() == data


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48 - 1), st.integers(0, 2**48 - 1))
def test_xor_properties(x, y):
    a, b = Bits(x, 48), Bits(y, 48)
    assert (a ^ b) ^ b == a
    assert a ^ a == Bits.zeros(48)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="01", max_size=12), max_size=6))
def test_join_matches_concat_property(parts):
    bits = [Bits.from_str(p) for p in parts]
    joined = Bits.join(bits)
    assert len(joined) == sum(len(p) for p in bits)
    assert joined.bin() == "".join(parts)


@given(st.integers(0, 300).flatmap(lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))))
def test_pickle_roundtrip(value_nbits):
    b = Bits(*value_nbits)
    again = pickle.loads(pickle.dumps(b))
    assert again == b and type(again) is Bits
    assert (again.uint, len(again)) == value_nbits

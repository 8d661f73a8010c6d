import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subvertlab import (
    Bits,
    LengthMismatchError,
    ParameterError,
    StegoParams,
    asa_from_stego,
    det_scheme,
    estimate_unrel,
    rejsam_system,
)
from subvertlab.bits import _EMPTY


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
    with pytest.raises(ParameterError):
        Bits(1 << 64, 64)
    # bools and int subclasses are coerced to plain ints
    class Width(int):
        pass

    b = Bits(True, Width(3))
    assert b == Bits(1, 3) and type(b.uint) is int and type(len(b)) is int


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
    # a zero-length draw is the empty string and consumes no RNG state
    rng = random.Random(7)
    state = rng.getstate()
    assert Bits.random(0, rng) == Bits(0, 0) and len(Bits.random(0, rng)) == 0
    assert rng.getstate() == state


def test_interned_draws_match_plain_draws():
    # the same getrandbits call and value as Bits(getrandbits(n), n), and the
    # same generator state after it; n = 0 takes no state at all
    for n in range(11):
        for seed in range(200):
            r1, r2 = random.Random(seed), random.Random(seed)
            b = Bits.random(n, r1)
            if n == 0:
                assert b is _EMPTY
            else:
                assert b == Bits(r2.getrandbits(n), n)
            assert r1.getstate() == r2.getstate(), (n, seed)


def test_draws_are_shared_exactly_for_widths_1_to_8():
    for n in range(1, 11):
        for seed in range(20):
            a, b = Bits.random(n, random.Random(seed)), Bits.random(n, random.Random(seed))
            assert a == b and (a is b) == (n <= 8), (n, seed)
            assert (Bits.of(a.uint, n) is a) == (n <= 8)
    assert all(Bits.of(v, n) is Bits.of(v, n) for n in range(1, 9) for v in range(1 << n))
    assert Bits.of(0, 0) == _EMPTY and Bits(3, 2) is not Bits(3, 2)
    # a width that is not an int keeps the plain path, as at any other width
    assert Bits.random(True, random.Random(1)) is not Bits.random(True, random.Random(1))


@settings(max_examples=200, deadline=None)
@given(
    nbits=st.one_of(st.just(0), st.integers(1, 8), st.integers(9, 70), st.just(True)),
    count=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
def test_randoms_is_the_random_loop(nbits, count, seed):
    bulk_rng, loop_rng = random.Random(seed), random.Random(seed)
    bulk = Bits.randoms(nbits, count, bulk_rng)
    loop = [Bits.random(nbits, loop_rng) for _ in range(count)]
    assert type(bulk) is list and bulk == loop
    assert bulk_rng.getstate() == loop_rng.getstate()
    # the loop's shared instances (int widths 0..8) and nothing else; True
    # is not an int width, so it builds every string, as the loop does
    shared = nbits.__class__ is int and nbits <= 8
    assert all((a is b) == shared for a, b in zip(bulk, loop))


def test_small_slices_are_the_shared_instances():
    # a slice of 1 to 8 bits is the table's instance, with the value a slice
    # built fresh from the bit string's digits has
    rng = random.Random(4)
    for n in (0, 1, 5, 8, 9, 13, 24):
        for b in (Bits.random(n, rng), Bits.zeros(n), Bits((1 << n) - 1, n)):
            for start in range(-n, n + 1):
                for stop in range(-n, n + 1):
                    piece, digits = b[start:stop], b.bin()[start:stop]
                    assert piece == Bits.from_str(digits), (b, start, stop)
                    assert (piece is Bits.of(piece.uint, len(digits))) == (1 <= len(digits) <= 8)


def test_random_refuses_bad_widths_as_getrandbits_does():
    for nbits in (-1, -9, 3.0, 3.5, "3", None):
        with pytest.raises(Exception) as plain:
            random.Random(0).getrandbits(nbits)
        with pytest.raises(plain.type) as ours:
            Bits.random(nbits, random.Random(0))
        assert str(ours.value) == str(plain.value), nbits


def _outcome(make, value, nbits):
    try:
        b = make(value, nbits)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    assert type(b.uint) is int and type(b.nbits) is int
    return (b.uint, b.nbits)


def test_of_accepts_and_refuses_what_bits_does():
    values = [-300, -2, -1, 0, 1, 2, 5, 7, 8, 255, 256, 511, 1 << 20]
    values += [True, False, 3.0, 3.9, -0.5, "3", "x", None, 2**64]
    widths = [-1, 0, 1, 2, 3, 8, 9, 10, 64, True, False, 3.0, 2.5, "4", None]
    for value in values:
        for nbits in widths:
            assert _outcome(Bits.of, value, nbits) == _outcome(Bits, value, nbits), (value, nbits)


def test_pickled_shared_instance_is_an_equal_value():
    shared = Bits.random(6, random.Random(5))
    assert Bits.random(6, random.Random(5)) is shared
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(shared, protocol))
        assert again == shared and type(again) is Bits
        assert (again.uint, again.nbits) == (shared.uint, 6)


def test_pointmass_trial_builds_almost_no_bits(monkeypatch):
    # An allocation pin on the point-mass path (the pointmass-unrel benchmark
    # workload): host inputs and det ciphertexts are shared values, so four
    # trials build 16 bit strings (1,689 when each was built fresh).
    built = []
    init = Bits.__init__

    def counted(self, value, nbits):
        built.append(nbits)
        init(self, value, nbits)

    steg = rejsam_system(StegoParams(ml=16, s=64, outl=256))
    det = det_scheme(16, ml=8)
    attack = asa_from_stego(steg, det)
    monkeypatch.setattr(Bits, "__init__", counted)
    estimate_unrel(attack, det, 4, 11)
    assert len(built) == 16


def test_immutability():
    b = Bits(1, 2)
    with pytest.raises(AttributeError):
        b.uint = 3
    with pytest.raises(AttributeError):
        b.nbits = 5
    with pytest.raises(AttributeError):
        b.extra = 1
    with pytest.raises(AttributeError):
        Bits.random(0, random.Random(0)).nbits = 1
    shared = Bits.random(3, random.Random(0))
    value = shared.uint
    with pytest.raises(AttributeError):
        shared.uint = value ^ 1
    with pytest.raises(AttributeError):
        shared.nbits = 4
    assert (b.uint, b.nbits, len(b)) == (1, 2, 2) and len(Bits.random(0, random.Random(0))) == 0
    assert Bits.random(3, random.Random(0)) is shared and (shared.uint, shared.nbits) == (value, 3)


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
    assert (b.uint, len(b)) == value_nbits
    assert Bits.from_bytes(b.to_bytes(), len(b)) == b
    again = pickle.loads(pickle.dumps(b))
    assert again == b and type(again) is Bits
    assert (again.uint, len(again)) == value_nbits


def test_from_hex_never_reads_the_pad_nibble():
    # odd-length hex is fine while nbits stops at or before its last digit
    assert Bits.from_hex("a", 4).bin() == "1010"
    assert Bits.from_hex("5", 3).bin() == "010"
    assert Bits.from_hex("abc", 12).hex() == "abc0" and len(Bits.from_hex("abc", 12)) == 12
    assert Bits.from_hex("abc", 0) == Bits.zeros(0)
    # ...and an error once the zero pad nibble would become data
    for text, nbits in (("abc", None), ("abc", 13), ("abc", 16), ("5", 8), ("5", None)):
        with pytest.raises(ParameterError, match="odd-length hex"):
            Bits.from_hex(text, nbits)
    # even-length hex is unchanged
    assert Bits.from_hex("ab").bin() == "10101011"
    assert Bits.from_hex(" 0a50 ", 12).bin() == "000010100101"

"""Decision rules of the stock adversaries, checked on crafted oracle stubs."""

import random

import pytest

from subvertlab import (
    Bits,
    ParameterError,
    alg_from_encryption,
    chi2_quantile,
    constant_guess,
    default_watchdogs,
    random_guess,
    randpad_scheme,
    repeat_attacker,
    repeat_warden,
    repeat_watchdog,
)
from subvertlab.adversaries import _chi2_guess, _collision_guess, _crafted_full_history

import oracles


def test_chi2_quantile_tracks_the_exact_values():
    # cube-root approximation: a few percent at one degree of freedom,
    # tight once the table gets wide
    for (df, q), exact in oracles.CHI2_TABLE.items():
        approx = chi2_quantile(df, q)
        assert approx == pytest.approx(exact, rel=0.03)
        if df >= 15:
            assert approx == pytest.approx(exact, rel=0.005)
    with pytest.raises(ParameterError):
        chi2_quantile(0)


def test_collision_and_frequency_decision_rules():
    a, b = Bits(5, 8), Bits(9, 8)
    assert _collision_guess([a, a]) == 0
    assert _collision_guess([a, b]) == 1

    threshold = chi2_quantile(3)
    skewed = [Bits(0, 8)] * 16  # all mass in one bin
    balanced = [Bits(v << 6, 8) for v in (0, 1, 2, 3)] * 4
    assert _chi2_guess(skewed, 4, threshold) == 0
    assert _chi2_guess(balanced, 4, threshold) == 1
    with pytest.raises(ParameterError):
        _chi2_guess(skewed, 3, threshold)
    with pytest.raises(ParameterError):
        _chi2_guess([Bits(0, 1)], 4, threshold)


class _StubScheme:
    ml = 8

    def gen(self, rng):
        return Bits.random(16, rng)


class _StubAlg:
    def secret_gen(self, rng):
        return Bits.random(16, rng)

    def input_gen(self, rng):
        return Bits.random(8, rng)


class _AlgView:
    """Algorithm-host watchdog view returning scripted outputs."""

    def __init__(self, outputs, alg):
        self.alg = alg
        self.asa_ml = 4
        self._outputs = iter(outputs)
        self.challenges = []

    def ch(self, am, s, x):
        self.challenges.append((s, x))
        return next(self._outputs)


def test_repeat_watchdog_serves_both_host_kinds():
    wd = repeat_watchdog()
    same = Bits(7, 8)
    # an encryption host reaches watchdogs as the randomized algorithm it is
    for alg in (_StubAlg(), alg_from_encryption(randpad_scheme(r=2, kappa=16))):
        colliding = _AlgView([same, same], alg)
        assert wd.strategy(colliding, random.Random(0)) == 0
        # the challenge input is repeated verbatim
        assert colliding.challenges[0] == colliding.challenges[1]
        fresh = _AlgView([Bits(1, 8), Bits(2, 8)], alg)
        assert wd.strategy(fresh, random.Random(0)) == 1


class _AttackView:
    def __init__(self, outputs):
        self.scheme = _StubScheme()
        self._outputs = iter(outputs)

    def enc(self, m):
        return next(self._outputs)


def test_repeat_attacker_reads_collisions_as_real():
    same = Bits(3, 10)
    assert repeat_attacker().strategy(_AttackView([same, same]), random.Random(0)) == 0
    distinct = [Bits(3, 10), Bits(4, 10)]
    assert repeat_attacker().strategy(_AttackView(distinct), random.Random(0)) == 1


class _WardenView:
    def __init__(self, descriptor, outputs):
        self.channel = type("C", (), {"descriptor": descriptor})()
        self.stego_ml = 4
        self._outputs = iter(outputs)
        self.histories = []

    def ch(self, am, history):
        self.histories.append(history)
        return next(self._outputs)


def test_warden_crafts_one_full_session_history():
    desc = {"ell": 3, "kappa": 16, "in_bits": 8}
    same = Bits(6, 12)
    view = _WardenView(desc, [same, same])
    assert repeat_warden().strategy(view, random.Random(1)) == 0
    h = view.histories[0]
    assert view.histories[1] == h  # identical challenge both times
    assert len(h) == 4 and len(h[0]) == 16 and all(len(x) == 8 for x in h[1:])

    # channels without a session shape are challenged at the empty history
    flat = _WardenView({"kind": "uniform", "nbits": 12}, [same, Bits(9, 12)])
    assert repeat_warden().strategy(flat, random.Random(1)) == 1
    assert flat.histories == [(), ()]
    assert _crafted_full_history(flat, random.Random(2)) == ()


def test_blind_guessers_and_rosters():
    constant = constant_guess("warden")
    assert constant.name == "constant-1" and constant.strategy(None, random.Random(0)) == 1
    assert random_guess().strategy(None, random.Random(0)) in (0, 1)
    roster = default_watchdogs()
    assert all(a.kind == "watchdog" for a in roster)
    names = [a.name for a in roster]
    assert len(names) == len(set(names))

"""Built-in adversaries for the games.

All of these are deliberately small-budget: a handful of oracle queries,
decision rules a reviewer can check by hand. They are meant to put honest
floors under "looks indistinguishable at desk scale" claims, and to light
up brightly on the fixtures that are supposed to be detectable (repeated
ciphertexts under a deterministic scheme, fabricated documents from a
forced-embedding attack).

Guess conventions: distinguishers return 0 for "the subverted / embedded /
real-encryption world" and 1 for the ideal or honest world. The repeat
rules key on output collisions, whose direction targets randomized hosts;
reports carry the normalized advantage |2p - 1|, so a rule that fires with
the opposite sign on some fixture still measures the same distinguishing
power.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

from .bits import Bits
from .errors import ParameterError
from .games import Adversary
from .prf import is_power_of_two
from .schemes import _signature_search

__all__ = [
    "chi2_quantile",
    "constant_guess",
    "random_guess",
    "repeat_attacker",
    "chi2_attacker",
    "repeat_watchdog",
    "chi2_watchdog",
    "repeat_warden",
    "chi2_warden",
    "replay_forger",
    "random_forger",
    "search_forger",
    "default_watchdogs",
]


def chi2_quantile(df: int, q: float = 0.95) -> float:
    """Chi-square quantile via the Wilson-Hilferty cube approximation."""
    if df < 1:
        raise ParameterError("df must be at least 1")
    z = NormalDist().inv_cdf(q)
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


def constant_guess() -> Adversary:
    """Ignores its oracles and always guesses 1; the exact-zero-advantage
    baseline."""
    return Adversary(
        name="constant-1",
        strategy=lambda view, rng: 1,
    )


def random_guess() -> Adversary:
    """Guesses by a fair coin; advantage zero in expectation."""
    return Adversary(
        name="coin-flip",
        strategy=lambda view, rng: rng.randrange(2),
    )


def _collision_guess(outputs) -> int:
    # collisions point at real/subverted worlds (guess 0) for randomized hosts
    return 0 if len(set(outputs)) < len(outputs) else 1


def _chi2_guess(outputs, bins: int, threshold: float) -> int:
    if not is_power_of_two(bins):
        raise ParameterError("bins must be a power of two")
    nbits = bins.bit_length() - 1
    if any(len(c) < nbits for c in outputs):
        raise ParameterError("documents shorter than the binning prefix")
    counts = [0] * bins
    for c in outputs:
        counts[c[:nbits].uint] += 1
    expected = len(outputs) / bins
    stat = sum((n - expected) ** 2 / expected for n in counts)
    return 0 if stat > threshold else 1


def _asked(ask, draw, rng: random.Random, queries: int, fresh: bool) -> list:
    """ask(x) `queries` times, at one drawn x or at a fresh x per query."""
    x = draw(rng)
    outputs = []
    for i in range(queries):
        if fresh and i:
            x = draw(rng)
        outputs.append(ask(x))
    return outputs


def _encryptions(view, rng: random.Random, queries: int, fresh: bool) -> list:
    """Ciphertexts of one message asked `queries` times, or of a fresh
    message per query."""
    ml = view.scheme.ml
    return _asked(view.enc, lambda r: Bits.random(ml, r), rng, queries, fresh)


def _challenge_outputs(view, rng: random.Random, queries: int, fresh: bool) -> list:
    """Challenge outputs under one hidden message and one secret: one input
    asked `queries` times, or a fresh input per query."""
    am = Bits.random(view.asa_ml, rng)
    s = view.alg.secret_gen(rng)
    return _asked(lambda x: view.ch(am, s, x), view.alg.input_gen, rng, queries, fresh)


def _crafted_full_history(view, rng: random.Random) -> tuple:
    desc = view.channel.descriptor
    ell = desc.get("ell")
    if ell is None:
        return ()
    key = Bits.random(desc["kappa"], rng)
    msg = Bits.random(desc["in_bits"], rng)
    return (key,) + (msg,) * ell


def _documents(view, rng: random.Random, queries: int) -> list:
    """Documents of one hidden message challenged `queries` times at one
    full history."""
    am = Bits.random(view.stego_ml, rng)
    h = _crafted_full_history(view, rng)
    return [view.ch(am, h) for _ in range(queries)]


def repeat_attacker(queries: int = 2) -> Adversary:
    """Asks for the same message twice; equal ciphertexts scream "real"."""
    return Adversary(
        name=f"repeat-{queries}",
        strategy=lambda view, rng: _collision_guess(_encryptions(view, rng, queries, False)),
    )


def chi2_attacker(queries: int = 16, bins: int = 4) -> Adversary:
    """Chi-square test on the leading ciphertext bits against uniform."""
    threshold = chi2_quantile(bins - 1)
    return Adversary(
        name=f"chi2-{queries}x{bins}",
        strategy=lambda view, rng: _chi2_guess(
            _encryptions(view, rng, queries, True), bins, threshold
        ),
    )


def repeat_watchdog(queries: int = 2) -> Adversary:
    """Repeats one challenge input and compares the outputs."""
    return Adversary(
        name=f"repeat-{queries}",
        strategy=lambda view, rng: _collision_guess(_challenge_outputs(view, rng, queries, False)),
    )


def chi2_watchdog(queries: int = 16, bins: int = 4) -> Adversary:
    """Bins the leading output bits over fresh challenge messages."""
    threshold = chi2_quantile(bins - 1)
    return Adversary(
        name=f"chi2-{queries}x{bins}",
        strategy=lambda view, rng: _chi2_guess(
            _challenge_outputs(view, rng, queries, True), bins, threshold
        ),
    )


def repeat_warden(queries: int = 2) -> Adversary:
    """Challenges one full history repeatedly and compares the documents."""
    return Adversary(
        name=f"repeat-{queries}",
        strategy=lambda view, rng: _collision_guess(_documents(view, rng, queries)),
    )


def chi2_warden(queries: int = 16, bins: int = 4) -> Adversary:
    """Bins leading document bits at one full history."""
    threshold = chi2_quantile(bins - 1)
    return Adversary(
        name=f"chi2-{queries}x{bins}",
        strategy=lambda view, rng: _chi2_guess(_documents(view, rng, queries), bins, threshold),
    )


def replay_forger() -> Adversary:
    """Replays a queried message; never a valid forgery, the zero baseline."""

    def strategy(view, rng: random.Random):
        m = Bits.random(view.params["ml"], rng)
        return m, view.sign(m)

    return Adversary(
        name="replay",
        strategy=strategy,
    )


def random_forger() -> Adversary:
    """Guesses a signature blind; succeeds at the tag-guessing floor."""

    def strategy(view, rng: random.Random):
        m = Bits.random(view.params["ml"], rng)
        sigl = view.params["r"] + view.params["t"]
        return m, Bits.random(sigl, rng)

    return Adversary(
        name="random-guess",
        strategy=strategy,
    )


def search_forger(budget: int = 512) -> Adversary:
    """Tries random signatures against the public verifier within a budget."""

    def strategy(view, rng: random.Random):
        m = Bits.random(view.params["ml"], rng)
        sigl = view.params["r"] + view.params["t"]
        sig = _signature_search(view.vrfy, view.search, view.pk, m, sigl, budget, rng)
        return None if sig is None else (m, sig)

    return Adversary(
        name=f"search-{budget}",
        strategy=strategy,
    )


def default_watchdogs() -> list[Adversary]:
    return [constant_guess(), repeat_watchdog(), chi2_watchdog()]

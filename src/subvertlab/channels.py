"""Document channels indexed by history.

A channel assigns to every valid history a distribution over next documents.
Histories here are recognized by pure length/count automata: a key, then a
fixed count of messages, then ciphertexts cycling through those messages.
Each channel states its grammar as a per-position rule, and a history is
valid when every position passes it. So every prefix of a valid history is
valid, and a valid history stays valid when a document that passes at its
own position is appended. Sampling never needs more than the published
per-role bit lengths.

ses_channel and rand_alg_channel are one builder's: the channel of a
randomized algorithm's runs, an encryption scheme being the algorithm
alg_from_encryption makes of it. Outputs are the host's explicit-coin runs,
so a seed-coupled run of channel_sample and of enc_sample is identical.

Each channel states its exact law once, as law_fn(history) -> (weights,
total): every possible next document's integer weight and their total. The
law is a count over uniform seeds: a key, an input or a uniform-channel
document weighs 1 of 2^bits, and an output weighs the number of the host's
2^coin_bits coin strings that give it (_run_law, the one enumerator of a
host's coins). channel_law(channel, history) is its one reader: it checks
the history and returns the whole law, so a position's law is built once
however many of its documents a caller weighs. min_entropy_exact reads it.

As in the Hopper-Langford-von Ahn model, the encoder samples the channel at
the current history, and the history is the channel's state. Every document
is drawn in a session (Channel.session(history, rng)): it validates the
start history once, keeps the history as one list, and checks each appended
document at its own position, so an append costs O(1) and no draw re-checks
the history. draw() is the next position's draw: an IntDraw, whose ints are
the values of the documents it draws, a PointDraw, whose every call is the
one document, or a callable whose documents are checked for width. The
uniform channel has one IntDraw per session. A cycle channel has an IntDraw
at its uniform inputs and, at its outputs, what schemes.emission_draw picks
for the slot's (key, input), built on the slot's first output and kept for
the session's lifetime. Draws take the same RNG calls as fresh runs of the
host, so a session draws what chained channel_sample calls draw.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .bits import Bits
from .errors import InvalidHistoryError, ParameterError
from .schemes import _ENUM_LIMIT, IntDraw, PointDraw, RandomizedAlgorithm, emission_draw
from .schemes import SymmetricEncryptionScheme, alg_from_encryption

__all__ = [
    "Channel",
    "channel_sample",
    "channel_walk",
    "check_history",
    "channel_law",
    "uniform_channel",
    "ses_channel",
    "rand_alg_channel",
    "MinEntropyReport",
    "min_entropy_exact",
    "min_entropy_estimate",
]


@dataclass(frozen=True)
class Channel:
    descriptor: dict
    max_doc_len: int
    accepts_at: Callable[[int, Bits], bool]  # may this document sit at this position?
    # rng -> (history -> the next document's draw); called once per session,
    # so whatever it builds lives as long as that session
    drawer: Callable[[random.Random], Callable[[Sequence[Bits]], Callable[[], Bits]]]
    # history -> (weights, total): the next document's exact law, each
    # possible document's integer weight out of total
    law_fn: Callable[[tuple], tuple[dict[Bits, int], int]]

    def grammar(self, history: Sequence[Bits]) -> bool:
        """A history is valid when every position accepts its document."""
        accepts_at = self.accepts_at
        return all(accepts_at(pos, doc) for pos, doc in enumerate(history))

    def session(self, history: Sequence[Bits], rng: random.Random) -> ChannelSession:
        """A walk of this channel on rng from a start history, validated here."""
        return ChannelSession(self, history, rng)


def check_history(channel: Channel, history: Sequence[Bits]) -> None:
    if not channel.grammar(history):
        raise InvalidHistoryError(f"history of length {len(history)} rejected by grammar")


def _width_checked(draw: Callable[[], Bits], max_doc_len: int) -> Bits:
    doc = draw()
    if len(doc) > max_doc_len:
        raise InvalidHistoryError("channel drew an oversized document")
    return doc


class ChannelSession:
    """The history of one walk of a channel on one rng, as a list that only
    grows: draw() gives the next position's draw, append(doc) adds a
    document that passes at its own position."""

    __slots__ = ("history", "_accepts_at", "_max_doc_len", "_draw_at")

    def __init__(self, channel: Channel, history: Sequence[Bits], rng: random.Random):
        self.history: list[Bits] = list(history)
        check_history(channel, self.history)
        self._accepts_at, self._max_doc_len = channel.accepts_at, channel.max_doc_len
        self._draw_at = channel.drawer(rng)

    def draw(self) -> Callable[[], Bits]:
        draw = self._draw_at(self.history)
        if isinstance(draw, IntDraw):
            width = draw.width
        elif isinstance(draw, PointDraw):
            width = len(draw.point)
        else:
            return functools.partial(_width_checked, draw, self._max_doc_len)
        if width > self._max_doc_len:
            raise InvalidHistoryError("channel drew an oversized document")
        return draw

    def append(self, doc: Bits) -> None:
        h = self.history
        if not self._accepts_at(len(h), doc):
            raise InvalidHistoryError(
                f"{len(doc)}-bit document rejected by grammar at position {len(h)}"
            )
        h.append(doc)


def channel_sample(channel: Channel, history: Sequence[Bits], rng: random.Random) -> Bits:
    """Draw the next document for a history, validating the history first."""
    return channel.session(history, rng).draw()()


def channel_walk(
    channel: Channel, depth: int, rng: random.Random, history: Sequence[Bits] = ()
) -> tuple:
    """Extend a history by `depth` documents sampled one after another, in
    one session: the same documents, from the same RNG calls, as `depth`
    chained channel_sample calls."""
    session = channel.session(history, rng)
    for _ in range(depth):
        session.append(session.draw()())
    return tuple(session.history)


def channel_law(channel: Channel, history: tuple) -> tuple[dict[Bits, int], int]:
    """The exact law of the next document after a history checked once:
    (weights, total), so doc's probability is Fraction(weights.get(doc, 0), total)."""
    check_history(channel, history)
    return channel.law_fn(history)


def _uniform_law(nbits: int) -> tuple[dict[Bits, int], int]:
    """Every nbits document weighs 1: a uniform key, input or document."""
    if nbits > _ENUM_LIMIT:
        raise ParameterError(f"cannot enumerate 2^{nbits} documents")
    return dict.fromkeys((Bits(v, nbits) for v in range(2**nbits)), 1), 2**nbits


def _run_law(alg: RandomizedAlgorithm, s: Bits, x: Bits) -> tuple[dict[Bits, int], int]:
    """Each output of alg on (s, x) weighs the number of coin strings that
    give it: the law of the output over uniform coins."""
    if alg.coin_bits > _ENUM_LIMIT:
        raise ParameterError("coin space too large to enumerate")
    weights: dict[Bits, int] = {}
    for rho in range(2**alg.coin_bits):
        y = alg.run(s, x, Bits(rho, alg.coin_bits))
        weights[y] = weights.get(y, 0) + 1
    return weights, 2**alg.coin_bits


def _constant(draw):
    return lambda h: draw


def uniform_channel(nbits: int) -> Channel:
    """Memoryless channel: every document is a fresh uniform nbits string."""
    if nbits <= 0:
        raise ParameterError("document length must be positive")

    return Channel(
        descriptor={
            "type": "uniform",
            "kappa": None,
            "ell": None,
            "scheme_id": f"uniform-{nbits}",
            "max_doc_len": nbits,
        },
        max_doc_len=nbits,
        accepts_at=lambda pos, d: d.nbits == nbits,
        drawer=lambda rng: _constant(IntDraw(functools.partial(rng.getrandbits, nbits), nbits)),
        law_fn=lambda h: _uniform_law(nbits),
    )


class _CycleShape:
    """Length/count automaton for key || inputs^ell || outputs* histories."""

    def __init__(self, key_bits: int, in_bits: int, out_bits: int, ell: int):
        self.key_bits, self.in_bits, self.out_bits, self.ell = key_bits, in_bits, out_bits, ell

    def accepts_at(self, pos: int, doc: Bits) -> bool:
        want = self.key_bits if pos == 0 else self.in_bits if pos <= self.ell else self.out_bits
        return doc.nbits == want


def _cycle_input(h: tuple, ell: int) -> Bits:
    """The input an output appended to the key || inputs^ell || outputs*
    history h answers: outputs cycle through the ell inputs in order."""
    return h[1 + (len(h) - ell - 1) % ell]


def _cycle_channel(alg: RandomizedAlgorithm, ell: int, ctype: str, scheme_id: str) -> Channel:
    """The channel of alg's runs: secret, ell uniform inputs, then outputs."""
    if ell <= 0:
        raise ParameterError("ell must be positive")
    key_bits, in_bits, out_bits = alg.secret_bits, alg.input_bits, alg.output_bits
    shape = _CycleShape(key_bits, in_bits, out_bits, ell)

    def law(h: tuple) -> tuple[dict[Bits, int], int]:
        n = len(h)
        if n == 0:  # toy fixtures draw keys uniformly; the key's law leans on that
            return _uniform_law(key_bits)
        if n <= ell:
            return _uniform_law(in_bits)
        return _run_law(alg, h[0], _cycle_input(h, ell))

    def drawer(rng: random.Random) -> Callable[[Sequence[Bits]], Callable[[], Bits]]:
        key = functools.partial(alg.secret_gen, rng)
        # the draws of alg.input_gen, Bits.random(in_bits, rng), as ints
        fresh_input = IntDraw(functools.partial(rng.getrandbits, in_bits), in_bits)
        outputs: list = [None] * ell  # the output draw of each cycle slot, once built

        def draw_at(h: Sequence[Bits]) -> Callable[[], Bits]:
            n = len(h)
            if n <= ell:
                return fresh_input if n else key
            slot = (n - ell - 1) % ell
            draw = outputs[slot]
            if draw is None:
                draw = outputs[slot] = emission_draw(alg, h[0], h[1 + slot], rng)
            return draw

        return draw_at

    return Channel(
        descriptor={
            "type": ctype,
            "kappa": key_bits,
            "ell": ell,
            "in_bits": in_bits,
            "out_bits": out_bits,
            "scheme_id": scheme_id,
            "max_doc_len": max(key_bits, in_bits, out_bits),
        },
        max_doc_len=max(key_bits, in_bits, out_bits),
        accepts_at=shape.accepts_at,
        drawer=drawer,
        law_fn=law,
    )


def ses_channel(ses: SymmetricEncryptionScheme, ell: int) -> Channel:
    """Channel of an encryption session: key, ell messages, then ciphertexts.

    With r ciphertexts already present, the next document is a fresh
    encryption of message (r mod ell)+1 under the session key: the channel
    of alg_from_encryption(ses), typed "ses".
    """
    return _cycle_channel(alg_from_encryption(ses), ell, "ses", ses.scheme_id)


def rand_alg_channel(alg: RandomizedAlgorithm, ell: int) -> Channel:
    """Channel of a randomized algorithm run: secret, ell inputs, then outputs."""
    return _cycle_channel(alg, ell, "rand-alg", alg.alg_id)


@dataclass(frozen=True)
class MinEntropyReport:
    bits: float
    method: str
    sample_count: int
    histories: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _neg_log2(q: Fraction) -> float:
    return math.log2(q.denominator) - math.log2(q.numerator)


def min_entropy_exact(channel: Channel, histories: Iterable[tuple]) -> MinEntropyReport:
    """Exact min-entropy: min over histories of -log2 of the largest pmf value.

    Each history is checked once, and its law read once: the peak is the
    largest integer weight over the law's total."""
    worst = None
    count = 0
    for h in histories:
        count += 1
        weights, total = channel_law(channel, h)
        peak = Fraction(max(weights.values()), total)
        if worst is None or peak > worst:
            worst = peak
    if worst is None:
        raise ParameterError("need at least one history")
    return MinEntropyReport(bits=_neg_log2(worst), method="exact", sample_count=0, histories=count)


def min_entropy_estimate(
    channel: Channel, history: tuple, samples: int, rng: random.Random
) -> MinEntropyReport:
    """Collision-entropy estimate from empirical collision frequency.

    Reports -log2 of the pairwise collision rate among `samples` draws
    (a Renyi-2 estimate; it upper-bounds min-entropy, and matches it for
    flat distributions). With no collision among the N pairs, the rate is
    below 1 - 0.05^(1/N) (about 3/N) with 95% confidence, and -log2 of that
    bound is reported instead, with method "collision-bound".
    """
    if samples < 2:
        raise ParameterError("need at least two samples")
    draw = channel.session(history, rng).draw()
    counts: dict[Bits, int] = {}
    for _ in range(samples):
        d = draw()
        counts[d] = counts.get(d, 0) + 1
    pairs = sum(n * (n - 1) // 2 for n in counts.values())
    total = samples * (samples - 1) // 2
    if pairs:
        bits, method = -math.log2(pairs / total), "collision"
    else:
        bits, method = -math.log2(-math.expm1(math.log(0.05) / total)), "collision-bound"
    return MinEntropyReport(bits=bits, method=method, sample_count=samples, histories=1)

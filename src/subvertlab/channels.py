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
from .errors import InvalidHistoryError, NoExactPmfError, ParameterError
from .schemes import _ENUM_LIMIT, IntDraw, PointDraw, RandomizedAlgorithm, emission_draw
from .schemes import SymmetricEncryptionScheme, alg_from_encryption

__all__ = [
    "Channel",
    "channel_sample",
    "channel_walk",
    "check_history",
    "channel_pmf",
    "channel_support",
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
    pmf_fn: Callable[[tuple, Bits], Fraction] | None = None
    support_fn: Callable[[tuple], Iterable[Bits]] | None = None

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


def _pmf_fn(channel: Channel) -> Callable[[tuple, Bits], Fraction]:
    if channel.pmf_fn is None:
        raise NoExactPmfError(f"channel {channel.descriptor.get('type')} has no exact pmf")
    return channel.pmf_fn


def channel_pmf(channel: Channel, history: tuple, doc: Bits) -> Fraction:
    pmf = _pmf_fn(channel)
    check_history(channel, history)
    return pmf(history, doc)


def channel_support(channel: Channel, history: tuple) -> Iterable[Bits]:
    if channel.support_fn is None:
        raise NoExactPmfError("channel does not enumerate its support")
    check_history(channel, history)
    return channel.support_fn(history)


def _all_bits(nbits: int) -> Iterable[Bits]:
    if nbits > _ENUM_LIMIT:
        raise ParameterError(f"cannot enumerate 2^{nbits} documents")
    return (Bits(v, nbits) for v in range(2**nbits))


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
        accepts_at=lambda pos, d: len(d) == nbits,
        drawer=lambda rng: _constant(IntDraw(functools.partial(rng.getrandbits, nbits), nbits)),
        pmf_fn=lambda h, d: Fraction(1, 2**nbits) if len(d) == nbits else Fraction(0),
        support_fn=lambda h: _all_bits(nbits),
    )


class _CycleShape:
    """Length/count automaton for key || inputs^ell || outputs* histories."""

    def __init__(self, key_bits: int, in_bits: int, out_bits: int, ell: int):
        self.key_bits, self.in_bits, self.out_bits, self.ell = key_bits, in_bits, out_bits, ell

    def accepts_at(self, pos: int, doc: Bits) -> bool:
        want = self.key_bits if pos == 0 else self.in_bits if pos <= self.ell else self.out_bits
        return len(doc) == want

    def role(self, h: tuple) -> str:
        """Role of the next document: key, input or output."""
        n = len(h)
        if n == 0:
            return "key"
        return "input" if n <= self.ell else "output"


def _cycle_input(h: tuple, ell: int) -> Bits:
    """The input an output appended to the key || inputs^ell || outputs*
    history h answers: outputs cycle through the ell inputs in order."""
    return h[1 + (len(h) - ell - 1) % ell]


def _cycle_channel(
    alg: RandomizedAlgorithm,
    ell: int,
    ctype: str,
    scheme_id: str,
    output_support: Callable[[Bits, Bits], Iterable[Bits]] | None,
) -> Channel:
    """The channel of alg's runs: secret, ell uniform inputs, then outputs."""
    if ell <= 0:
        raise ParameterError("ell must be positive")
    key_bits, in_bits, out_bits = alg.secret_bits, alg.input_bits, alg.output_bits
    shape = _CycleShape(key_bits, in_bits, out_bits, ell)

    def pmf(h: tuple, d: Bits) -> Fraction:
        role = shape.role(h)
        if role == "key":
            # toy fixtures draw keys uniformly; exact pmf leans on that
            return Fraction(1, 2**key_bits) if len(d) == key_bits else Fraction(0)
        if role == "input":
            return Fraction(1, 2**in_bits) if len(d) == in_bits else Fraction(0)
        if alg.exact_pmf is None:
            raise NoExactPmfError("scheme does not expose an exact ciphertext pmf")
        return alg.exact_pmf(h[0], _cycle_input(h, ell), d) if len(d) == out_bits else Fraction(0)

    def support(h: tuple) -> Iterable[Bits]:
        role = shape.role(h)
        if role == "key":
            return _all_bits(key_bits)
        if role == "input":
            return _all_bits(in_bits)
        if output_support is None:
            raise NoExactPmfError("scheme does not enumerate ciphertext support")
        return output_support(h[0], _cycle_input(h, ell))

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
        pmf_fn=pmf,
        support_fn=support,
    )


def ses_channel(ses: SymmetricEncryptionScheme, ell: int) -> Channel:
    """Channel of an encryption session: key, ell messages, then ciphertexts.

    With r ciphertexts already present, the next document is a fresh
    encryption of message (r mod ell)+1 under the session key: the channel
    of alg_from_encryption(ses), typed "ses".
    """
    alg = alg_from_encryption(ses)
    return _cycle_channel(alg, ell, "ses", ses.scheme_id, ses.ciphertext_support)


def rand_alg_channel(alg: RandomizedAlgorithm, ell: int) -> Channel:
    """Channel of a randomized algorithm run: secret, ell inputs, then outputs."""

    def output_support(s: Bits, x: Bits) -> Iterable[Bits]:
        if alg.coin_bits > _ENUM_LIMIT:
            raise ParameterError("coin space too large to enumerate")
        seen = set()
        for rho in range(2**alg.coin_bits):
            y = alg.run(s, x, Bits(rho, alg.coin_bits))
            if y not in seen:
                seen.add(y)
                yield y

    return _cycle_channel(alg, ell, "rand-alg", alg.alg_id, output_support)


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

    Each history is checked once, by channel_support; its documents are
    then weighed through pmf_fn directly, not through channel_pmf, which
    would check the history again for every document."""
    worst = None
    count = 0
    for h in histories:
        count += 1
        support = channel_support(channel, h)
        peak = max(map(functools.partial(_pmf_fn(channel), h), support))
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

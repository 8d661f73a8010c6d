"""Document channels indexed by history.

A channel assigns to every valid history a distribution over next documents.
Histories here are recognized by pure length/count automata: a key, then a
fixed count of messages, then ciphertexts cycling through those messages.
Each channel states its grammar as a per-position rule, and a history is
valid when every position passes it. So every prefix of a valid history is
valid, and a valid history stays valid when a document that passes at its
own position is appended: callers that extend a history validate the start
once (check_history) and then each new document (extend_history), never the
whole history per draw. Sampling never needs more than the published
per-role bit lengths.

ses_channel and rand_alg_channel are one builder's: the channel of a
randomized algorithm's runs, an encryption scheme being the algorithm
alg_from_encryption makes of it. Outputs are the host's explicit-coin runs,
so a seed-coupled run of channel_sample and of enc_sample is identical.

A channel may also have its own draw at a history (Channel.draw_at): an
IntDraw, whose ints are the values of the documents its sampler would draw
from the same RNG calls, or a PointDraw, whose every call is the one
document. The uniform channel has an IntDraw everywhere; a session channel
at its uniform inputs and, at its outputs, what schemes.emission_draw
picks. A session's outputs answer at most ell inputs under one key, so a
session channel builds that output draw once per session and input, not
once per emission: it keeps the draws of the last (key, rng), each with
the input it answers, all compared by identity. draw_for hands the draw
to the rejection sampler, which then builds a bit string for the emitted
document only, and channel_walk draws through it too.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .bits import Bits
from .errors import InvalidHistoryError, NoExactPmfError, ParameterError
from .schemes import _ENUM_LIMIT, IntDraw, PointDraw, RandomizedAlgorithm, emission_draw
from .schemes import SymmetricEncryptionScheme, alg_from_encryption

__all__ = [
    "Channel",
    "channel_sample",
    "channel_walk",
    "check_history",
    "draw_next",
    "extend_history",
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
    sampler: Callable[[tuple, random.Random], Bits]
    pmf_fn: Callable[[tuple, Bits], Fraction] | None = None
    support_fn: Callable[[tuple], Iterable[Bits]] | None = None
    # (history, rng) -> an IntDraw or a PointDraw whose calls return what
    # sampler(history, rng) would, or None where the next document has
    # neither; the same draw object may come back for every history of a
    # session whose next document is drawn the same way
    draw_at: Callable[[tuple, random.Random], IntDraw | PointDraw | None] | None = None

    def grammar(self, history: tuple) -> bool:
        """A history is valid when every position accepts its document."""
        accepts_at = self.accepts_at
        return all(accepts_at(pos, doc) for pos, doc in enumerate(history))


def check_history(channel: Channel, history: tuple) -> None:
    if not channel.grammar(history):
        raise InvalidHistoryError(f"history of length {len(history)} rejected by grammar")


def draw_next(channel: Channel, history: tuple, rng: random.Random) -> Bits:
    """Draw the next document for a history the caller has already validated."""
    doc = channel.sampler(history, rng)
    if len(doc) > channel.max_doc_len:
        raise InvalidHistoryError("sampler produced an oversized document")
    return doc


def draw_for(channel: Channel, history: tuple, rng: random.Random) -> Callable[[], Bits]:
    """The draw of one emission at a history the caller has validated: each
    call returns the next document, as draw_next does. Where the channel
    has a draw of its own there (draw_at), it is that draw, whose width is
    checked here; elsewhere it calls draw_next. A session channel builds
    its host draw once per session and input, so the emissions that answer
    one input get the same draw object."""
    draw = channel.draw_at(history, rng) if channel.draw_at is not None else None
    if draw is None:
        return functools.partial(draw_next, channel, history, rng)
    width = draw.width if isinstance(draw, IntDraw) else len(draw.point)
    if width > channel.max_doc_len:
        raise InvalidHistoryError("sampler produced an oversized document")
    return draw


def extend_history(channel: Channel, history: tuple, doc: Bits) -> tuple:
    """Append a document to a valid history, checking it at its own position."""
    if not channel.accepts_at(len(history), doc):
        raise InvalidHistoryError(
            f"{len(doc)}-bit document rejected by grammar at position {len(history)}"
        )
    return history + (doc,)


def channel_sample(channel: Channel, history: tuple, rng: random.Random) -> Bits:
    """Draw the next document for a history, validating the history first."""
    check_history(channel, history)
    return draw_next(channel, history, rng)


def channel_walk(
    channel: Channel, depth: int, rng: random.Random, history: tuple = ()
) -> tuple:
    """Extend a history by `depth` documents sampled one after another.

    Draws the same documents, from the same RNG calls, as `depth` chained
    channel_sample calls, but validates the start history only once, and
    draws each document through draw_for, so a session's output positions
    share its host draws.
    """
    h = tuple(history)
    check_history(channel, h)
    for _ in range(depth):
        h = extend_history(channel, h, draw_for(channel, h, rng)())
    return h


def channel_pmf(channel: Channel, history: tuple, doc: Bits) -> Fraction:
    if channel.pmf_fn is None:
        raise NoExactPmfError(f"channel {channel.descriptor.get('type')} has no exact pmf")
    check_history(channel, history)
    return channel.pmf_fn(history, doc)


def channel_support(channel: Channel, history: tuple) -> Iterable[Bits]:
    if channel.support_fn is None:
        raise NoExactPmfError("channel does not enumerate its support")
    check_history(channel, history)
    return channel.support_fn(history)


def _all_bits(nbits: int) -> Iterable[Bits]:
    if nbits > _ENUM_LIMIT:
        raise ParameterError(f"cannot enumerate 2^{nbits} documents")
    return (Bits(v, nbits) for v in range(2**nbits))


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
        sampler=lambda h, rng: Bits.random(nbits, rng),
        pmf_fn=lambda h, d: Fraction(1, 2**nbits) if len(d) == nbits else Fraction(0),
        support_fn=lambda h: _all_bits(nbits),
        draw_at=lambda h, rng: IntDraw(functools.partial(rng.getrandbits, nbits), nbits),
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
    input_gen: Callable[[random.Random], Bits] | None = None,
) -> Channel:
    """The channel of alg's runs: secret, ell inputs, then outputs. Inputs
    come from input_gen, or when it is None from the uniform alg.input_gen."""
    if ell <= 0:
        raise ParameterError("ell must be positive")
    key_bits, in_bits, out_bits = alg.secret_bits, alg.input_bits, alg.output_bits
    shape = _CycleShape(key_bits, in_bits, out_bits, ell)
    uniform_inputs = input_gen is None
    inputs = alg.input_gen if uniform_inputs else input_gen

    def sampler(h: tuple, rng: random.Random) -> Bits:
        role = shape.role(h)
        if role == "key":
            return alg.secret_gen(rng)
        if role == "input":
            return inputs(rng)
        return alg.run_sample(h[0], _cycle_input(h, ell), rng)

    def pmf(h: tuple, d: Bits) -> Fraction:
        role = shape.role(h)
        if role == "key":
            # toy fixtures draw keys uniformly; exact pmf leans on that
            return Fraction(1, 2**key_bits) if len(d) == key_bits else Fraction(0)
        if role == "input":
            if not uniform_inputs:
                raise NoExactPmfError("custom input generator has no declared pmf")
            return Fraction(1, 2**in_bits) if len(d) == in_bits else Fraction(0)
        if alg.exact_pmf is None:
            raise NoExactPmfError("scheme does not expose an exact ciphertext pmf")
        return alg.exact_pmf(h[0], _cycle_input(h, ell), d) if len(d) == out_bits else Fraction(0)

    def support(h: tuple) -> Iterable[Bits]:
        role = shape.role(h)
        if role == "key":
            return _all_bits(key_bits)
        if role == "input":
            if not uniform_inputs:
                raise NoExactPmfError("custom input generator has no declared support")
            return _all_bits(in_bits)
        if output_support is None:
            raise NoExactPmfError("scheme does not enumerate ciphertext support")
        return output_support(h[0], _cycle_input(h, ell))

    # the last session's output draws: (key, rng, [(input, draw) per cycle slot])
    session: list = [(None, None, None)]

    def draw_at(h: tuple, rng: random.Random) -> IntDraw | PointDraw | None:
        n = len(h)
        if n > ell:  # an output: the draw for this (key, input, rng), built once
            key, slot = h[0], (n - ell - 1) % ell
            x = h[1 + slot]
            held_key, held_rng, draws = session[0]
            if held_key is not key or held_rng is not rng:
                draws = [None] * ell
                session[0] = (key, rng, draws)
            held = draws[slot]
            if held is not None and held[0] is x:
                return held[1]
            draw = emission_draw(alg, key, x, rng)
            draw = draw if isinstance(draw, (IntDraw, PointDraw)) else None
            draws[slot] = (x, draw)
            return draw
        if n and uniform_inputs:  # inputs is Bits.random(in_bits, rng)
            return IntDraw(functools.partial(rng.getrandbits, in_bits), in_bits)
        return None

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
        sampler=sampler,
        pmf_fn=pmf,
        support_fn=support,
        draw_at=draw_at,
    )


def ses_channel(ses: SymmetricEncryptionScheme, ell: int) -> Channel:
    """Channel of an encryption session: key, ell messages, then ciphertexts.

    With r ciphertexts already present, the next document is a fresh
    encryption of message (r mod ell)+1 under the session key: the channel
    of alg_from_encryption(ses), typed "ses".
    """
    alg = alg_from_encryption(ses)
    return _cycle_channel(alg, ell, "ses", ses.scheme_id, ses.ciphertext_support)


def rand_alg_channel(
    alg: RandomizedAlgorithm,
    ell: int,
    input_gen: Callable[[random.Random], Bits] | None = None,
) -> Channel:
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

    return _cycle_channel(alg, ell, "rand-alg", alg.alg_id, output_support, input_gen)


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
    """Exact min-entropy: min over histories of -log2 of the largest pmf value."""
    worst = None
    count = 0
    for h in histories:
        count += 1
        peak = max(channel_pmf(channel, h, d) for d in channel_support(channel, h))
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
    check_history(channel, history)
    counts: dict[Bits, int] = {}
    for _ in range(samples):
        d = draw_next(channel, history, rng)
        counts[d] = counts.get(d, 0) + 1
    pairs = sum(n * (n - 1) // 2 for n in counts.values())
    total = samples * (samples - 1) // 2
    if pairs:
        bits, method = -math.log2(pairs / total), "collision"
    else:
        bits, method = -math.log2(-math.expm1(math.log(0.05) / total)), "collision-bound"
    return MinEntropyReport(bits=bits, method=method, sample_count=samples, histories=1)

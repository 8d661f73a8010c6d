"""Rejection-sampling steganography.

The encoder embeds a hidden message into ordinary channel documents without
modifying them: it keeps drawing documents until the keyed marking function
maps one to a (value, slot) pair that agrees with the hidden message, then
emits that document (after s failed draws it emits the next draw regardless).
The decoder marks received documents and fills slots, last write wins;
it needs no history and no knowledge of where the documents came from. It
reads them from the last one back and stops once every slot is filled, so
the documents before the shortest suffix that covers every slot are never
marked.

Coverage of all slots is a coupon-collector event, so the output length for
an ml-bit message grows like ml ln ml; the block variant embeds several bits
per document at the cost of a longer rejection phase.

A mark is an int value and a slot (prf.split_marker). A session's
emissions share one attacker key and hidden message, so the encoder checks
and binds them once per session, not once per emission: the key's mark
table and the message's block per slot are kept for the last (key,
message) objects, and each mark's value is compared to its slot's block
as ints. encode_all and encode_schedule run in one channel session
(Channel.session): each emission gets the draw at its position, and the
encoder sees the session's one history list. Over an int draw
(schemes.IntDraw) the sampler draws, rejects and marks ints, and builds a
bit string for the emitted document only; other draws are marked as bit
strings in the same loop. A coin-free host's emission is a point draw
(schemes.PointDraw), returned after the argument checks without the loop.
A decode binds the mark table once and looks each document it reads up in
it.

rejsam_system's enc has one session form, for a coin-free host:
enc.points(ak, am, outputs). Every draw of each of its emissions is the
host's one output, so the documents are the outputs themselves, returned
after the argument checks encode_step makes, made once, and with no
encode_step call. A session with coins runs one enc call per emission.
The form lives on the callable, so a StegoSystem whose enc is replaced
(dataclasses.replace(steg, enc=...)) has none and is run one emission at
a time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .bits import Bits
from .channels import Channel
from .errors import ParameterError, ScheduleError, WrongDocumentCountError
from .prf import Prf, is_power_of_two, split_marker

__all__ = [
    "StegoParams",
    "StegoSystem",
    "default_beta",
    "outl_for",
    "rejsam_system",
    "rejsam_decode",
    "encode_step",
    "mark_agreement",
    "encode_all",
    "encode_schedule",
]


def default_beta(ml: int) -> float:
    """Slack making the coupon miss probability exp(-beta) negligible-ish."""
    if ml < 1:
        raise ParameterError("ml must be at least 1")
    return ml - math.log(ml)


def outl_for(ml: int, beta: float | None = None, block_bits: int = 1) -> int:
    """Documents needed to cover a pool of ceil(ml/block_bits) slots.

    ceil(pool * (ln pool + beta)); beta defaults to default_beta(ml).
    Rounded before the ceiling so exact-integer boundaries (e.g. ml=16,
    default beta -> exactly 256) are not bumped by float noise.
    """
    if block_bits < 1:
        raise ParameterError(f"block_bits must be at least 1, got {block_bits}")
    if beta is None:
        beta = default_beta(ml)
    pool = -(-ml // block_bits)
    raw = pool * (math.log(pool) + beta)
    if not math.isfinite(raw):
        raise ParameterError(f"outl_for parameters yield no finite length (beta={beta})")
    if raw <= 0:
        raise ParameterError("outl_for parameters yield a non-positive length")
    return math.ceil(round(raw, 9))


@dataclass(frozen=True)
class StegoParams:
    """Embedding parameters. ml must be a power of two (slot uniformity)."""

    ml: int
    s: int
    outl: int
    kappa: int = 128
    beta: float | None = None
    block_bits: int = 1

    def __post_init__(self):
        if not is_power_of_two(self.ml):
            raise ParameterError("ml must be a power of two")
        if self.s < 1:
            raise ParameterError("cutoff s must be at least 1")
        if self.outl < 1:
            raise ParameterError("outl must be at least 1")
        if self.block_bits < 1 or self.block_bits > self.ml:
            raise ParameterError("block_bits must be in 1..ml")
        if self.beta is not None and not (
            isinstance(self.beta, (int, float)) and math.isfinite(self.beta)
        ):
            raise ParameterError(f"beta must be a finite number, got {self.beta!r}")
        if self.kappa < 1:
            raise ParameterError("kappa must be positive")

    @property
    def n_slots(self) -> int:
        return -(-self.ml // self.block_bits)

    @property
    def padded_ml(self) -> int:
        return self.n_slots * self.block_bits

    def to_json_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "ml": self.ml,
            "s": self.s,
            "beta": self.beta,
            "block_bits": self.block_bits,
            "outl": self.outl,
        }


@dataclass(frozen=True)
class StegoSystem:
    """Keyed (gen, enc, dec) triple over a document channel.

    enc emits one document per call: enc(ak, am, history, sigma, draw=..., rng=...)
    -> (document, sigma). `draw` samples the channel at the current history;
    `rng` is the encoder's private randomness (the rejection sampler needs
    only `draw`). State sigma is passed through so stateless systems stay
    visibly stateless. dec(ak, docs) -> recovered message or None. enc may
    carry a point form, enc.points(ak, am, outputs) -> documents, equal to
    one state-threaded call from None per output over the point draw of
    that output (rejsam_system's carries it).
    """

    system_id: str
    params: StegoParams
    gen: Callable[[random.Random], Bits]
    enc: Callable[..., tuple[Bits, object]]
    dec: Callable[[Bits, Sequence[Bits]], Bits | None]
    prf: Prf | None = None
    # histories where the encoder provably emits the channel's own next-doc
    # distribution, drawing from the rng it is handed (lets game runners and
    # reduction adapters share one public stream there)
    transparent_at: Callable[[tuple], bool] | None = None

    def describe(self) -> dict:
        return {"system": self.system_id, **self.params.to_json_dict()}


def _message_blocks(params: StegoParams, am: Bits) -> list[int]:
    """The message's block per slot: am zero-padded to n_slots blocks of
    block_bits bits, slot j's block being the j-th from the top."""
    block_bits, n_slots = params.block_bits, params.n_slots
    am_int = am.uint << (n_slots * block_bits - params.ml)
    mask = (1 << block_bits) - 1
    return [(am_int >> ((n_slots - 1 - j) * block_bits)) & mask for j in range(n_slots)]


def _bind(prf: Prf, params: StegoParams, ak: Bits, am: Bits) -> tuple:
    """The checked binding of a key and message: am's length is checked,
    then the split and the key (split_marker); returns the key's mark table
    and the message's block per slot."""
    if len(am) != params.ml:
        raise ParameterError(f"hidden message must have {params.ml} bits")
    marks = split_marker(prf, ak, params.block_bits, params.n_slots)
    return marks, _message_blocks(params, am)


def mark_agreement(
    prf: Prf, params: StegoParams, ak: Bits, am: Bits
) -> Callable[[Bits], bool]:
    """Predicate: does a document's mark (value, slot) agree with am?"""
    marks, blocks = _bind(prf, params, ak, am)

    def agrees(doc: Bits) -> bool:
        value, j = marks[doc.to_bytes()]
        return j is not None and value == blocks[j]

    return agrees


# encode_step's checked binding of the last (prf, params, ak, am): those
# four, the mark table and the message block per slot. It is matched by
# identity: hashing the key and message by value on every emission would
# cost more than the binding saves.
_bound: tuple = (None, None, None, None, None, None)


def encode_step(
    prf: Prf, params: StegoParams, ak: Bits, am: Bits, draw: Callable[[], Bits]
) -> Bits:
    """One emission: first draw whose mark agrees with the message, else the
    (s+1)-th draw unconditionally.

    The arguments are checked and bound once per session, not once per
    emission: the message length, the split and the key (split_marker), the
    key's mark table and the message's block per slot are kept for the last
    (prf, params, ak, am), compared by identity, and every emission of a
    session reuses them. An emission with any other argument object is
    checked from scratch, so a wrong key or message still raises.

    The mark is a deterministic function of the document and the key's
    mark table keeps it, so a document drawn again is a table hit while
    the table holds it; every draw is still taken, since draws consume the
    channel's randomness. A point draw
    (schemes.PointDraw, a coin-free host's emission) is the exception: all
    its draws are its .point and take no randomness, so the first agreeing
    draw and the (s+1)-th are both that document, and it is returned after
    the argument checks without a draw or a mark. A draw with an int form
    (schemes.IntDraw) is sampled through it: the loop marks the packed
    bytes of each int, and only the emitted int becomes a bit string.
    """
    global _bound
    bound_prf, bound_params, bound_ak, bound_am, marks, blocks = _bound
    if not (ak is bound_ak and am is bound_am and prf is bound_prf and params is bound_params):
        marks, blocks = _bind(prf, params, ak, am)
        _bound = (prf, params, ak, am, marks, blocks)
    point = getattr(draw, "point", None)
    if point is not None:  # after the checks: it fails where a looping draw would
        return point
    ints = getattr(draw, "ints", None)
    if ints is None:
        for _ in range(params.s):
            doc = draw()
            value, j = marks[doc.to_bytes()]
            if j is not None and value == blocks[j]:
                return doc
        return draw()
    shift, nbytes = draw.shift, draw.nbytes
    for _ in range(params.s):
        x = ints()
        value, j = marks[(x << shift).to_bytes(nbytes, "big")]
        if j is not None and value == blocks[j]:
            return draw.emit(x)
    return draw.emit(ints())


def rejsam_decode(
    prf: Prf, params: StegoParams, ak: Bits, docs: Sequence[Bits]
) -> Bits | None:
    """The hidden message: each document's mark fills its slot with its
    value, last write wins, and a slot left empty gives None.

    The documents are read from the last one back: a slot keeps the first
    mark seen for it, which is its last write, and the scan stops once
    every slot holds a value, since no earlier document can change one.
    Documents before the shortest suffix that covers every slot are never
    read or marked; a list that leaves a slot empty is read to its start.

    The document count is checked first, then the key's mark table is bound
    once (split_marker checks the key and split there), so each document
    read costs one dict subscript, and an HMAC only where its bytes miss
    the table. A document's bytes are packed here from its slots, the bytes
    doc.to_bytes() gives, without the method call.
    """
    if len(docs) != params.outl:
        raise WrongDocumentCountError(f"expected {params.outl} documents, got {len(docs)}")
    block_bits, n_slots = params.block_bits, params.n_slots
    marks = split_marker(prf, ak, block_bits, n_slots)
    slots: dict[int, int] = {}  # not a list: a saved session may claim any ml
    for doc in reversed(docs):
        n = doc.nbits
        pad = -n & 7
        value, j = marks[(doc.uint << pad).to_bytes((n + pad) >> 3, "big")]
        if j is not None and j not in slots:  # the last write wins
            slots[j] = value
            if len(slots) == n_slots:
                break
    else:
        return None
    am_int = 0
    for j in range(n_slots):
        am_int = (am_int << block_bits) | slots[j]
    return Bits(am_int >> (params.padded_ml - params.ml), params.ml)


def rejsam_system(params: StegoParams) -> StegoSystem:
    """The rejection sampler as a StegoSystem. Its enc emits one document
    per call through encode_step, and carries the point form
    enc.points(ak, am, outputs) -> documents, for a coin-free host's
    session: one emission over each output's point draw returns that
    output, so the arguments are checked once, as encode_step checks them,
    before the first output is taken from the iterable, and then the
    outputs are the documents."""
    prf = Prf(params.kappa)

    def enc(ak, am, history, sigma, *, draw, rng=None):
        return encode_step(prf, params, ak, am, draw), sigma

    def points(ak, am, outputs):
        _bind(prf, params, ak, am)
        return list(outputs)

    enc.points = points

    def dec(ak, docs):
        return rejsam_decode(prf, params, ak, docs)

    return StegoSystem(
        system_id="rejsam",
        params=params,
        gen=lambda rng: Bits.random(params.kappa, rng),
        enc=enc,
        dec=dec,
        prf=prf,
    )


def _encode(steg: StegoSystem, ak, am, history, channel, rng, segments) -> list[Bits]:
    """The documents emitted in one channel session from history, in
    segments of the given lengths, each starting from state None."""
    session = channel.session(history, rng)
    h, draw, append, start = session.history, session.draw, session.append, len(session.history)
    for n in segments:
        state = None
        for _ in range(n):
            doc, state = steg.enc(ak, am, h, state, draw=draw(), rng=rng)
            append(doc)
    return h[start:]


def encode_all(
    steg: StegoSystem,
    ak: Bits,
    am: Bits,
    history: Sequence[Bits],
    channel: Channel,
    rng: random.Random,
) -> list[Bits]:
    """Run outl encode steps from state None, threading the state and
    extending the history with each emitted document, in one channel
    session: the start history is validated once and each emitted document
    at its own position."""
    return _encode(steg, ak, am, history, channel, rng, [steg.params.outl])


def encode_schedule(
    steg: StegoSystem,
    ak: Bits,
    am: Bits,
    schedule: Sequence[int],
    channel: Channel,
    rng: random.Random,
) -> list[Bits]:
    """Restart-tolerant encoding: one continuous document stream from the
    empty history whose state is wiped at every segment boundary. Segment
    lengths must be positive and sum to outl; the history keeps growing
    across segments (one channel session), so only encoders that can
    restart from the history alone survive this."""
    if any(n <= 0 for n in schedule):
        raise ScheduleError("segment lengths must be positive")
    total = sum(schedule)
    if total != steg.params.outl:
        raise ScheduleError(f"segment lengths sum to {total}, expected {steg.params.outl}")
    return _encode(steg, ak, am, (), channel, rng, schedule)

"""Host speed reference.

The benchmark shares its machine, and the machine's speed drifts: the same
pure-Python loop has been seen to take twice as long for minutes at a time.
To keep runs comparable, every timed report is followed by a short
reference loop that does not touch subvertlab. Report times are scaled by
NOMINAL_S / (reference time around that report), that is, to the speed of
a host on which the loop takes exactly NOMINAL_S. A change to subvertlab
moves the report times but not the loop.
"""

from __future__ import annotations

import hashlib
import hmac
import statistics
from time import perf_counter

NOMINAL_S = 0.0015
_RADIUS = 4
_KEY = bytes(range(16))
_HISTORY = tuple(range(400))
_BUFFER = bytes(2 << 20)


class _Word:
    __slots__ = ("n", "v")

    def __init__(self, v, n):
        v, n = int(v), int(n)
        if v < 0 or v >> n:
            raise ValueError("does not fit")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v", v)


def _loop() -> int:
    # the package's own mix: small slotted objects, a pass over a long
    # tuple, dict stores, HMAC-SHA256, and one copy larger than L2
    acc = 0
    for i in range(800):
        acc += _Word(i, 16).v
    for doc in _HISTORY:
        acc += doc < 200
    table = {}
    for i in range(600):
        pair = (i, (i * 7919) % 1009)
        table[pair[1]] = pair
    msg = bytes(32)
    for _ in range(60):
        msg = hmac.new(_KEY, msg, hashlib.sha256).digest()
    acc += len(bytearray(_BUFFER))
    return acc + len(table) + msg[0]


def sample() -> float:
    """Seconds the reference loop takes now: the median of three runs."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def normalise(times: list[float], refs: list[float]) -> list[float]:
    """Scale each time by NOMINAL_S over the median reference sample of its
    neighbours (up to _RADIUS on each side), so one noisy sample does not
    move one report."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(refs[max(0, i - _RADIUS) : i + _RADIUS + 1])
        out.append(t * NOMINAL_S / local)
    return out

"""Deterministic splittable randomness.

Every experiment derives named substreams from (seed, path...) via SHA-256,
so trials are independent of execution order and reproducible byte-for-byte.
A game trial seeds a stream only when it first draws from it: seeding one
(MT19937, in C) takes 7.5-11.8 us on a 2-core x86_64 host, more than many
trials spend drawing.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["substream", "TrialStreams"]


def substream(seed: int, *path: int | str) -> random.Random:
    """Independent PRNG stream for a (seed, path) label."""
    tag = repr((int(seed),) + tuple(path)).encode()
    digest = hashlib.sha256(tag).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


class TrialStreams:
    """Named randomness streams for one game trial.

    Streams are memoized so repeated lookups continue the same sequence, and
    each is seeded at its first lookup, so a stream the trial never asks for
    costs nothing. Labels used by the games: "ak", "b", "adv", "oracle"
    (private to the game) and ("sim", name) for service draws whose values
    are handed to the adversary anyway; adapters that simulate one game
    inside another re-derive the sim streams to reproduce transcripts
    exactly. lazy(*path) defers even the lookup to the first draw, for the
    adversary's coins, which many strategies never touch.
    """

    def __init__(self, seed: int, trial: int):
        self.seed = int(seed)
        self.trial = int(trial)
        self._streams: dict[tuple, random.Random] = {}

    def get(self, *path: int | str) -> random.Random:
        if path not in self._streams:
            self._streams[path] = substream(self.seed, self.trial, *path)
        return self._streams[path]

    def sim(self, name: str) -> random.Random:
        return self.get("sim", name)

    def lazy(self, *path: int | str) -> "_LazyStream":
        """get(*path), looked up when a method of it is first read."""
        return _LazyStream(self, path)


class _LazyStream:
    """Stands in for get(*path) until a method of it is first read.

    That read looks the stream up (seeding it, and memoising it for later
    get calls) and stores the generator's bound method on this object, so
    every later draw calls the C method with no Python frame in between.
    This is not a random.Random subclass on purpose: the C methods would
    then be found on the type and draw from an unseeded generator. Only
    public names are forwarded.
    """

    def __init__(self, streams: TrialStreams, path: tuple):
        self._streams = streams
        self._path = path

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self._streams.get(*self._path), name)
        if callable(value):
            self.__dict__[name] = value
        return value

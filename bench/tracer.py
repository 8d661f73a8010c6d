"""Span tracer for the benchmark's traced pass.

The tracer wraps subvertlab's public boundaries from outside the package:

* a module-level function is replaced in every subvertlab module that holds
  it (so `from .stego import encode_all` in games.py is patched too);
* the callable fields of the objects the factories return (scheme enc/sign,
  attack enc/ext, adversary strategies) are wrapped in a copy of the object;
* `Bits.__init__` only bumps a counter, because a span per bit string would
  cost more than the construction it measures.

Each wrapped call is a span (id, name, parent, start, end) appended to
per-thread arrays, so game trials running on `--jobs` worker threads never
interleave their records. A span's own time is its duration minus the part
covered by its child spans; children on other threads (trials under a
thread pool) are merged as intervals, so overlap is not counted twice.
Counters that are a function of the seed (draws, emissions, history
documents, verifier calls inside a forgery search) ride along per thread.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

_MAX_NAMES = 128
_ORACLE_METHODS = ("enc", "ch", "sign", "channel_sample")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _ThreadState:
    """Open-span stack, aggregates and span records of one thread."""

    def __init__(self):
        self.stack: list[list] = []
        self.calls = [0] * _MAX_NAMES
        self.total = [0.0] * _MAX_NAMES
        self.own = [0.0] * _MAX_NAMES
        self.counts: dict[str, int] = {}
        self.ids = array("q")
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")

    def bump(self, counter: str, n: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._nids: dict[str, int] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count()
        self._bits = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def nid(self, name: str) -> int:
        if name not in self._nids:
            if len(self.names) >= _MAX_NAMES:
                raise RuntimeError("too many span names")
            self._nids[name] = len(self.names)
            self.names.append(name)
        return self._nids[name]

    def state(self) -> _ThreadState:
        st = self._local.__dict__.get("st")
        if st is None:
            st = _ThreadState()
            self._local.st = st
            self._states.append(st)
        return st

    def call(self, nid: int, fn, args, kwargs, foreign_parent=None):
        """Run fn as a span. foreign_parent is the open span of the thread
        that handed this call to a worker thread."""
        st = self.state()
        stack = st.stack
        if stack:
            parent, foreign = stack[-1], None
        else:
            parent, foreign = foreign_parent, foreign_parent
        entry = [next(self._ids), 0.0, None]
        stack.append(entry)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            child = entry[1]
            if entry[2]:
                child += _union_length(entry[2])
            st.calls[nid] += 1
            st.total[nid] += dur
            st.own[nid] += dur - child
            st.ids.append(entry[0])
            st.names.append(nid)
            st.parents.append(parent[0] if parent is not None else -1)
            st.starts.append(t0)
            st.ends.append(t1)
            if foreign is not None:
                foreign[2].append((t0, t1))
            elif parent is not None:
                parent[1] += dur

    def span(self, name: str, fn):
        nid = self.nid(name)
        call = self.call

        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- reading ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Span calls by name plus the named counters, summed over threads."""
        out: dict[str, int] = {}
        for st in list(self._states):
            for i, name in enumerate(self.names):
                if st.calls[i]:
                    out[name] = out.get(name, 0) + st.calls[i]
            for k, v in st.counts.items():
                out[k] = out.get(k, 0) + v
        out["bits.objects"] = self._bits.__reduce__()[1][0]
        return out

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, own seconds), summed over threads."""
        out = {}
        for i, name in enumerate(self.names):
            calls = sum(st.calls[i] for st in self._states)
            total = sum(st.total[i] for st in self._states)
            own = sum(st.own[i] for st in self._states)
            out[name] = (calls, total, own)
        return out

    def span_count(self) -> int:
        return sum(len(st.ids) for st in self._states)

    def write(self, path: Path) -> None:
        """Header line (JSON) then each column as raw machine arrays."""
        states = list(self._states)
        header = {
            "names": self.names,
            "spans": self.span_count(),
            "columns": [["id", "q"], ["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in ("ids", "names", "parents", "starts", "ends"):
                for st in states:
                    getattr(st, column).tofile(fh)

    # --- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, orig, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def install(self) -> None:
        """Patch every loaded subvertlab module. Objects built afterwards
        are traced; objects built before keep their untraced fields."""
        importlib.import_module("subvertlab.cli")
        mods = [m for n, m in sys.modules.items() if n == "subvertlab" or n.startswith("subvertlab.")]
        pkg = sys.modules["subvertlab"]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        tracer = self

        def func(module, fname, make):
            orig = getattr(by_name[module], fname)
            self._replace_everywhere(mods, orig, make(orig))

        def spans(module, fnames, name):
            for fname in fnames:
                func(module, fname, lambda orig: self.span(name, orig))

        def returning(module, fnames, rewrap):
            for fname in fnames:
                def make(orig, rewrap=rewrap):
                    def factory(*args, **kwargs):
                        return rewrap(orig(*args, **kwargs))

                    return factory

                func(module, fname, make)

        def fields(obj, **names):
            return dataclasses.replace(
                obj, **{f: self.span(n, getattr(obj, f)) for f, n in names.items()}
            )

        # bits: counted, not timed
        bits_cls = pkg.Bits
        orig_init = bits_cls.__init__
        tick = self._bits.__next__

        def counted_init(obj, value, nbits):
            tick()
            orig_init(obj, value, nbits)

        self._set(bits_cls, "__init__", counted_init)

        spans("rng", ["substream"], "rng.substream")
        spans("prf", ["prf_split_block"], "prf.split_block")

        sample_nid = self.nid("channels.sample")

        def make_sample(orig):
            def channel_sample(channel, history, rng):
                self.state().bump("channels.history_docs", len(history))
                return self.call(sample_nid, orig, (channel, history, rng), {})

            return channel_sample

        func("channels", "channel_sample", make_sample)

        # stego: draws per emission are counted by wrapping the draw callable
        step_nid = self.nid("stego.encode_step")

        def make_step(orig):
            def encode_step(prf, params, ak, am, draw):
                n = 0

                def counted_draw():
                    nonlocal n
                    n += 1
                    return draw()

                doc = self.call(step_nid, orig, (prf, params, ak, am, counted_draw), {})
                st = self.state()
                st.bump("stego.draws", n)
                st.bump("stego.cutoffs", n > params.s)
                return doc

            return encode_step

        func("stego", "encode_step", make_step)
        decode_nid = self.nid("stego.decode")

        def make_decode(orig):
            def rejsam_decode(prf, params, ak, docs):
                self.state().bump("stego.decoded_docs", len(docs))
                return self.call(decode_nid, orig, (prf, params, ak, docs), {})

            return rejsam_decode

        func("stego", "rejsam_decode", make_decode)
        spans("stego", ["encode_all", "encode_schedule"], "stego.encode_all")

        # schemes: wrap the callable fields of every fixture built from now on
        returning(
            "schemes",
            ["randpad_scheme", "det_scheme"],
            lambda ses: fields(ses, gen="schemes.gen", enc="schemes.enc", dec="schemes.dec"),
        )
        returning(
            "schemes",
            ["sig_fixture"],
            lambda sig: fields(sig, gen="schemes.gen", sign="schemes.sign", vrfy="schemes.vrfy"),
        )

        # asa
        returning(
            "asa",
            ["asa_from_stego", "universal_asa", "generic_asa_against_alg"],
            lambda attack: fields(attack, enc="asa.enc", ext="asa.ext"),
        )
        spans("asa", ["asa_enc_all", "alg_enc_all"], "asa.enc_all")
        spans("asa", ["query_count"], "asa.query_count")

        # games: runners, plus one span per trial handed to _collect
        spans(
            "games",
            [
                "run_cpa_dist",
                "run_enc_asa_dist",
                "run_ss_cha_dist",
                "run_rasa_dist",
                "run_sig_forge",
                "estimate_unrel",
                "estimate_unrel_alg",
                "estimate_unrel_stego",
                "estimate_unrel_reboot",
                "merge_reports",
            ],
            "games.run",
        )
        trial_nid = self.nid("games.trial")

        def make_collect(orig):
            def _collect(trials, jobs, run_one):
                st = self.state()
                parent = st.stack[-1] if st.stack else None
                if parent is not None and parent[2] is None:
                    parent[2] = []  # created here, before any worker can append

                def traced_one(t):
                    return self.call(trial_nid, run_one, (t,), {}, foreign_parent=parent)

                return orig(trials, jobs, traced_one)

            return _collect

        func("games", "_collect", make_collect)

        # adversaries: strategies see a view whose oracle calls are spans
        oracle_nid = self.nid("games.oracle")

        class CountingView:
            __slots__ = ("_view",)

            def __init__(self, view):
                object.__setattr__(self, "_view", view)

            def __getattr__(self, name):
                attr = getattr(self._view, name)
                if name in _ORACLE_METHODS:
                    return lambda *a, **k: tracer.call(oracle_nid, attr, a, k)
                return attr

        strategy_nid = self.nid("adversaries.strategy")

        def adversary(adv):
            orig = adv.strategy

            def strategy(view, rng):
                return self.call(strategy_nid, orig, (CountingView(view), rng), {})

            return dataclasses.replace(adv, strategy=strategy)

        returning(
            "adversaries",
            [
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
            ],
            adversary,
        )

        # lowerbound: a "search" is one fabricate-and-search call; verifier
        # calls made inside it are counted on the same thread
        vrfy_nid = self.nid("schemes.vrfy")

        def search(name, fn):
            nid = self.nid(name)

            def wrapper(*args, **kwargs):
                st = self.state()
                before = st.calls[vrfy_nid]
                try:
                    return self.call(nid, fn, args, kwargs)
                finally:
                    st.bump("lowerbound.search_vrfy", st.calls[vrfy_nid] - before)
                    st.bump("lowerbound.searches")

            return wrapper

        def family(fam):
            alg = dataclasses.replace(fam.alg, run=self.span("lowerbound.family_run", fam.alg.run))
            return dataclasses.replace(fam, alg=alg)

        returning("lowerbound", ["make_signed_family"], family)
        returning(
            "lowerbound",
            ["fabricating_asa"],
            lambda a: dataclasses.replace(
                a, enc=search("lowerbound.fabricate", a.enc), ext=self.span("lowerbound.ext", a.ext)
            ),
        )
        returning(
            "lowerbound",
            ["forger_from_fabricating_asa"],
            lambda f: dataclasses.replace(f, strategy=search("lowerbound.forger", f.strategy)),
        )
        returning(
            "lowerbound",
            ["forger_from_universal_asa"],
            lambda f: dataclasses.replace(f, strategy=self.span("lowerbound.forger", f.strategy)),
        )
        spans("lowerbound", ["rate_report", "phi"], "lowerbound.run")

        # cli: parser construction and parsing, command bodies, emission
        cli = by_name["cli"]

        def make_parser(orig):
            def build_parser():
                parser = self.span("cli.build_parser", orig)()
                parser.parse_args = self.span("cli.parse_args", parser.parse_args)
                return parser

            return build_parser

        func("cli", "build_parser", make_parser)
        spans("cli", [n for n in vars(cli) if n.startswith("cmd_")], "cli.command")
        spans("cli", ["_emit"], "cli.emit")
        spans("cli", ["main"], "cli.main")

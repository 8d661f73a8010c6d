"""Monte Carlo security games and their reports.

Every game runs `trials` independent rounds. Round t draws all of its
randomness from named substreams of (seed, t): the challenge bit, key
material, the challenger's private oracle coins, and the adversary's own
coins each get a stream, and a public "sim" namespace carries service
randomness that is identical in both worlds. Because the streams are
addressed by name and not by draw order across components, a reduction
adapter replaying an adversary inside a different game reproduces its view
bit for bit, and the jobs knob cannot change any result. With jobs > 1 the
trial range is cut into contiguous chunks: the calling process runs the
first and forked worker processes run the rest, so the CPU-bound trials
really do run side by side, and the results are joined in trial order.

The challenger keeps the encoder state, as the paper's oracles do: a
watchdog or warden view holds sigma, from None at the start of each trial
across that trial's challenges, and its `ch` oracle takes only the
challenge and returns only the output. No adversary ever sees sigma.

Every runner is a thin wrapper over one trial driver, _play: the
distinguishing games share one hidden-bit trial body and differ only in
the oracles they build. An encryption scheme is a randomized algorithm
(alg_from_encryption draws exactly as the scheme does), so the encryption
watchdog game and reliability estimate are the algorithm ones, played on
the scheme, and every watchdog sees one kind of view.

Success counts come back as a GameReport: trials, successes, the success
frequency, the normalized advantage |2p - 1| where the game is a
distinguishing game, and Wilson 95% intervals for both. A distinguishing
report also keeps each trial's (hidden bit, guess) as its decisions, which
are never serialised: reduction tests compare them trial for trial.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .asa import SubstitutionAttack, alg_enc_all
from .bits import Bits
from .channels import Channel, channel_sample, channel_walk
from .errors import LengthMismatchError, ParameterError, SchemaMismatchError, SubvertLabError
from .rng import TrialStreams
from .schemes import (
    RandomizedAlgorithm,
    SignatureScheme,
    SymmetricEncryptionScheme,
    alg_from_encryption,
)
from .stego import StegoSystem, encode_all, encode_schedule

__all__ = [
    "SCHEMA",
    "Adversary",
    "GameReport",
    "wilson_ci",
    "advantage_and_ci",
    "merge_reports",
    "run_cpa_dist",
    "run_enc_asa_dist",
    "run_ss_cha_dist",
    "run_rasa_dist",
    "run_sig_forge",
    "estimate_unrel",
    "estimate_unrel_alg",
    "estimate_unrel_stego",
    "estimate_unrel_reboot",
    "random_composition",
]

SCHEMA = "subvertlab/1"

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Adversary:
    """A named strategy for one game role.

    kind: "attacker" (plain encryption game), "watchdog" (subverted-vs-real),
    "warden" (stego-vs-channel) or "forger". strategy(oracles, rng) returns
    the game's answer: a bit guess, or a (message, signature) pair.
    """

    kind: str
    name: str
    strategy: Callable


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z = _Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def advantage_and_ci(successes: int, trials: int) -> tuple[float, tuple[float, float]]:
    """Normalized advantage |2p - 1| with the Wilson interval pushed through.

    The interval's lower end is 0 exactly when the interval on p straddles
    one half, which is the "consistent with guessing" reading tests rely on.
    """
    p = successes / trials if trials else 0.5
    lo, hi = wilson_ci(successes, trials)
    ends = (abs(2 * lo - 1), abs(2 * hi - 1))
    if lo <= 0.5 <= hi:
        return abs(2 * p - 1), (0.0, max(ends))
    return abs(2 * p - 1), (min(ends), max(ends))


@dataclass(frozen=True)
class GameReport:
    game: str
    trials: int
    success_count: int
    p_hat: float
    normalized_advantage: float | None
    ci95: tuple[float, float]
    advantage_ci95: tuple[float, float] | None
    seed: int | None
    config: dict
    decisions: list | None = field(default=None, compare=False)

    @property
    def failure_rate(self) -> float:
        return 1.0 - self.p_hat

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "game": self.game,
            "trials": self.trials,
            "success_count": self.success_count,
            "p_hat": self.p_hat,
            "normalized_advantage": self.normalized_advantage,
            "ci95": list(self.ci95),
            "advantage_ci95": list(self.advantage_ci95) if self.advantage_ci95 else None,
            "seed": self.seed,
            "config": self.config,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "GameReport":
        if d.get("schema") != SCHEMA:
            raise SchemaMismatchError(f"expected schema {SCHEMA!r}, got {d.get('schema')!r}")
        for key in ("game", "trials", "success_count", "p_hat", "ci95"):
            if key not in d:
                raise ParameterError(f"report has no {key!r} key")
        trials, successes = d["trials"], d["success_count"]
        if not all(type(v) is int for v in (trials, successes)) or not 0 <= successes <= trials < 2**63:
            raise ParameterError("need integers 0 <= 'success_count' <= 'trials' < 2**63")
        if not isinstance(d["game"], str):
            raise ParameterError("'game' must be a string")
        if not isinstance(d["ci95"], list) or len(d["ci95"]) != 2:
            raise ParameterError("'ci95' must be a two-element list")
        adv_ci = d.get("advantage_ci95")
        if adv_ci is not None and not (isinstance(adv_ci, list) and len(adv_ci) == 2):
            raise ParameterError("'advantage_ci95' must be null or a two-element list")
        config = d.get("config", {})
        if not isinstance(config, dict):
            raise ParameterError("'config' must be an object")
        return GameReport(
            game=d["game"],
            trials=d["trials"],
            success_count=d["success_count"],
            p_hat=d["p_hat"],
            normalized_advantage=d.get("normalized_advantage"),
            ci95=tuple(d["ci95"]),
            advantage_ci95=tuple(adv_ci) if adv_ci else None,
            seed=d.get("seed"),
            config=config,
        )


def merge_reports(reports: Sequence[GameReport]) -> list[GameReport]:
    """Pool reports of the same game and config into combined estimates."""
    groups: dict[tuple, list[GameReport]] = {}
    for r in reports:
        key = (r.game, json.dumps(r.config, sort_keys=True))
        groups.setdefault(key, []).append(r)
    merged = []
    for (game, config_json), rs in groups.items():
        trials = sum(r.trials for r in rs)
        successes = sum(r.success_count for r in rs)
        distinguishing = any(r.normalized_advantage is not None for r in rs)
        adv, adv_ci = advantage_and_ci(successes, trials) if distinguishing else (None, None)
        config = json.loads(config_json)
        config["merged_from_seeds"] = [r.seed for r in rs]
        merged.append(
            GameReport(
                game=game,
                trials=trials,
                success_count=successes,
                p_hat=successes / trials if trials else 0.0,
                normalized_advantage=adv,
                ci95=wilson_ci(successes, trials),
                advantage_ci95=adv_ci,
                seed=None,
                config=config,
            )
        )
    return merged


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _collect(trials: int, jobs: int, run_one: Callable[[int], tuple]) -> list[tuple]:
    """run_one(t) for every trial t, in trial order.

    With more than one worker, range(trials) is cut into contiguous chunks;
    this process runs the first and a forked child runs each of the others.
    Every child is reaped, and the failure of the earliest failing chunk is
    raised, as the serial loop would raise its first failing trial's.
    """
    if trials <= 0:
        raise ParameterError("trials must be positive")
    workers = 1
    if jobs and jobs > 1 and hasattr(os, "fork"):
        workers = min(jobs, trials, _usable_cpus())
    if workers <= 1:
        return [run_one(t) for t in range(trials)]
    cuts = [trials * i // workers for i in range(workers + 1)]
    pending = []
    try:
        for i in range(1, workers):
            pending.append(_fork_chunk(range(cuts[i], cuts[i + 1]), run_one))
        results = [run_one(t) for t in range(cuts[1])]
        failure = None
        while pending:
            ok, value = _receive(*pending.pop(0))
            if ok:
                results.extend(value)
            elif failure is None:
                failure = value
    finally:
        # left only when this process failed first: its children's work is moot
        for pid, fd, _ in pending:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failure is not None:
        raise failure
    return results


def _fork_chunk(chunk: range, run_one) -> tuple[int, int, range]:
    """Fork a child that runs chunk and pickles the outcome into a pipe."""
    fd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(fd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, fd, chunk
    try:
        os.close(fd)
        try:
            results = [run_one(t) for t in chunk]
        except BaseException as exc:
            data = _pickled_failure(exc)
        else:
            try:
                data = pickle.dumps((True, results), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = _pickled_failure(
                    SubvertLabError(f"results of trials {chunk.start}..{chunk.stop - 1} "
                                    f"cannot leave the worker process: {exc!r}")
                )
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
    finally:
        # no atexit handlers, no second flush of buffers inherited from the parent
        os._exit(0)


def _pickled_failure(exc: BaseException) -> bytes:
    """(False, exc) pickled, or a SubvertLabError carrying exc's repr when
    exc does not survive a pickle round trip."""
    try:
        data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps((False, SubvertLabError(f"worker process raised {exc!r}")))


def _receive(pid: int, fd: int, chunk: range) -> tuple[bool, object]:
    """Read a child's pipe to EOF, then reap it; (ok, results or exception)."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if data:
        try:
            return pickle.loads(data)
        except Exception as exc:
            reason = f"sent an unreadable result ({exc!r})"
    else:
        reason = f"died without a result (exit code {os.waitstatus_to_exitcode(status)})"
    return False, SubvertLabError(
        f"worker process for trials {chunk.start}..{chunk.stop - 1} {reason}"
    )


def _play(game, config, trials, seed, jobs, run_one, distinguishing):
    """Run every trial through _collect and report the successes.

    run_one(t) returns (success, decision); a distinguishing game's report
    keeps the decisions, in trial order.
    """
    results = _collect(trials, jobs, run_one)
    successes = sum(1 for ok, _ in results if ok)
    adv, adv_ci = advantage_and_ci(successes, trials) if distinguishing else (None, None)
    return GameReport(
        game=game,
        trials=trials,
        success_count=successes,
        p_hat=successes / trials,
        normalized_advantage=adv,
        ci95=wilson_ci(successes, trials),
        advantage_ci95=adv_ci,
        seed=seed,
        config=config,
        decisions=[r for _, r in results] if distinguishing else None,
    )


# --- distinguishing games ---------------------------------------------------


def _distinguish(game, config, adversary, trials, seed, jobs, view):
    """The hidden-bit game: view(streams, b) builds the challenger's oracles
    for world b, and a trial succeeds when the adversary names b."""

    def run_one(t):
        streams = TrialStreams(seed, t)
        b = streams.get("b").randrange(2)
        guess = adversary.strategy(view(streams, b), streams.get("adv"))
        return guess == b, (b, guess)

    return _play(game, config, trials, seed, jobs, run_one, True)


class _CpaView:
    """Real-or-ideal encryption oracle under a hidden key."""

    def __init__(self, ses, b, oracle_rng, sim_rng):
        self.scheme = ses
        self.sim_rng = sim_rng
        self._ses, self._b, self._rng = ses, b, oracle_rng
        self._k = ses.gen(oracle_rng)

    def enc(self, m: Bits) -> Bits:
        if len(m) != self._ses.ml:
            raise LengthMismatchError(f"message must be {self._ses.ml} bits")
        if self._b == 0:
            return self._ses.enc_sample(self._k, m, self._rng)
        return Bits.random(self._ses.cl, self._rng)


def run_cpa_dist(
    ses: SymmetricEncryptionScheme,
    adversary: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GameReport:
    """Distinguish the scheme's encryptions from uniform strings."""

    def view(streams, b):
        return _CpaView(ses, b, streams.get("oracle"), streams.sim)

    config = {"scheme": ses.params_dict(), "adversary": adversary.name}
    return _distinguish("cpa-dist", config, adversary, trials, seed, jobs, view)


class _WatchdogView:
    """Watchdog's oracles: the subverted or the genuine algorithm, on the
    secrets and inputs the watchdog picks."""

    def __init__(self, attack, alg, ak, b, oracle_rng, sim_rng):
        self.alg = alg
        self.asa_ml = attack.ml
        self.sim_rng = sim_rng
        self._attack, self._ak, self._b, self._rng = attack, ak, b, oracle_rng
        self._sigma = None

    def ch(self, am, s, x):
        if len(am) != self.asa_ml:
            raise LengthMismatchError(f"hidden message must be {self.asa_ml} bits")
        if self._b == 0:
            y, self._sigma = self._attack.enc(self._ak, am, s, x, self._sigma, self._rng)
            return y
        return self.alg.run_sample(s, x, self._rng)


def _watchdog_game(game, attack, alg, adversary, trials, seed, jobs):
    def view(streams, b):
        ak = attack.gen(streams.get("ak"))
        return _WatchdogView(attack, alg, ak, b, streams.get("oracle"), streams.sim)

    config = {"attack": attack.describe(), "adversary": adversary.name}
    return _distinguish(game, config, adversary, trials, seed, jobs, view)


def run_enc_asa_dist(
    asa: SubstitutionAttack,
    ses: SymmetricEncryptionScheme,
    adversary: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GameReport:
    """Distinguish subverted encryption from the honest scheme: the
    algorithm game, played on the scheme as a randomized algorithm."""
    return _watchdog_game(
        "enc-asa-dist", asa, alg_from_encryption(ses), adversary, trials, seed, jobs
    )


def run_rasa_dist(
    attack: SubstitutionAttack,
    alg: RandomizedAlgorithm,
    adversary: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GameReport:
    """Distinguish a subverted randomized algorithm from the genuine one."""
    return _watchdog_game("rasa-dist", attack, alg, adversary, trials, seed, jobs)


class _SsChaView:
    """Warden's oracles: embed-or-sample at chosen histories, plus free sampling."""

    def __init__(self, steg, channel, ak, b, oracle_rng, sim_rng):
        self.channel = channel
        self.stego_ml = steg.params.ml
        self.sim_rng = sim_rng
        self._steg, self._ak, self._b, self._rng = steg, ak, b, oracle_rng
        self._sigma = None

    def ch(self, am, history):
        if len(am) != self.stego_ml:
            raise LengthMismatchError(f"hidden message must be {self.stego_ml} bits")
        steg = self._steg
        transparent = steg.transparent_at is not None and steg.transparent_at(history)
        rng = self.sim_rng("oracle-prefix") if transparent else self._rng
        draw = self.channel.session(history, rng).draw()
        if self._b == 0:
            doc, self._sigma = steg.enc(self._ak, am, history, self._sigma, draw=draw, rng=rng)
            return doc
        return draw()

    def channel_sample(self, history):
        return channel_sample(self.channel, history, self.sim_rng("channel"))


def run_ss_cha_dist(
    steg: StegoSystem,
    channel: Channel,
    adversary: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GameReport:
    """Distinguish embedded documents from the channel's own."""

    def view(streams, b):
        ak = steg.gen(streams.get("ak"))
        return _SsChaView(steg, channel, ak, b, streams.get("oracle"), streams.sim)

    config = {
        "system": steg.describe(),
        "channel": channel.descriptor,
        "adversary": adversary.name,
    }
    return _distinguish("ss-cha-dist", config, adversary, trials, seed, jobs, view)


# --- forging ----------------------------------------------------------------


class _ForgeView:
    def __init__(self, sig, pk, sk, oracle_rng, sim_rng):
        self.pk = pk
        self.params = sig.params_dict()
        self.vrfy = sig.vrfy
        self.search = sig.search
        self.sim_rng = sim_rng
        self.queried: set[Bits] = set()
        self._sig, self._sk, self._rng = sig, sk, oracle_rng

    def sign(self, m: Bits) -> Bits:
        self.queried.add(m)
        return self._sig.sign_sample(self._sk, m, self._rng)


def run_sig_forge(
    sig: SignatureScheme,
    forger: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GameReport:
    """Existential forgery against a signing oracle.

    A trial succeeds when the forger outputs (m, tag) with m never queried
    and the tag verifying under the public key.
    """

    def run_one(t):
        streams = TrialStreams(seed, t)
        sk, pk = sig.gen(streams.get("k"))
        view = _ForgeView(sig, pk, sk, streams.get("oracle"), streams.sim)
        out = forger.strategy(view, streams.get("adv"))
        if out is None:
            return False, None
        m, tag = out
        return m not in view.queried and sig.vrfy(pk, m, tag), None

    config = {"scheme": sig.params_dict(), "adversary": forger.name}
    return _play("sig-forge", config, trials, seed, jobs, run_one, False)


# --- reliability estimators -------------------------------------------------


def _unrel_sessions(game, attack, alg, trials, seed, mode_key, mode, jobs):
    """Recovery rate of the hidden message over full subverted sessions of alg.

    mode "random" draws a fresh input per position; "equal" repeats one
    input, the hardest honest case for rejection sampling.
    """
    if mode not in ("random", "equal"):
        raise ParameterError(f"unknown {mode_key}: {mode}")

    def run_one(t):
        rng = TrialStreams(seed, t).get("run")
        ak = attack.gen(rng)
        am = Bits.random(attack.ml, rng)
        s = alg.secret_gen(rng)
        if mode == "equal":
            inputs = [alg.input_gen(rng)] * attack.outl
        else:
            inputs = [alg.input_gen(rng) for _ in range(attack.outl)]
        ys = alg_enc_all(attack, ak, am, s, inputs, rng)
        return attack.ext(ak, ys) == am, None

    config = {"attack": attack.describe(), mode_key: mode}
    return _play(game, config, trials, seed, jobs, run_one, False)


def estimate_unrel(
    asa: SubstitutionAttack,
    ses: SymmetricEncryptionScheme,
    trials: int,
    seed: int,
    message_mode: str = "random",
    jobs: int = 1,
) -> GameReport:
    """Recovery rate of the hidden message across full subverted sessions.

    message_mode "random" draws a fresh host message per position; "equal"
    repeats one message. failure_rate on the report is the unreliability
    estimate.
    """
    alg = alg_from_encryption(ses)
    return _unrel_sessions(
        "enc-asa-unrel", asa, alg, trials, seed, "message_mode", message_mode, jobs
    )


def estimate_unrel_alg(
    attack: SubstitutionAttack,
    alg: RandomizedAlgorithm,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> GameReport:
    """Recovery rate for attacks on general randomized algorithms, with a
    fresh input per position (input_mode "random" in the config)."""
    return _unrel_sessions("rasa-unrel", attack, alg, trials, seed, "input_mode", "random", jobs)


def _unrel_embed(game, steg, channel, trials, seed, config, jobs, start):
    """Embed-then-decode recovery rate over the channel.

    start(t, rng) draws trial t's start before the key and returns
    (encoder, arg): encode_all with a start history, or encode_schedule
    with a reboot schedule.
    """

    def run_one(t):
        rng = TrialStreams(seed, t).get("run")
        encoder, arg = start(t, rng)
        ak = steg.gen(rng)
        am = Bits.random(steg.params.ml, rng)
        docs = encoder(steg, ak, am, arg, channel, rng)
        return steg.dec(ak, docs) == am, None

    config = {"system": steg.describe(), "channel": channel.descriptor, **config}
    return _play(game, config, trials, seed, jobs, run_one, False)


def estimate_unrel_stego(
    steg: StegoSystem,
    channel: Channel,
    trials: int,
    seed: int,
    history_mode: str = "empty",
    jobs: int = 1,
) -> GameReport:
    """Embed-then-extract recovery rate over the channel.

    history_mode "empty" starts every session at the empty history;
    "sampled" first walks the channel to a random depth of at most outl + 2,
    exercising embeddings that start mid-history.
    """
    if history_mode not in ("empty", "sampled"):
        raise ParameterError(f"unknown history_mode: {history_mode}")
    depth_cap = steg.params.outl + 2

    def start(t, rng):
        if history_mode == "sampled":
            return encode_all, channel_walk(channel, rng.randrange(0, depth_cap + 1), rng)
        return encode_all, ()

    config = {"history_mode": history_mode}
    return _unrel_embed("stego-unrel", steg, channel, trials, seed, config, jobs, start)


def random_composition(total: int, rng) -> list[int]:
    """Uniformly random-ish split of total into ordered positive parts."""
    parts = []
    left = total
    while left > 0:
        take = rng.randrange(1, left + 1)
        parts.append(take)
        left -= take
    return parts


def estimate_unrel_reboot(
    steg: StegoSystem,
    channel: Channel,
    trials: int,
    seed: int,
    schedules: Sequence[Sequence[int]] | None = None,
    jobs: int = 1,
) -> GameReport:
    """Recovery rate when the encoder state is wiped between segments.

    Each trial encodes under a reboot schedule (segment lengths summing to
    the output length, state reset to None at each boundary). With no
    schedules given, a fresh random composition is drawn per trial.
    """

    def start(t, rng):
        if schedules:
            return encode_schedule, list(schedules[t % len(schedules)])
        return encode_schedule, random_composition(steg.params.outl, rng)

    config = {"schedules": [list(s) for s in schedules] if schedules else "random-compositions"}
    return _unrel_embed("stego-unrel-reboot", steg, channel, trials, seed, config, jobs, start)

"""Monte Carlo security games and their reports.

Every game runs `trials` independent rounds. Round t draws all of its
randomness from named substreams of (seed, t): the challenge bit, key
material, the challenger's private oracle coins, and the adversary's own
coins each get a stream, and a public "sim" namespace carries service
randomness that is identical in both worlds. Because the streams are
addressed by name and not by draw order across components, a reduction
adapter replaying an adversary inside a different game reproduces its view
bit for bit, and the jobs knob cannot change any result (threads only help
when trials block on something; the work here is CPU-bound, so expect
determinism from the knob, not speed).

Success counts come back as a GameReport: trials, successes, the success
frequency, the normalized advantage |2p - 1| where the game is a
distinguishing game, and Wilson 95% intervals for both.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .asa import AlgSubstitutionAttack, SubstitutionAttack, asa_enc_all, alg_enc_all
from .bits import Bits
from .channels import Channel, channel_sample, channel_walk, check_history, draw_next
from .errors import LengthMismatchError, ParameterError, SchemaMismatchError
from .rng import TrialStreams
from .schemes import RandomizedAlgorithm, SignatureScheme, SymmetricEncryptionScheme
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
    description: str
    strategy: Callable

    def describe(self) -> dict:
        return {"kind": self.kind, "name": self.name, "description": self.description}


def wilson_ci(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
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
        return GameReport(
            game=d["game"],
            trials=d["trials"],
            success_count=d["success_count"],
            p_hat=d["p_hat"],
            normalized_advantage=d.get("normalized_advantage"),
            ci95=tuple(d["ci95"]),
            advantage_ci95=tuple(d["advantage_ci95"]) if d.get("advantage_ci95") else None,
            seed=d.get("seed"),
            config=d.get("config", {}),
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


def _collect(trials: int, jobs: int, run_one: Callable[[int], tuple]) -> list[tuple]:
    if trials <= 0:
        raise ParameterError("trials must be positive")
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_one, range(trials)))
    return [run_one(t) for t in range(trials)]


def _report(game, trials, seed, config, results, distinguishing, record=False):
    successes = sum(1 for ok, _ in results if ok)
    p = successes / trials
    adv, adv_ci = advantage_and_ci(successes, trials) if distinguishing else (None, None)
    return GameReport(
        game=game,
        trials=trials,
        success_count=successes,
        p_hat=p,
        normalized_advantage=adv,
        ci95=wilson_ci(successes, trials),
        advantage_ci95=adv_ci,
        seed=seed,
        config=config,
        decisions=[r for _, r in results] if record else None,
    )


# --- distinguishing games ---------------------------------------------------


class _CpaView:
    """Real-or-ideal encryption oracle under a hidden key."""

    def __init__(self, ses, b, oracle_rng, sim_rng):
        self.scheme = ses
        self.sim_rng = sim_rng
        self._ses, self._b, self._rng = ses, b, oracle_rng
        k = ses.gen(oracle_rng)
        self._k = k

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
    record: bool = False,
) -> GameReport:
    """Distinguish the scheme's encryptions from uniform strings."""

    def run_one(t):
        streams = TrialStreams(seed, t)
        b = streams.get("b").randrange(2)
        view = _CpaView(ses, b, streams.get("oracle"), streams.sim)
        guess = adversary.strategy(view, streams.get("adv"))
        return guess == b, (b, guess)

    config = {"scheme": ses.params_dict(), "adversary": adversary.name}
    return _report(
        "cpa-dist", trials, seed, config, _collect(trials, jobs, run_one), True, record
    )


class _EncAsaView:
    """Watchdog's oracles: subverted or honest encryption, watchdog's choice of inputs."""

    def __init__(self, asa, ses, ak, b, oracle_rng, sim_rng):
        self.scheme = ses
        self.asa_ml = asa.ml
        self.asa_outl = asa.outl
        self.sim_rng = sim_rng
        self._asa, self._ses, self._ak, self._b, self._rng = asa, ses, ak, b, oracle_rng

    def ch(self, am, k, m, sigma):
        if len(am) != self.asa_ml:
            raise LengthMismatchError(f"hidden message must be {self.asa_ml} bits")
        if self._b == 0:
            return self._asa.enc(self._ak, am, k, m, sigma, self._rng)
        return self._ses.enc_sample(k, m, self._rng), sigma


def run_enc_asa_dist(
    asa: SubstitutionAttack,
    ses: SymmetricEncryptionScheme,
    adversary: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
    record: bool = False,
) -> GameReport:
    """Distinguish subverted encryption from the honest scheme."""

    def run_one(t):
        streams = TrialStreams(seed, t)
        b = streams.get("b").randrange(2)
        ak = asa.gen(streams.get("ak"))
        view = _EncAsaView(asa, ses, ak, b, streams.get("oracle"), streams.sim)
        guess = adversary.strategy(view, streams.get("adv"))
        return guess == b, (b, guess)

    config = {"attack": asa.describe(), "adversary": adversary.name}
    return _report(
        "enc-asa-dist", trials, seed, config, _collect(trials, jobs, run_one), True, record
    )


class _SsChaView:
    """Warden's oracles: embed-or-sample at chosen histories, plus free sampling."""

    def __init__(self, steg, channel, ak, b, oracle_rng, sim_rng):
        self.channel = channel
        self.stego_ml = steg.params.ml
        self.stego_outl = steg.params.outl
        self.sim_rng = sim_rng
        self._steg, self._ak, self._b, self._rng = steg, ak, b, oracle_rng

    def ch(self, am, history, sigma):
        if len(am) != self.stego_ml:
            raise LengthMismatchError(f"hidden message must be {self.stego_ml} bits")
        steg = self._steg
        transparent = steg.transparent_at is not None and steg.transparent_at(history)
        rng = self.sim_rng("oracle-prefix") if transparent else self._rng
        check_history(self.channel, history)

        def draw():
            return draw_next(self.channel, history, rng)

        if self._b == 0:
            return steg.enc(self._ak, am, history, sigma, draw=draw, rng=rng)
        return draw(), sigma

    def channel_sample(self, history):
        return channel_sample(self.channel, history, self.sim_rng("channel"))


def run_ss_cha_dist(
    steg: StegoSystem,
    channel: Channel,
    adversary: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
    record: bool = False,
) -> GameReport:
    """Distinguish embedded documents from the channel's own."""

    def run_one(t):
        streams = TrialStreams(seed, t)
        b = streams.get("b").randrange(2)
        ak = steg.gen(streams.get("ak"))
        view = _SsChaView(steg, channel, ak, b, streams.get("oracle"), streams.sim)
        guess = adversary.strategy(view, streams.get("adv"))
        return guess == b, (b, guess)

    config = {
        "system": steg.describe(),
        "channel": channel.descriptor,
        "adversary": adversary.name,
    }
    return _report(
        "ss-cha-dist", trials, seed, config, _collect(trials, jobs, run_one), True, record
    )


class _RasaView:
    """Watchdog's oracles against a subverted randomized algorithm."""

    def __init__(self, attack, alg, ak, b, oracle_rng, sim_rng):
        self.alg = alg
        self.asa_ml = attack.ml
        self.asa_outl = attack.outl
        self.sim_rng = sim_rng
        self._attack, self._ak, self._b, self._rng = attack, ak, b, oracle_rng

    def ch(self, am, s, x, sigma):
        if len(am) != self.asa_ml:
            raise LengthMismatchError(f"hidden message must be {self.asa_ml} bits")
        if self._b == 0:
            return self._attack.enc(self._ak, am, s, x, sigma, self._rng)
        return self.alg.run_sample(s, x, self._rng), sigma


def run_rasa_dist(
    attack: AlgSubstitutionAttack,
    alg: RandomizedAlgorithm,
    adversary: Adversary,
    trials: int,
    seed: int,
    jobs: int = 1,
    record: bool = False,
) -> GameReport:
    """Distinguish a subverted randomized algorithm from the genuine one."""

    def run_one(t):
        streams = TrialStreams(seed, t)
        b = streams.get("b").randrange(2)
        ak = attack.gen(streams.get("ak"))
        view = _RasaView(attack, alg, ak, b, streams.get("oracle"), streams.sim)
        guess = adversary.strategy(view, streams.get("adv"))
        return guess == b, (b, guess)

    config = {"attack": attack.describe(), "adversary": adversary.name}
    return _report(
        "rasa-dist", trials, seed, config, _collect(trials, jobs, run_one), True, record
    )


# --- forging ----------------------------------------------------------------


class _ForgeView:
    def __init__(self, sig, pk, sk, oracle_rng, sim_rng):
        self.pk = pk
        self.params = sig.params_dict()
        self.vrfy = sig.vrfy
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
    return _report("sig-forge", trials, seed, config, _collect(trials, jobs, run_one), False)


# --- reliability estimators -------------------------------------------------


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
    repeats one message, the hardest honest case for rejection sampling.
    failure_rate on the report is the unreliability estimate.
    """
    if message_mode not in ("random", "equal"):
        raise ParameterError(f"unknown message_mode: {message_mode}")

    def run_one(t):
        rng = TrialStreams(seed, t).get("run")
        ak = asa.gen(rng)
        am = Bits.random(asa.ml, rng)
        k = ses.gen(rng)
        if message_mode == "equal":
            m = Bits.random(ses.ml, rng)
            messages = [m] * asa.outl
        else:
            messages = [Bits.random(ses.ml, rng) for _ in range(asa.outl)]
        cs = asa_enc_all(asa, ak, am, k, messages, rng)
        return asa.ext(ak, cs) == am, None

    config = {"attack": asa.describe(), "message_mode": message_mode}
    return _report("enc-asa-unrel", trials, seed, config, _collect(trials, jobs, run_one), False)


def estimate_unrel_alg(
    attack: AlgSubstitutionAttack,
    alg: RandomizedAlgorithm,
    trials: int,
    seed: int,
    input_mode: str = "random",
    jobs: int = 1,
) -> GameReport:
    """Recovery rate for attacks on general randomized algorithms."""
    if input_mode not in ("random", "equal"):
        raise ParameterError(f"unknown input_mode: {input_mode}")

    def run_one(t):
        rng = TrialStreams(seed, t).get("run")
        ak = attack.gen(rng)
        am = Bits.random(attack.ml, rng)
        s = alg.secret_gen(rng)
        if input_mode == "equal":
            x = alg.input_gen(rng)
            inputs = [x] * attack.outl
        else:
            inputs = [alg.input_gen(rng) for _ in range(attack.outl)]
        ys = alg_enc_all(attack, ak, am, s, inputs, rng)
        return attack.ext(ak, ys) == am, None

    config = {"attack": attack.describe(), "input_mode": input_mode}
    return _report("rasa-unrel", trials, seed, config, _collect(trials, jobs, run_one), False)


def estimate_unrel_stego(
    steg: StegoSystem,
    channel: Channel,
    trials: int,
    seed: int,
    history_mode: str = "empty",
    max_depth: int | None = None,
    jobs: int = 1,
) -> GameReport:
    """Embed-then-extract recovery rate over the channel.

    history_mode "empty" starts every session at the empty history;
    "sampled" walks the channel to a random depth first, exercising
    embeddings that start mid-history.
    """
    if history_mode not in ("empty", "sampled"):
        raise ParameterError(f"unknown history_mode: {history_mode}")
    depth_cap = max_depth if max_depth is not None else steg.params.outl + 2

    def run_one(t):
        rng = TrialStreams(seed, t).get("run")
        if history_mode == "sampled":
            h = channel_walk(channel, rng.randrange(0, depth_cap + 1), rng)
        else:
            h = ()
        ak = steg.gen(rng)
        am = Bits.random(steg.params.ml, rng)
        docs = encode_all(steg, ak, am, h, channel, rng)
        return steg.dec(ak, docs) == am, None

    config = {
        "system": steg.describe(),
        "channel": channel.descriptor,
        "history_mode": history_mode,
    }
    return _report("stego-unrel", trials, seed, config, _collect(trials, jobs, run_one), False)


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

    def run_one(t):
        rng = TrialStreams(seed, t).get("run")
        if schedules:
            schedule = list(schedules[t % len(schedules)])
        else:
            schedule = random_composition(steg.params.outl, rng)
        ak = steg.gen(rng)
        am = Bits.random(steg.params.ml, rng)
        docs = encode_schedule(steg, ak, am, schedule, channel, rng)
        return steg.dec(ak, docs) == am, None

    config = {
        "system": steg.describe(),
        "channel": channel.descriptor,
        "schedules": [list(s) for s in schedules] if schedules else "random-compositions",
    }
    return _report(
        "stego-unrel-reboot", trials, seed, config, _collect(trials, jobs, run_one), False
    )

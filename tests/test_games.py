"""Game reports, interval arithmetic, and the Monte Carlo runners."""

import dataclasses
import json
import os
import pickle
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from subvertlab import (
    Adversary,
    Bits,
    GameReport,
    ParameterError,
    SchemaMismatchError,
    StegoParams,
    SubvertLabError,
    advantage_and_ci,
    alg_enc_all,
    alg_from_encryption,
    alg_from_signing,
    asa_enc_all,
    asa_from_stego,
    chi2_watchdog,
    constant_guess,
    default_watchdogs,
    det_scheme,
    estimate_unrel,
    estimate_unrel_alg,
    estimate_unrel_reboot,
    estimate_unrel_stego,
    fabricating_asa,
    forger_from_fabricating_asa,
    generic_asa_against_alg,
    make_signed_family,
    merge_reports,
    query_count,
    randpad_scheme,
    random_composition,
    random_forger,
    random_guess,
    rate_report,
    rejsam_system,
    repeat_attacker,
    repeat_warden,
    repeat_watchdog,
    replay_forger,
    run_cpa_dist,
    run_enc_asa_dist,
    run_rasa_dist,
    run_sig_forge,
    run_ss_cha_dist,
    search_forger,
    ses_channel,
    sig_fixture,
    uniform_channel,
    watchdog_to_warden,
    wilson_ci,
    wrapped_warden_to_watchdog,
)
from subvertlab import cli, games, rng
from subvertlab.channels import channel_sample
from subvertlab.rng import TrialStreams, substream

import oracles


def test_wilson_interval_matches_reference():
    for successes, trials in ((0, 10), (10, 10), (7, 13), (493, 1000), (1, 2)):
        lo, hi = wilson_ci(successes, trials)
        ref_lo, ref_hi = oracles.wilson_reference(successes, trials)
        assert lo == pytest.approx(ref_lo, abs=1e-12)
        assert hi == pytest.approx(ref_hi, abs=1e-12)
        p = successes / trials
        assert 0.0 <= lo <= p + 1e-12 and p - 1e-12 <= hi <= 1.0
    assert wilson_ci(0, 0) == (0.0, 1.0)


def test_advantage_interval_straddle_reading():
    # near one half the interval on p straddles it: lower advantage end is 0
    adv, (lo, hi) = advantage_and_ci(55, 100)
    assert adv == pytest.approx(0.10)
    assert lo == 0.0 and hi > 0.0
    # far from one half it does not
    adv_hi, (lo_hi, _) = advantage_and_ci(90, 100)
    assert adv_hi == pytest.approx(0.80) and lo_hi > 0.0
    # advantage is two-sided: being reliably wrong is also distinguishing
    adv_lo, ci_lo = advantage_and_ci(10, 100)
    assert adv_lo == pytest.approx(adv_hi) and ci_lo == pytest.approx((lo_hi, _))


def test_report_json_roundtrip_and_schema_guard():
    ses = randpad_scheme(r=2, kappa=16, ml=8)
    report = run_cpa_dist(ses, repeat_attacker(), trials=50, seed=1)
    again = GameReport.from_json_dict(report.to_json_dict())
    assert again == report
    assert again.failure_rate == pytest.approx(1.0 - report.p_hat)
    bad = report.to_json_dict() | {"schema": "subvertlab/0"}
    with pytest.raises(SchemaMismatchError):
        GameReport.from_json_dict(bad)


def test_merge_pools_same_configuration_only():
    ses = randpad_scheme(r=2, kappa=16, ml=8)
    a = run_cpa_dist(ses, repeat_attacker(), trials=100, seed=1)
    b = run_cpa_dist(ses, repeat_attacker(), trials=200, seed=2)
    other = run_cpa_dist(ses, random_guess(), trials=50, seed=3)
    merged = merge_reports([a, b, other])
    assert len(merged) == 2
    pooled = next(m for m in merged if m.config.get("merged_from_seeds") == [1, 2])
    assert pooled.trials == 300
    assert pooled.success_count == a.success_count + b.success_count
    assert pooled.seed is None
    assert pooled.normalized_advantage is not None


def test_runs_are_reproducible_and_job_count_free():
    ses = randpad_scheme(r=2, kappa=16, ml=8)
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=16, kappa=16))
    channel = uniform_channel(8)
    r1 = run_ss_cha_dist(steg, channel, random_guess(), trials=80, seed=4)
    r2 = run_ss_cha_dist(steg, channel, random_guess(), trials=80, seed=4)
    r4 = run_ss_cha_dist(steg, channel, random_guess(), trials=80, seed=4, jobs=4)
    assert r1 == r2 == r4
    other = run_ss_cha_dist(steg, channel, random_guess(), trials=80, seed=5)
    assert other.seed != r1.seed
    with pytest.raises(ParameterError):
        run_cpa_dist(ses, random_guess(), trials=0, seed=0)


def test_repeat_attacker_hits_the_collision_advantage():
    # two coins bits: a repeated message collides 1/4 of the time under the
    # real scheme and (almost) never under uniform, so the true advantage
    # is 1/4 up to the 2^-cl ideal-world collision term
    ses = randpad_scheme(r=2, kappa=16, ml=8)
    report = run_cpa_dist(ses, repeat_attacker(), trials=3000, seed=7)
    assert report.normalized_advantage == pytest.approx(0.25, abs=0.06)
    assert report.advantage_ci95[0] > 0.0


def test_blind_baselines_are_consistent_with_guessing():
    ses = randpad_scheme(r=2, kappa=16, ml=8)
    for adversary in (constant_guess(), random_guess()):
        report = run_cpa_dist(ses, adversary, trials=400, seed=11)
        assert report.advantage_ci95[0] == 0.0


def test_forgery_game_grades_the_three_forgers():
    sig = sig_fixture("coin-extractable", kappa=16, ml=8, coin_bits=8, tag_bits=8)
    found = run_sig_forge(sig, search_forger(budget=2048), trials=30, seed=2)
    assert found.p_hat >= 0.9
    replay = run_sig_forge(sig, replay_forger(), trials=60, seed=2)
    assert replay.p_hat == 0.0  # a queried message never counts
    blind = run_sig_forge(sig, random_forger(), trials=100, seed=2)
    assert blind.p_hat <= 0.05
    assert found.normalized_advantage is None  # forgery is not a guessing game


def test_reliability_estimator_modes():
    ses = randpad_scheme(r=8, kappa=16, ml=8)
    steg = rejsam_system(StegoParams(ml=4, s=16, outl=24, kappa=16))
    asa = asa_from_stego(steg, ses)
    with pytest.raises(ParameterError):
        estimate_unrel(asa, ses, trials=5, seed=0, message_mode="zigzag")

    channel = uniform_channel(16)
    empty = estimate_unrel_stego(steg, channel, trials=40, seed=3)
    walked = estimate_unrel_stego(steg, channel, trials=40, seed=3, history_mode="sampled")
    assert empty.p_hat >= 0.9 and walked.p_hat >= 0.9
    assert empty.config["history_mode"] == "empty"
    assert walked.config["history_mode"] == "sampled"
    with pytest.raises(ParameterError):
        estimate_unrel_stego(steg, channel, trials=5, seed=0, history_mode="hop")


@pytest.mark.parametrize("host", ["randpad", "det"])
def test_encryption_games_are_the_algorithm_games_on_the_scheme(host):
    # an encryption scheme is one randomized algorithm: the encryption
    # watchdog game and reliability estimate are the algorithm ones, trial
    # for trial, on alg_from_encryption(ses)
    ses = randpad_scheme(r=2, kappa=16, ml=8) if host == "randpad" else det_scheme(16, 8)
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=16, kappa=16))
    asa = asa_from_stego(steg, ses)
    alg = alg_from_encryption(ses)
    for wd in (repeat_watchdog(), chi2_watchdog(queries=8)):
        enc = run_enc_asa_dist(asa, ses, wd, trials=40, seed=6)
        gen = run_rasa_dist(asa, alg, wd, trials=40, seed=6)
        assert enc.decisions == gen.decisions, wd.name
        assert (enc.game, gen.game) == ("enc-asa-dist", "rasa-dist")
    enc = estimate_unrel(asa, ses, trials=12, seed=6)
    gen = estimate_unrel_alg(asa, alg, trials=12, seed=6)
    assert enc.success_count == gen.success_count
    assert enc.config["message_mode"] == gen.config["input_mode"] == "random"


# --- a coin-free host: advantage bound 0 -------------------------------------
#
# A deterministic host leaves the rejection sampler no choice, so its
# subverted outputs are its honest ones: no watchdog can tell the attack
# from the genuine algorithm (BPR, CRYPTO 2014; AMV, CCS 2015).


@pytest.mark.parametrize("host", ["det", "unique"])
def test_a_coin_free_attack_decides_as_its_honest_stand_in(host):
    # trial for trial, each stock watchdog guesses against the attack what
    # it guesses against the genuine algorithm, in both worlds
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=16, kappa=16))
    if host == "det":
        ses = det_scheme(16, 8)
        attack, alg = asa_from_stego(steg, ses), alg_from_encryption(ses)

        def run(attack, wd):
            return run_enc_asa_dist(attack, ses, wd, trials=80, seed=11)
    else:
        alg = alg_from_signing(sig_fixture("unique", 16, ml=8, tag_bits=8))
        attack = generic_asa_against_alg(steg, alg)

        def run(attack, wd):
            return run_rasa_dist(attack, alg, wd, trials=80, seed=11)

    def honest_enc(ak, am, s, x, sigma, rng):  # the genuine algorithm's run
        return alg.run_sample(s, x, rng), sigma

    assert alg.coin_bits == 0
    honest = dataclasses.replace(attack, enc=honest_enc)
    for wd in default_watchdogs():
        subverted = run(attack, wd)
        assert {b for b, _ in subverted.decisions} == {0, 1}, wd.name
        assert subverted.decisions == run(honest, wd).decisions, wd.name


@pytest.mark.parametrize("host", ["det", "randpad"])
def test_the_free_channel_oracle_samples_the_public_channel_stream(host):
    # in both worlds, the ss-cha view's channel_sample(h) of trial t is
    # channel_sample(channel, h, substream(seed, t, "sim", "channel")); on
    # a point-mass channel the challenge oracle returns that same document
    ses = det_scheme(16, 8) if host == "det" else randpad_scheme(r=8, kappa=16, ml=8)
    channel = ses_channel(ses, 2)
    steg = rejsam_system(StegoParams(ml=4, s=16, outl=24, kappa=16))
    seen = []

    def strategy(view, rng):
        streams = view._streams
        am = Bits.random(view.stego_ml, rng)
        h = (ses.gen(rng),) + (Bits.random(ses.ml, rng),) * 2
        doc = view.channel_sample(h)
        ref = substream(streams.seed, streams.trial, "sim", "channel")
        seen.append((doc, channel_sample(channel, h, ref), view.ch(am, h)))
        return doc.uint & 1

    report = run_ss_cha_dist(steg, channel, Adversary("channel-reader", strategy), 40, seed=12)
    assert {b for b, _ in report.decisions} == {0, 1} and len(seen) == 40
    assert all(doc == ref for doc, ref, _ in seen)
    if host == "det":
        assert all(doc == challenged for doc, _, challenged in seen)


def test_random_compositions_partition_the_total():
    rng = random.Random(9)
    for _ in range(200):
        total = rng.randrange(1, 60)
        parts = random_composition(total, rng)
        assert sum(parts) == total
        assert all(p >= 1 for p in parts)


# --- the challenger keeps the encoder state ----------------------------------

_SIGMA = object()  # the state every spied encoder hands back


class _StateSpy:
    """Spied encoders log the state each call is handed, one list per trial,
    and return _SIGMA as the next state; spied strategies open each trial's
    list and keep everything their view's ch returns."""

    def __init__(self):
        self.handed = []
        self.returned = []

    def stego(self, steg):
        def enc(ak, am, history, sigma, *, draw, rng):
            self.handed[-1].append(sigma)
            return steg.enc(ak, am, history, None, draw=draw, rng=rng)[0], _SIGMA

        return dataclasses.replace(steg, enc=enc)

    def attack(self, attack):
        def enc(ak, am, s, x, sigma, rng):
            self.handed[-1].append(sigma)
            return attack.enc(ak, am, s, x, None, rng)[0], _SIGMA

        return dataclasses.replace(attack, enc=enc)

    def watchdog(self):
        def strategy(view, rng):
            self.handed.append([])
            am = Bits.random(view.asa_ml, rng)
            s, x = view.alg.secret_gen(rng), view.alg.input_gen(rng)
            self.returned += [view.ch(am, s, x) for _ in range(3)]
            return 0

        return Adversary(name="state-spy", strategy=strategy)

    def warden(self):
        def strategy(view, rng):
            self.handed.append([])
            am = Bits.random(view.stego_ml, rng)
            desc = view.channel.descriptor
            key, m = Bits.random(desc["kappa"], rng), Bits.random(desc["in_bits"], rng)
            history = (key,) + (m,) * desc["ell"]
            self.returned += [view.ch(am, history) for _ in range(3)]
            return 0

        return Adversary(name="state-spy", strategy=strategy)


@pytest.mark.parametrize("game", ["ss-cha", "watchdog", "watchdog-as-warden", "warden-as-watchdog"])
def test_no_oracle_hands_the_encoder_state_to_an_adversary(game):
    steg = rejsam_system(StegoParams(ml=4, s=16, outl=24, kappa=16))
    ses = randpad_scheme(r=8, kappa=16, ml=8)
    ell = 2
    channel = ses_channel(ses, ell)
    spy = _StateSpy()
    if game == "ss-cha":
        run_ss_cha_dist(spy.stego(steg), channel, spy.warden(), trials=8, seed=1)
    elif game == "watchdog":
        alg = alg_from_encryption(ses)
        attack = spy.attack(generic_asa_against_alg(steg, alg))
        run_rasa_dist(attack, alg, spy.watchdog(), trials=8, seed=1)
    elif game == "watchdog-as-warden":
        warden = watchdog_to_warden(spy.watchdog(), ses, ell)
        run_ss_cha_dist(spy.stego(steg), channel, warden, trials=8, seed=1)
    else:
        watchdog = wrapped_warden_to_watchdog(spy.warden(), ses, ell)
        run_enc_asa_dist(spy.attack(asa_from_stego(steg, ses)), ses, watchdog, 8, seed=1)
    # the adversary only ever gets documents back, never the state
    assert len(spy.returned) == 3 * 8
    assert all(type(y) is Bits for y in spy.returned)
    # the oracle threads the state within a trial and starts each trial at
    # None; the honest world (b = 1) never calls the encoder
    assert len(spy.handed) == 8
    embedded = [states for states in spy.handed if states]
    assert embedded and len(embedded) < 8
    assert all(states == [None, _SIGMA, _SIGMA] for states in embedded)


@pytest.mark.parametrize("replaced", ["attack", "stego"])
def test_drivers_call_a_replaced_encoder_once_per_emission(replaced):
    # on a coin-free host the plain attack has a session form; a replaced
    # enc has none, so asa_enc_all and alg_enc_all thread the state through
    # one spied call per emission, from None, and emit what the unspied
    # session form emits
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=6, kappa=16))
    ses = det_scheme(kappa=16, ml=8)
    spy = _StateSpy()
    plain = asa_from_stego(steg, ses)
    attack = spy.attack(plain) if replaced == "attack" else asa_from_stego(spy.stego(steg), ses)
    assert callable(plain.enc.session) and not hasattr(attack.enc, "session")
    setup = random.Random(61)
    ak, am, k = steg.gen(setup), Bits.random(4, setup), ses.gen(setup)
    ms = [Bits.random(ses.ml, setup) for _ in range(6)]
    for drive in (asa_enc_all, alg_enc_all):
        spy.handed.append([])
        docs = drive(attack, ak, am, k, ms, random.Random(62))
        assert spy.handed[-1] == [None] + [_SIGMA] * 5
        assert docs == drive(plain, ak, am, k, ms, random.Random(62))


# --- trials in forked chunks -------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Pretend to have eight usable CPUs and count the forks requested."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(games, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rate_fixture():
    """A signed family, the fabricating attack on it and its forger."""
    fam_ses = randpad_scheme(r=8, kappa=16, ml=8)
    fam_sig = sig_fixture("coin-extractable", kappa=16, ml=fam_ses.cl, coin_bits=8, tag_bits=8)
    family = make_signed_family(fam_ses, fam_sig, random.Random(0))
    fab = fabricating_asa(family, ml=8, decoys=4, budget=1024)
    fab_forger = forger_from_fabricating_asa(fam_ses, fam_sig, ml=8, decoys=4, budget=1024)
    return family, fab, fab_forger


def _runners():
    ses = randpad_scheme(r=2, kappa=16, ml=8)
    steg = rejsam_system(StegoParams(ml=4, s=8, outl=16, kappa=16))
    asa = asa_from_stego(steg, ses)
    alg = alg_from_encryption(ses)
    attack = generic_asa_against_alg(steg, alg)
    channel = uniform_channel(8)
    sig = sig_fixture("coin-extractable", kappa=16, ml=8, coin_bits=8, tag_bits=8)
    family, fab, fab_forger = _rate_fixture()
    return {
        "cpa": lambda t, j: run_cpa_dist(ses, repeat_attacker(), t, 3, jobs=j),
        "enc-asa": lambda t, j: run_enc_asa_dist(asa, ses, repeat_watchdog(), t, 3, jobs=j),
        "ss-cha": lambda t, j: run_ss_cha_dist(steg, channel, repeat_warden(), t, 3, jobs=j),
        "rasa": lambda t, j: run_rasa_dist(attack, alg, repeat_watchdog(), t, 3, jobs=j),
        "forge": lambda t, j: run_sig_forge(sig, search_forger(budget=256), t, 3, jobs=j),
        "unrel": lambda t, j: estimate_unrel(asa, ses, t, 3, jobs=j),
        "unrel-alg": lambda t, j: estimate_unrel_alg(attack, alg, t, 3, jobs=j),
        "unrel-stego": lambda t, j: estimate_unrel_stego(
            steg, channel, t, 3, history_mode="sampled", jobs=j
        ),
        "unrel-reboot": lambda t, j: estimate_unrel_reboot(steg, channel, t, 3, jobs=j),
        "rate": lambda t, j: rate_report(family, fab, 5.0, fab_forger, t, 3, jobs=j),
        "query-count": lambda t, j: query_count(steg, ses, t, 3, jobs=j),
    }


@pytest.mark.parametrize("name", list(_runners()))
def test_every_runner_is_job_count_free(name, forks):
    run = _runners()[name]
    serial = run(7, 1)
    assert not forks
    for jobs in (2, 3):
        forks.clear()
        again = run(7, jobs)
        assert again == serial, (name, jobs)
        if isinstance(serial, GameReport):
            assert again.decisions == serial.decisions  # same trial order
        # rate_report plays its five legs on one set of workers
        assert len(forks) == jobs - 1
    assert_no_children_left()


def _failing_play(name, fail_at):
    def run_one(t):
        if t in fail_at:
            raise ParameterError(f"{name} trial {t} rejected")
        return True, None

    return games._Play(name, {}, 4, 0, run_one, False)


def test_a_failing_trial_in_a_later_play_surfaces_as_the_serial_run_raises_it(forks):
    # twelve trials end to end; at jobs 3, play b's trial 3 and play c's
    # trial 0 run in different workers, and the earlier one is raised
    plays = [_failing_play("a", ()), _failing_play("b", {3}), _failing_play("c", {0})]
    for jobs in (1, 2, 3):
        with pytest.raises(ParameterError, match="^b trial 3 rejected$"):
            games._play_all(plays, jobs)
    assert len(forks) == 1 + 2  # one set of workers per call at jobs 2 and 3
    assert_no_children_left()

    # the rate report's last leg, forgery, fails in a worker as it does serially
    def strategy(view, rng):
        raise ParameterError("forger rejected")

    family, fab, _ = _rate_fixture()
    for jobs in (1, 3):
        with pytest.raises(ParameterError, match="^forger rejected$"):
            rate_report(family, fab, 5.0, Adversary("boom", strategy), 7, 3, jobs=jobs)
    assert_no_children_left()


def test_chunks_run_in_children_and_come_back_in_trial_order(forks):
    parent = os.getpid()
    results = games._collect(7, 3, lambda t: (t, os.getpid(), Bits(t, 3)))
    assert [t for t, _, _ in results] == list(range(7))
    assert [b for _, _, b in results] == [Bits(t, 3) for t in range(7)]
    pids = [pid for _, pid, _ in results]
    # contiguous chunks 0-1, 2-3, 4-6; the caller runs the first
    assert pids[:2] == [parent, parent] and parent not in pids[2:]
    assert pids[2] == pids[3] != pids[4] == pids[5] == pids[6]
    assert len(forks) == 2
    assert_no_children_left()


def test_workers_are_bounded_by_jobs_trials_and_cpus(forks, monkeypatch):
    games._collect(2, 3, lambda t: (True, None))
    assert len(forks) == 1  # trials - 1
    forks.clear()
    games._collect(9, 1, lambda t: (True, None))
    assert not forks
    monkeypatch.setattr(games, "_usable_cpus", lambda: 2)
    games._collect(9, 10**6, lambda t: (True, None))
    assert len(forks) == 1  # usable CPUs - 1
    assert_no_children_left()


def test_a_childs_failure_surfaces_in_the_caller(forks):
    def run_one(t):
        if t == 5:
            raise ParameterError(f"trial {t} rejected")
        return True, None

    with pytest.raises(ParameterError, match="^trial 5 rejected$"):
        games._collect(6, 3, run_one)
    assert len(forks) == 2
    assert_no_children_left()


def test_earliest_failing_chunk_wins_and_the_caller_first(forks):
    def run_one(t):
        if t >= 2:
            raise ParameterError(f"trial {t} rejected")
        return True, None

    with pytest.raises(ParameterError, match="trial 2 rejected"):
        games._collect(6, 3, run_one)
    assert_no_children_left()

    def caller_fails(t):
        if t == 0:
            raise ParameterError("trial 0 rejected")
        return True, None

    with pytest.raises(ParameterError, match="trial 0 rejected"):
        games._collect(6, 3, caller_fails)
    assert_no_children_left()


class _Unpicklable(Exception):
    def __init__(self, what, code):
        super().__init__(f"{what} ({code})")


_INTERRUPTED_WAIT = """
import os, signal, sys, time
from subvertlab import games

games._usable_cpus = lambda: 2


def expired(signum, frame):
    raise TimeoutError("alarm")


def run_one(t):
    if t == 1:  # the worker's chunk loops, for 30 s at most
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            time.sleep(0.05)
    return t


signal.signal(signal.SIGALRM, expired)
signal.alarm(1)
start = time.monotonic()
try:
    games._collect(2, 2, run_one)
except TimeoutError:
    pass
else:
    sys.exit("_collect returned")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(f"no child after {time.monotonic() - start:.1f} s")
"""


def test_an_interrupted_wait_kills_the_worker_it_waited_on():
    # an alarm interrupts the read of a looping worker's pipe; run in its
    # own process group with a timeout, so a regression fails and not hangs
    env = {**os.environ, "PYTHONPATH": str(Path(games.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTED_WAIT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("_collect kept waiting on the worker whose read was interrupted")
    assert proc.returncode == 0, err
    assert out.startswith("no child after "), (out, err)
    assert float(out.split()[3]) < 5.0


def test_children_that_cannot_report_become_subvertlab_errors(forks):
    def raises_unpicklable(t):
        if t == 3:
            raise _Unpicklable("odd failure", 7)
        return True, None

    with pytest.raises(SubvertLabError, match=r"_Unpicklable\('odd failure \(7\)'\)"):
        games._collect(4, 2, raises_unpicklable)
    with pytest.raises(TypeError):  # the pickle round trip the child checks
        pickle.loads(pickle.dumps(_Unpicklable("odd failure", 7)))

    def returns_unpicklable(t):
        return True, (lambda: t)

    with pytest.raises(SubvertLabError, match="trials 2..3 cannot leave the worker process"):
        games._collect(4, 2, returns_unpicklable)

    def dies(t):
        if t == 3:
            os._exit(3)
        return True, None

    with pytest.raises(SubvertLabError, match=r"trials 2..3 died without a result \(exit code 3\)"):
        games._collect(4, 2, dies)
    assert_no_children_left()


# --- streams seeded on first use ---------------------------------------------


@pytest.fixture
def seeded(monkeypatch):
    """Every substream call's (seed, trial, *path), in call order."""
    calls = []
    real = rng.substream

    def counting(*label):
        calls.append(label)
        return real(*label)

    monkeypatch.setattr(rng, "substream", counting)
    return calls


def test_a_lazy_stream_is_seeded_at_its_first_draw(seeded):
    streams = TrialStreams(4, 2)
    coins = streams.lazy("adv")
    assert not seeded and not isinstance(coins, random.Random)
    draws = [coins.getrandbits(16), coins.randrange(9), coins.random(), coins.getrandbits(3)]
    ref = substream(4, 2, "adv")
    assert draws == [ref.getrandbits(16), ref.randrange(9), ref.random(), ref.getrandbits(3)]
    assert seeded == [(4, 2, "adv")]
    # the stream is memoised as get's, and later draws call its own methods
    assert streams.get("adv") is coins.getrandbits.__self__
    assert vars(coins)["getrandbits"] == streams.get("adv").getrandbits
    assert seeded == [(4, 2, "adv")]
    with pytest.raises(AttributeError):
        coins._randbelow


def test_a_constant_cpa_trial_seeds_only_its_hidden_bit(seeded, capsys):
    assert cli.main(["game", "cpa", "--adversary", "constant", "--trials", "40", "--seed", "6"]) == 0
    assert [label[1:] for label in seeded] == [(t, "b") for t in range(40)]


def test_the_attacker_key_is_drawn_only_where_the_encoder_runs(seeded):
    ses = randpad_scheme(r=8, kappa=16, ml=8)
    steg = rejsam_system(StegoParams(ml=4, s=16, outl=24, kappa=16))
    alg = alg_from_encryption(ses)
    rasa = run_rasa_dist(generic_asa_against_alg(steg, alg), alg, repeat_watchdog(), 16, 3)
    keyed_rasa = {t for _, t, *path in seeded if path == ["ak"]}
    seeded.clear()
    ss = run_ss_cha_dist(steg, ses_channel(ses, 2), repeat_warden(), 16, 3)
    keyed_ss = {t for _, t, *path in seeded if path == ["ak"]}
    for report, keyed in ((rasa, keyed_rasa), (ss, keyed_ss)):
        assert keyed == {t for t, (b, _) in enumerate(report.decisions) if b == 0}
        assert 0 < len(keyed) < 16


def _sim_reader(channel=None):
    """Draws from a sim stream, from the free channel oracle when it is
    given the channel, and from its own coins; checks each against the
    stream substream(seed, t, ...) seeds, and guesses from all of them."""

    def strategy(view, coins):
        streams = view._streams
        x = view.sim_rng("probe").getrandbits(8)
        assert x == substream(streams.seed, streams.trial, "sim", "probe").getrandbits(8)
        if channel is not None:
            doc = view.channel_sample(())
            ref = substream(streams.seed, streams.trial, "sim", "channel")
            assert doc == channel_sample(channel, (), ref)
            x ^= doc.uint
        y = coins.getrandbits(8)
        assert y == substream(streams.seed, streams.trial, "adv").getrandbits(8)
        assert streams.get("adv") is coins.getrandbits.__self__
        return (x ^ y) & 1

    return Adversary(name="sim-reader", strategy=strategy)


@pytest.mark.parametrize("game", ["cpa", "ss-cha"])
def test_sim_streams_are_the_public_substreams_in_both_worlds(game, forks):
    ses = randpad_scheme(r=8, kappa=16, ml=8)
    channel = ses_channel(ses, 2)
    steg = rejsam_system(StegoParams(ml=4, s=16, outl=24, kappa=16))

    def run(jobs):
        if game == "cpa":
            return run_cpa_dist(ses, _sim_reader(), 24, 5, jobs=jobs)
        return run_ss_cha_dist(steg, channel, _sim_reader(channel), 24, 5, jobs=jobs)

    serial = run(1)
    forked = run(2)
    assert len(forks) == 1  # the second half of the trials ran in a child
    assert {b for b, _ in serial.decisions} == {0, 1}
    assert forked.decisions == serial.decisions
    assert json.dumps(forked.to_json_dict()) == json.dumps(serial.to_json_dict())
    assert_no_children_left()

"""Command line front end.

Output discipline: every command writes JSON lines (sorted keys, compact
separators) so that a fixed seed gives byte-identical output. Timestamps
never appear in the payload; when --out is used, a sidecar <out>.meta.json
records the invocation time and argv. The seed comes from --seed, falling
back to the SUBVERTLAB_SEED environment variable, then 0.

Exit codes: 0 success, 2 parameter or usage errors, 3 invariant violations.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from .adversaries import (
    chi2_attacker,
    chi2_warden,
    chi2_watchdog,
    constant_guess,
    random_forger,
    random_guess,
    repeat_attacker,
    repeat_warden,
    repeat_watchdog,
    replay_forger,
    search_forger,
)
from .asa import asa_enc_all, asa_from_stego, generic_asa_against_alg, query_count
from .bits import Bits
from .channels import (
    channel_walk,
    min_entropy_estimate,
    min_entropy_exact,
    rand_alg_channel,
    ses_channel,
    uniform_channel,
)
from .errors import InvariantViolation, ParameterError, SchemaMismatchError, SubvertLabError
from .games import (
    SCHEMA,
    GameReport,
    estimate_unrel,
    estimate_unrel_alg,
    estimate_unrel_reboot,
    estimate_unrel_stego,
    merge_reports,
    run_cpa_dist,
    run_enc_asa_dist,
    run_rasa_dist,
    run_sig_forge,
    run_ss_cha_dist,
)
from .lowerbound import (
    fabricating_asa,
    forger_from_fabricating_asa,
    forger_from_universal_asa,
    make_signed_family,
    phi,
    rate_report,
)
from .rng import substream
from .schemes import alg_from_encryption, det_scheme, randpad_scheme, sig_fixture
from .stego import StegoParams, default_beta, encode_all, encode_schedule, outl_for, rejsam_system

ENV_SEED = "SUBVERTLAB_SEED"


# --- builders ----------------------------------------------------------------


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"{ENV_SEED} must be an integer, got {env!r}")
    return 0


def _scheme(args):
    if args.host == "randpad":
        return randpad_scheme(args.r, args.kappa, args.host_ml)
    if args.host == "det":
        return det_scheme(args.kappa, args.host_ml)
    raise ParameterError(f"unknown host scheme: {args.host}")


def _sig(args, ml=None):
    ml = args.sig_ml if ml is None else ml
    return sig_fixture(args.sig, args.kappa, ml, args.sig_coins, args.tag_bits)


def _stego(args):
    params = StegoParams(
        ml=args.ml,
        s=args.s,
        outl=args.outl
        if args.outl is not None
        else outl_for(args.ml, args.beta, args.block_bits),
        kappa=args.stego_kappa,
        beta=args.beta if args.beta is not None else default_beta(args.ml),
        block_bits=args.block_bits,
    )
    return rejsam_system(params)


def _channel(args, seed):
    if args.channel == "uniform":
        return uniform_channel(args.doc_bits)
    if args.channel == "ses":
        return ses_channel(_scheme(args), args.ell)
    if args.channel == "rand-alg":
        return rand_alg_channel(alg_from_encryption(_scheme(args)), args.ell)
    if args.channel == "signed":
        return rand_alg_channel(_family(args, seed).alg, args.ell)
    raise ParameterError(f"unknown channel: {args.channel}")


def _sig_for_family(args):
    """The fixture resized to sign the host's ciphertexts; --sig-ml is still
    checked on its own."""
    _sig(args)
    return _sig(args, _scheme(args).cl)


def _family(args, seed):
    return make_signed_family(_scheme(args), _sig_for_family(args), substream(seed, "family"))


def _fabricating(args, family):
    return fabricating_asa(family, ml=args.fab_ml, decoys=args.decoys, budget=args.budget)


_DIST_ADVERSARIES = {
    "constant": lambda args, kind: constant_guess(kind),
    "flip": lambda args, kind: random_guess(kind),
    "repeat": {
        "attacker": lambda args: repeat_attacker(args.queries),
        "watchdog": lambda args: repeat_watchdog(args.queries),
        "warden": lambda args: repeat_warden(args.queries),
    },
    "chi2": {
        "attacker": lambda args: chi2_attacker(args.queries, args.bins),
        "watchdog": lambda args: chi2_watchdog(args.queries, args.bins),
        "warden": lambda args: chi2_warden(args.queries, args.bins),
    },
}


def _adversary(args, kind):
    entry = _DIST_ADVERSARIES[args.adversary]  # a key: the parser takes only the dict's keys
    if callable(entry):
        return entry(args, kind)
    return entry[kind](args)


# forger builders by name; game forge's --adversary takes the keys
_FORGERS = {
    "replay": lambda args: replay_forger(),
    "random": lambda args: random_forger(),
    "search": lambda args: search_forger(args.budget),
    "universal": lambda args: forger_from_universal_asa(
        _stego(args), _scheme(args), _sig_for_family(args)
    ),
    "fabricating": lambda args: forger_from_fabricating_asa(
        _scheme(args), _sig_for_family(args), ml=args.fab_ml, decoys=args.decoys, budget=args.budget
    ),
}


# --- output ------------------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _emit(lines, args, argv):
    try:
        text = "\n".join(_dump(obj) for obj in lines) + "\n"
    except ValueError as exc:  # a NaN or infinity, which strict JSON cannot hold
        raise ParameterError(f"report is not finite JSON: {exc}") from None
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        meta = {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "argv": argv,
            "schema": SCHEMA,
        }
        with open(out + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(text)  # last, so a report that cannot be saved is not printed


def _non_json_constant(name):
    raise json.JSONDecodeError(f"{name} is not a JSON value", name, 0)


def _read_jsonl(path):
    """(line number, object) for every non-blank line of a JSON-lines file.

    NaN and Infinity are rejected as in strict JSON, so nothing read here
    can make a report that _emit refuses to print."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    records = []
    for n, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_constant=_non_json_constant)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}:{n}: not a JSON line ({exc.msg})") from None
        except RecursionError:
            raise ParameterError(f"{path}:{n}: JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise ParameterError(f"{path}:{n}: expected a JSON object")
        records.append((n, obj))
    return records


def _hex_bits(text, nbits, where):
    """Bits from a hex string, or a ParameterError naming where it came from.
    Digits past nbits may hold only zero pad bits, as Bits.hex() writes them."""
    if not isinstance(text, str):
        raise ParameterError(f"{where}: expected a hex string")
    try:
        bits = Bits.from_hex(text, nbits)
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from None
    digits = text.strip()
    whole = Bits.from_hex(digits + "0" * (len(digits) % 2))
    if whole.uint & ((1 << len(whole) - nbits) - 1):
        raise ParameterError(f"{where}: hex {text!r} sets bits past the {nbits} requested")
    return bits


# --- channel commands ----------------------------------------------------------


def cmd_channel_sample(args):
    seed = _seed(args)
    channel = _channel(args, seed)
    rng = substream(seed, "channel-sample")
    start = channel_walk(channel, args.depth, rng)
    lines = [{"kind": "channel-sample", "channel": channel.descriptor, "seed": seed}]
    return lines + _doc_lines(channel_walk(channel, args.count, rng, start)[len(start) :])


def cmd_channel_entropy(args):
    seed = _seed(args)
    channel = _channel(args, seed)

    def walk(depth):
        return channel_walk(channel, depth, substream(seed, "entropy-history", depth))

    if args.mode == "exact":
        report = min_entropy_exact(channel, [walk(depth) for depth in args.depths])
    else:
        rng = substream(seed, "channel-entropy")
        report = min_entropy_estimate(channel, walk(args.depth), args.samples, rng)
    d = report.to_json_dict()
    d["kind"] = "min-entropy"
    d["seed"] = seed
    return [d]


# --- stego commands -------------------------------------------------------------


def _doc_lines(docs):
    return [{"i": i, "doc_hex": d.hex(), "bits": len(d)} for i, d in enumerate(docs)]


def _session_lines(header, params, ak, am, seed, docs, got):
    """A saved session as _load_session reads it: the header, one line per
    document, and whether the documents decode to the hidden message."""
    header = {**header, "key_hex": ak.hex(), "key_bits": len(ak), "message_hex": am.hex()}
    header.update(params=params.to_json_dict(), seed=seed)
    decoded = got.hex() if got is not None else None
    check = {"kind": "decode-check", "decoded_hex": decoded, "ok": got == am}
    return [header, *_doc_lines(docs), check]


def _session_key(args, steg, seed):
    if args.key is not None:
        return _hex_bits(args.key, steg.params.kappa, "--key")
    return steg.gen(substream(seed, "stego-key"))


def cmd_stego_embed(args):
    seed = _seed(args)
    steg = _stego(args)
    channel = _channel(args, seed)
    ak = _session_key(args, steg, seed)
    am = _hex_bits(args.message, steg.params.ml, "--message")
    rng = substream(seed, "stego-embed")
    if args.schedule:
        docs = encode_schedule(steg, ak, am, args.schedule, channel, rng)
    else:
        docs = encode_all(steg, ak, am, (), channel, rng)
    header = {"kind": "stego-session", "channel": channel.descriptor}
    return _session_lines(header, steg.params, ak, am, seed, docs, steg.dec(ak, docs))


_SESSION_INTS = ("ml", "s", "outl", "kappa", "block_bits")


def _load_session(path, key_hex=None):
    """Stego parameters, key, expected message and documents of a saved
    session; key_hex overrides the header's key."""
    records = _read_jsonl(path)
    if not records or "params" not in records[0][1]:
        raise ParameterError(f"{path} does not look like a saved session")
    n, header = records[0]
    p = header["params"]
    if not isinstance(p, dict):
        raise ParameterError(f"{path}:{n}: params must be a JSON object")
    for name in _SESSION_INTS + ("beta",):
        if name not in p:
            raise ParameterError(f"{path}:{n}: session params lack {name!r}")
    if not all(type(p[name]) is int for name in _SESSION_INTS):
        raise ParameterError(f"{path}:{n}: {', '.join(_SESSION_INTS)} must be integers")
    params = StegoParams(beta=p["beta"], **{name: p[name] for name in _SESSION_INTS})
    if key_hex is not None:
        ak = _hex_bits(key_hex, params.kappa, "--key")
    elif "key_hex" in header:
        ak = _hex_bits(header["key_hex"], params.kappa, f"{path}:{n}: key_hex")
    else:
        raise ParameterError(f"{path}:{n}: session header lacks 'key_hex' (pass --key)")
    docs = []
    for n, line in records[1:]:
        if "doc_hex" in line:
            if type(line.get("bits")) is not int:
                raise ParameterError(f"{path}:{n}: bits must be an integer")
            docs.append(_hex_bits(line["doc_hex"], line["bits"], f"{path}:{n}: doc_hex"))
    return params, ak, header.get("message_hex"), docs


def _extract(args, kind):
    params, ak, expected, docs = _load_session(args.file, args.key)
    got = rejsam_system(params).dec(ak, docs)
    return [
        {
            "kind": kind,
            "extracted_hex": got.hex() if got is not None else None,
            "ok": got is not None and got.hex() == expected if expected else got is not None,
        }
    ]


def cmd_stego_extract(args):
    return _extract(args, "stego-extract")


def _stego_unrel(args, reboot, schedules=None):
    """Recovery rate of the stegosystem over the channel, with the encoder's
    state wiped between schedule segments when reboot is set."""
    seed = _seed(args)
    steg = _stego(args)
    channel = _channel(args, seed)
    if reboot:
        report = estimate_unrel_reboot(
            steg, channel, args.trials, seed, schedules=schedules, jobs=args.jobs
        )
    else:
        report = estimate_unrel_stego(
            steg, channel, args.trials, seed, history_mode=args.history_mode, jobs=args.jobs
        )
    return [report.to_json_dict()]


def cmd_stego_roundtrip(args):
    schedules = [args.schedule] if args.reboot and args.schedule else None
    return _stego_unrel(args, args.reboot, schedules)


# --- attack commands -------------------------------------------------------------


def cmd_asa_build(args):
    steg = _stego(args)
    ses = _scheme(args)
    asa = asa_from_stego(steg, ses)
    d = asa.describe()
    d["kind"] = "asa-build"
    return [d]


def cmd_asa_run(args):
    seed = _seed(args)
    steg = _stego(args)
    ses = _scheme(args)
    asa = asa_from_stego(steg, ses)
    rng = substream(seed, "asa-run")
    ak = asa.gen(rng)
    am = (
        _hex_bits(args.message, asa.ml, "--message")
        if args.message is not None
        else Bits.random(asa.ml, rng)
    )
    k = ses.gen(rng)
    messages = [Bits.random(ses.ml, rng) for _ in range(asa.outl)]
    cts = asa_enc_all(asa, ak, am, k, messages, rng)
    header = {"kind": "asa-session", "attack": asa.describe()}
    return _session_lines(header, steg.params, ak, am, seed, cts, asa.ext(ak, cts))


def cmd_asa_extract(args):
    return _extract(args, "asa-extract")


def cmd_asa_queries(args):
    seed = _seed(args)
    est = query_count(_stego(args), _scheme(args), args.trials, seed)
    return [{"kind": "query-count", **asdict(est)}]


# --- game commands ---------------------------------------------------------------


def cmd_game_cpa(args):
    seed = _seed(args)
    report = run_cpa_dist(
        _scheme(args), _adversary(args, "attacker"), args.trials, seed, jobs=args.jobs
    )
    return [report.to_json_dict()]


def cmd_game_enc_asa(args):
    seed = _seed(args)
    ses = _scheme(args)
    asa = asa_from_stego(_stego(args), ses)
    report = run_enc_asa_dist(
        asa, ses, _adversary(args, "watchdog"), args.trials, seed, jobs=args.jobs
    )
    return [report.to_json_dict()]


def cmd_game_ss_cha(args):
    seed = _seed(args)
    steg = _stego(args)
    channel = _channel(args, seed)
    report = run_ss_cha_dist(
        steg, channel, _adversary(args, "warden"), args.trials, seed, jobs=args.jobs
    )
    return [report.to_json_dict()]


def _rasa_pieces(args, seed):
    if args.rasa_host == "signed":
        family = _family(args, seed)
        alg = family.alg
        if args.attack == "fabricating":
            return _fabricating(args, family), alg
    else:
        alg = alg_from_encryption(_scheme(args))
    if args.attack == "fabricating":
        raise ParameterError("fabricating attack needs --rasa-host signed")
    attack = generic_asa_against_alg(_stego(args), alg, demo_force_embed=args.force_embed)
    return attack, alg


def cmd_game_rasa(args):
    seed = _seed(args)
    attack, alg = _rasa_pieces(args, seed)
    report = run_rasa_dist(
        attack, alg, _adversary(args, "watchdog"), args.trials, seed, jobs=args.jobs
    )
    return [report.to_json_dict()]


def _forge(args, name):
    """Forgery game against the forger `name`; attack-driven forgers face
    the fixture resized to sign ciphertexts."""
    sig = _sig_for_family(args) if name in ("universal", "fabricating") else _sig(args)
    report = run_sig_forge(sig, _FORGERS[name](args), args.trials, _seed(args), jobs=args.jobs)
    return [report.to_json_dict()]


def cmd_game_forge(args):
    return _forge(args, args.adversary)


def cmd_game_unrel(args):
    if args.target in ("stego", "stego-reboot"):
        return _stego_unrel(args, args.target == "stego-reboot")
    seed = _seed(args)
    if args.target == "enc-asa":
        ses = _scheme(args)
        asa = asa_from_stego(_stego(args), ses)
        report = estimate_unrel(
            asa, ses, args.trials, seed, message_mode=args.message_mode, jobs=args.jobs
        )
    else:  # rasa: the parser takes no other target
        attack, alg = _rasa_pieces(args, seed)
        report = estimate_unrel_alg(attack, alg, args.trials, seed, jobs=args.jobs)
    return [report.to_json_dict()]


# --- lower-bound commands ---------------------------------------------------------


def cmd_lb_phi(args):
    d = phi(args.ml, args.outl, args.query).to_json_dict()
    d["kind"] = "phi"
    return [d]


def cmd_lb_forger(args):
    return _forge(args, args.attack)


def cmd_lb_rate(args):
    seed = _seed(args)
    family = _family(args, seed)
    forger = _FORGERS[args.attack](args)
    query = args.query  # a float, or None for the attack's own count
    if args.attack == "fabricating":
        attack = _fabricating(args, family)
        query = float(args.decoys) if query is None else query
    else:
        steg = _stego(args)
        attack = generic_asa_against_alg(steg, family.alg)
        if query is None:
            query = query_count(steg, family.ses, 200, seed).mean
    report = rate_report(family, attack, query, forger, args.trials, seed, jobs=args.jobs)
    return [report]


# --- report commands ---------------------------------------------------------------


def cmd_report_merge(args):
    reports = []
    for path in args.files:
        for n, obj in _read_jsonl(path):
            if "game" in obj and obj.get("schema"):
                try:
                    reports.append(GameReport.from_json_dict(obj))
                except (ParameterError, SchemaMismatchError) as exc:
                    raise type(exc)(f"{path}:{n}: {exc}") from None
    merged = merge_reports(reports)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(name for name, _ in _CSV_COLUMNS)
            writer.writerows([cell(r) for _, cell in _CSV_COLUMNS] for r in merged)
    return [r.to_json_dict() for r in merged]


# report merge --csv: each column's header and its cell of a merged report
_CSV_COLUMNS = (
    ("game", lambda r: r.game),
    ("trials", lambda r: r.trials),
    ("success_count", lambda r: r.success_count),
    ("p_hat", lambda r: r.p_hat),
    ("normalized_advantage", lambda r: r.normalized_advantage),
    ("ci_lo", lambda r: r.ci95[0]),
    ("ci_hi", lambda r: r.ci95[1]),
    ("adv_lo", lambda r: (r.advantage_ci95 or (None, None))[0]),
    ("adv_hi", lambda r: (r.advantage_ci95 or (None, None))[1]),
    ("seed", lambda r: r.seed),
    ("config", lambda r: _dump(r.config)),
)


# --- parser --------------------------------------------------------------------


def _int_at_least(least, what):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonneg_int = _int_at_least(0, "a non-negative integer")  # --budget 0: no search at all


def _int_list(item):
    return lambda text: [item(x) for x in text.split(",")]


def _opt(flag, **kwargs):
    """One option: its flag and its add_argument keywords."""
    return flag, kwargs


def _budget(default):
    return _opt("--budget", type=_nonneg_int, default=default)


# option groups by name; a subcommand's row lists the groups it takes
_GROUPS = {
    "out": (_opt("--out", help="also write stdout to this file (plus a .meta.json sidecar)"),),
    "run": (
        _opt("--trials", type=_positive_int, default=200),
        _opt(
            "--jobs",
            type=_positive_int,
            default=1,
            help="worker processes; results are identical at any value",
        ),
    ),
    "host": (
        _opt("--host", choices=["randpad", "det"], default="randpad"),
        _opt("--kappa", type=int, default=16, help="host key bits"),
        _opt("--r", type=int, default=8, help="host coin bits"),
        _opt("--host-ml", type=int, default=8, help="host message bits"),
    ),
    "sig": (
        _opt(
            "--sig",
            choices=["coin-injective", "coin-extractable", "unique"],
            default="coin-injective",
        ),
        _opt("--sig-ml", type=int, default=8, help="signed message bits"),
        _opt("--sig-coins", type=int, default=8),
        _opt("--tag-bits", type=int, default=64),
    ),
    "stego": (
        _opt("--ml", type=int, default=8, help="hidden message bits"),
        _opt("--s", type=int, default=64, help="rejection cutoff"),
        _opt("--outl", type=int, default=None, help="documents per message (default: derived)"),
        _opt("--beta", type=float, default=None),
        _opt("--block-bits", type=int, default=1),
        _opt("--stego-kappa", type=int, default=128, help="attacker key bits"),
    ),
    "channel": (
        _opt("--channel", choices=["uniform", "ses", "rand-alg", "signed"], default="ses"),
        _opt("--ell", type=int, default=4, help="messages per channel session"),
        _opt("--doc-bits", type=int, default=8, help="document bits for the uniform channel"),
    ),
    # a dict of builders is its own list of choices: argparse tests a choice
    # with `in` and lists them by iterating, and both see the keys
    "dist": (
        _opt("--adversary", choices=_DIST_ADVERSARIES, default="repeat"),
        _opt("--queries", type=_positive_int, default=2),
        _opt("--bins", type=_int_at_least(2, "an integer of at least 2"), default=4),
    ),
    "fab": (
        _opt("--fab-ml", type=int, default=8, help="fabricated hidden message bits"),
        _opt("--decoys", type=_positive_int, default=4),
    ),
    "rasa": (
        _opt("--rasa-host", choices=["enc", "signed"], default="enc"),
        _opt("--attack", choices=["rejsam", "fabricating"], default="rejsam"),
        _opt("--force-embed", action="store_true", default=False),
    ),
    "session": (
        _opt("--file", required=True),
        _opt("--key", help="attacker key, hex (default: from the file header)"),
    ),
}
_HISTORY_MODE = _opt("--history-mode", choices=["empty", "sampled"], default="empty")
_SCHEDULE = _opt(
    "--schedule", type=_int_list(_positive_int), help="reboot segment lengths, comma separated"
)
_LB_ATTACK = _opt("--attack", choices=["universal", "fabricating"], default="fabricating")

_COMMAND_HELP = {
    "channel": "document channels",
    "stego": "embedding and extraction",
    "asa": "substitution attacks",
    "game": "Monte Carlo security games",
    "lowerbound": "rate lower-bound experiment",
    "report": "report file utilities",
}

# The one place a subcommand and its options are set out, one row each:
# (command, subcommand, help, option groups, extra options, handler). Every
# subcommand takes --seed as well. The handler is a name looked up in the
# module globals when the subcommand's parser is filled, so a cmd_* patched
# on the module runs.
_COMMANDS = (
    ("channel", "sample", "walk a channel and emit documents", "out host sig channel", (
        _opt("--count", type=_positive_int, default=5),
        _opt("--depth", type=_nonneg_int, default=0, help="history length to walk before sampling"),
    ), "cmd_channel_sample"),
    ("channel", "entropy", "min-entropy, exact or estimated", "out host sig channel", (
        _opt("--mode", choices=["exact", "estimate"], default="exact"),
        _opt(
            "--depths",
            type=_int_list(_nonneg_int),
            default=[0],
            help="history depths for exact mode, comma separated",
        ),
        _opt("--depth", type=_nonneg_int, default=0, help="history depth for estimate mode"),
        _opt("--samples", type=int, default=4096),
    ), "cmd_channel_entropy"),
    ("stego", "embed", "embed a message into channel documents", "out run host sig stego channel", (
        _opt("--message", required=True, help="hidden message, hex"),
        _opt("--key", help="attacker key, hex (default: derived from seed)"),
        _SCHEDULE,
    ), "cmd_stego_embed"),
    ("stego", "extract", "extract from a saved session file", "session", (), "cmd_stego_extract"),
    ("stego", "roundtrip", "embed-extract recovery rate", "out run host sig stego channel", (
        _HISTORY_MODE,
        _opt("--reboot", action="store_true", help="wipe state between segments"),
        _SCHEDULE,
    ), "cmd_stego_roundtrip"),
    ("asa", "build", "show the attack derived from the current options", "out host stego", (),
     "cmd_asa_build"),
    ("asa", "run", "run one subverted session end to end", "out host stego", (
        _opt("--message", help="hidden message, hex (default: random)"),
    ), "cmd_asa_run"),
    ("asa", "extract", "extract from a saved session file", "session", (), "cmd_asa_extract"),
    ("asa", "queries", "measured oracle calls per ciphertext", "out run host stego", (),
     "cmd_asa_queries"),
    ("game", "cpa", "scheme vs uniform strings", "out run host dist", (), "cmd_game_cpa"),
    ("game", "enc-asa", "subverted vs honest encryption", "out run host stego dist", (),
     "cmd_game_enc_asa"),
    ("game", "ss-cha", "embedded vs channel documents", "out run host sig stego channel dist", (),
     "cmd_game_ss_cha"),
    ("game", "rasa", "subverted vs genuine randomized algorithm",
     "out run host sig stego dist rasa fab", (_budget(512),), "cmd_game_rasa"),
    ("game", "forge", "existential forgery", "out run host sig stego fab", (
        _opt("--adversary", choices=_FORGERS, default="random"),
        _budget(512),
    ), "cmd_game_forge"),
    ("game", "unrel", "recovery-rate estimates", "out run host sig stego channel rasa fab", (
        _opt("--target", choices=["enc-asa", "stego", "stego-reboot", "rasa"], default="enc-asa"),
        _opt("--message-mode", choices=["random", "equal"], default="random"),
        _HISTORY_MODE,
        _budget(4096),
    ), "cmd_game_unrel"),
    ("lowerbound", "phi", "the counting bound, log domain", "out", (
        _opt("--ml", type=int, required=True),
        _opt("--outl", type=int, required=True),
        _opt("--query", type=float, required=True),
    ), "cmd_lb_phi"),
    ("lowerbound", "forger", "forgery rate of an attack-driven forger",
     "out run host sig stego fab", (_LB_ATTACK, _budget(4096)), "cmd_lb_forger"),
    ("lowerbound", "rate", "full measured rate report", "out run host sig stego fab", (
        _LB_ATTACK,
        _budget(4096),
        _opt("--query", type=float, default=None, help="override measured queries per output"),
    ), "cmd_lb_rate"),
    ("report", "merge", "pool reports with matching game and config", "out", (
        _opt("files", nargs="+"),
        _opt("--csv", help="also write a flat CSV summary"),
    ), "cmd_report_merge"),
)


# Options a subcommand reads under some values of a selector only, by
# handler: (conditions, options) rules, each condition a selector dest and
# the comma-separated values that read the options (true or false for a
# flag). Such options parse to None, and _settle applies the default their
# row declares where every condition of a rule naming them holds, or exits
# 2 where one is given and no rule naming it holds: an option several rules
# name is read when any of them holds. An option @group stands for every
# option of that group in _GROUPS. Rules settle in order, so every rule
# naming a selector comes before the rules whose conditions read it. Each
# selector's rules are written once and composed: _under makes a set of
# rules hold only under another condition as well. A det host takes no
# coins, so --r is read under --host randpad alone (_COINS). Where --channel
# builds the only host, the channel's rules (_CHANNEL_READS) settle the
# host, signature and channel options.
def _under(condition, rules):
    return tuple((f"{condition} {conditions}", options) for conditions, options in rules)


_COINS = (("host=randpad", "r"),)
_CHANNEL_READS = (
    ("channel=uniform", "doc_bits"),
    ("channel=ses,rand-alg,signed", "ell host kappa host_ml"),
    *_under("channel=ses,rand-alg,signed", _COINS),
    ("channel=signed", "@sig"),
)
_DIST_READS = (("adversary=repeat,chi2", "queries"), ("adversary=chi2", "bins"))
_RASA_READS = (
    ("attack=rejsam", "force_embed @stego"),
    ("attack=fabricating", "@fab budget"),
    ("rasa_host=signed", "@sig"),
)
_LB_READS = (*_COINS, ("attack=fabricating", "@fab budget"), ("attack=universal", "@stego"))
_OWNED = {
    "cmd_channel_sample": _CHANNEL_READS,
    "cmd_channel_entropy": (
        ("mode=exact", "depths"),
        ("mode=estimate", "depth samples"),
        *_CHANNEL_READS,
    ),
    "cmd_stego_embed": _CHANNEL_READS,
    "cmd_stego_roundtrip": (
        ("reboot=false", "history_mode"),
        ("reboot=true", "schedule"),
        *_CHANNEL_READS,
    ),
    "cmd_asa_build": _COINS,
    "cmd_asa_run": _COINS,
    "cmd_asa_queries": _COINS,
    "cmd_game_cpa": (*_COINS, *_DIST_READS),
    "cmd_game_enc_asa": (*_COINS, *_DIST_READS),
    "cmd_game_ss_cha": (*_CHANNEL_READS, *_DIST_READS),
    "cmd_game_rasa": (*_COINS, *_RASA_READS, *_DIST_READS),
    "cmd_game_forge": (
        ("adversary=search,fabricating", "budget"),
        ("adversary=fabricating", "@fab"),
        ("adversary=universal,fabricating", "host host_ml"),  # not kappa: _sig reads it
        *_under("adversary=universal,fabricating", _COINS),
        ("adversary=universal", "@stego"),
    ),
    "cmd_game_unrel": (
        ("target=enc-asa", "message_mode"),
        ("target=stego", "history_mode"),
        ("target=enc-asa,stego,stego-reboot", "@stego"),
        ("target=enc-asa,rasa", "host kappa host_ml"),
        ("target=stego,stego-reboot", "channel"),
        *_under("target=stego,stego-reboot", _CHANNEL_READS),
        *_under("target=enc-asa,rasa", _COINS),
        ("target=rasa", "rasa_host attack"),
        *_under("target=rasa", _RASA_READS),
    ),
    "cmd_lb_forger": _LB_READS,
    "cmd_lb_rate": _LB_READS,
}


def _dests(options):
    """The dests an _OWNED rule's options name, with each @group expanded."""
    for word in options.split():
        flags = [flag for flag, _ in _GROUPS[word[1:]]] if word[0] == "@" else [word]
        yield from (flag.strip("-").replace("-", "_") for flag in flags)


def _row_options(row):
    """(flag, add_argument keywords) of every option a row takes."""
    for group in row[3].split():
        yield from _GROUPS[group]
    yield from row[4]


def _state(selector, value):
    """A selector's value as a message names it: --mode exact, or for a
    flag --reboot and a run without --reboot."""
    flag = "--" + selector.replace("_", "-")
    if value in ("true", "false"):
        return flag if value == "true" else f"a run without {flag}"
    return f"{flag} {value}"


def _settle(args) -> None:
    """Give each option _OWNED assigns to the invoked handler the default
    its row gives it where the conditions of a rule naming it hold, and exit
    2 on one given where no such rule holds."""
    row = next(r for r in _COMMANDS if r[:2] == (args.command, args.subcommand))
    defaults = {f.strip("-").replace("-", "_"): kw.get("default") for f, kw in _row_options(row)}
    held, refused = set(), {}  # refused: dest -> [(selectors read, wanted)] per failed rule
    for conditions, options in _OWNED.get(row[5], ()):
        where = []
        for selector, values in (c.split("=") for c in conditions.split()):
            value = getattr(args, selector)
            value = str(value).lower() if isinstance(value, bool) else value
            where.append(_state(selector, value))
            if value not in values.split(","):
                break
        else:
            for dest in _dests(options):
                held.add(dest)
                if getattr(args, dest) is None:
                    setattr(args, dest, defaults[dest])
            continue
        wanted = " ".join(
            _state(selector, values.replace(",", " or "))
            for selector, values in (c.split("=") for c in conditions.split())
        )
        for dest in _dests(options):
            refused.setdefault(dest, []).append((where, wanted))
    for dest, rules in refused.items():
        if dest not in held and getattr(args, dest) is not None:
            where = " ".join(dict.fromkeys(part for parts, _ in rules for part in parts))
            wanted = ", or to ".join(w for _, w in rules)
            raise ParameterError(
                f"--{dest.replace('_', '-')} does not apply to {where}; it applies to {wanted}"
            )


class _LazyParser(argparse.ArgumentParser):
    """A command group's or a subcommand's parser. It adds its subparsers,
    or its options, when it first parses or formats, so an invocation
    builds only the group and the subcommand it names. Adding all 310
    options up front took 8.3 ms per build_parser(); building and parsing
    one invocation this way takes 1.5 ms (timeit, 2-core Xeon, Python 3.11).
    """

    def __init__(self, *, fill, **kwargs):
        super().__init__(**kwargs)
        self._fill = fill

    def filled(self) -> "_LazyParser":
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return self

    def parse_known_args(self, args=None, namespace=None):
        self.filled()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self.filled()
        return super().format_usage()

    def format_help(self):
        self.filled()
        return super().format_help()


def _add_subcommands(command, parser):
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for row in _COMMANDS:
        if row[0] == command:
            subparsers.add_parser(row[1], help=row[2], fill=functools.partial(_add_options, row))


def _add_options(row, parser):
    parser.add_argument("--seed", type=int, help="base seed (env SUBVERTLAB_SEED, then 0)")
    for flag, kwargs in _row_options(row):
        parser.add_argument(flag, **kwargs)
    owned = [dest for _, options in _OWNED.get(row[5], ()) for dest in _dests(options)]
    parser.set_defaults(func=globals()[row[5]], **dict.fromkeys(owned))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subvertlab",
        description="Substitution attacks, rejection-sampling steganography, and their games.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_LazyParser)
    for name, text in _COMMAND_HELP.items():
        commands.add_parser(name, help=text, fill=functools.partial(_add_subcommands, name))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _settle(args)
        lines = args.func(args)
        _emit(lines, args, argv)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except SubvertLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a named file that cannot be opened: missing, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

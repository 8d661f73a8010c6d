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
import json
import os
import sys
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
from .asa import (
    UniversalHost,
    asa_enc_all,
    asa_from_stego,
    generic_asa_against_alg,
    query_count,
    universal_asa,
)
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


def _sig(args):
    return sig_fixture(
        args.sig, args.kappa, ml=args.sig_ml, coin_bits=args.sig_coins, tag_bits=args.tag_bits
    )


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
        family = make_signed_family(_scheme(args), _sig_for_family(args), substream(seed, "family"))
        return rand_alg_channel(family.alg, args.ell)
    raise ParameterError(f"unknown channel: {args.channel}")


def _sig_for_family(args):
    sig = _sig(args)
    ses = _scheme(args)
    if sig.ml != ses.cl:
        # resize the fixture so it signs ciphertext-length messages
        sig = sig_fixture(
            args.sig, args.kappa, ml=ses.cl, coin_bits=args.sig_coins, tag_bits=args.tag_bits
        )
    return sig


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
    entry = _DIST_ADVERSARIES.get(args.adversary)
    if entry is None:
        raise ParameterError(f"unknown adversary: {args.adversary}")
    if callable(entry):
        return entry(args, kind)
    return entry[kind](args)


def _forger(args, name):
    if name == "replay":
        return replay_forger()
    if name == "random":
        return random_forger()
    if name == "search":
        return search_forger(args.budget)
    if name == "universal":
        ses = _scheme(args)
        return forger_from_universal_asa(_stego(args), ses, _sig_for_family(args))
    if name == "fabricating":
        ses = _scheme(args)
        return forger_from_fabricating_asa(
            ses, _sig_for_family(args), ml=args.fab_ml, decoys=args.decoys, budget=args.budget
        )
    raise ParameterError(f"unknown forger: {name}")


# --- output ------------------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(lines, args, argv):
    text = "\n".join(_dump(obj) for obj in lines) + "\n"
    sys.stdout.write(text)
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


def _read_jsonl(path):
    """(line number, object) for every non-blank line of a JSON-lines file."""
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
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}:{n}: not a JSON line ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise ParameterError(f"{path}:{n}: expected a JSON object")
        records.append((n, obj))
    return records


def _hex_bits(text, nbits, where):
    """Bits from a hex string, or a ParameterError naming where it came from."""
    if not isinstance(text, str):
        raise ParameterError(f"{where}: expected a hex string")
    try:
        return Bits.from_hex(text, nbits)
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from None


# --- channel commands ----------------------------------------------------------


def cmd_channel_sample(args):
    seed = _seed(args)
    channel = _channel(args, seed)
    rng = substream(seed, "channel-sample")
    start = channel_walk(channel, args.depth, rng)
    lines = [{"kind": "channel-sample", "channel": channel.descriptor, "seed": seed}]
    for i, doc in enumerate(channel_walk(channel, args.count, rng, start)[len(start) :]):
        lines.append({"i": i, "doc_hex": doc.hex(), "bits": len(doc)})
    return lines


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


def _session_key(args, steg, seed):
    if args.key:
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
    lines = [
        {
            "kind": "stego-session",
            "key_hex": ak.hex(),
            "key_bits": len(ak),
            "message_hex": am.hex(),
            "params": steg.params.to_json_dict(),
            "channel": channel.descriptor,
            "seed": seed,
        }
    ]
    for i, d in enumerate(docs):
        lines.append({"i": i, "doc_hex": d.hex(), "bits": len(d)})
    decoded = steg.dec(ak, docs)
    lines.append(
        {
            "kind": "decode-check",
            "decoded_hex": decoded.hex() if decoded is not None else None,
            "ok": decoded == am,
        }
    )
    return lines


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
    params, ak, expected, docs = _load_session(args.file, args.key or None)
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


def cmd_stego_roundtrip(args):
    seed = _seed(args)
    steg = _stego(args)
    channel = _channel(args, seed)
    if args.reboot:
        schedules = [args.schedule] if args.schedule else None
        report = estimate_unrel_reboot(
            steg, channel, args.trials, seed, schedules=schedules, jobs=args.jobs
        )
    else:
        report = estimate_unrel_stego(
            steg, channel, args.trials, seed, history_mode=args.history_mode, jobs=args.jobs
        )
    return [report.to_json_dict()]


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
        if args.message
        else Bits.random(asa.ml, rng)
    )
    k = ses.gen(rng)
    messages = [Bits.random(ses.ml, rng) for _ in range(asa.outl)]
    cts = asa_enc_all(asa, ak, am, k, messages, rng)
    lines = [
        {
            "kind": "asa-session",
            "attack": asa.describe(),
            "key_hex": ak.hex(),
            "key_bits": len(ak),
            "message_hex": am.hex(),
            "params": steg.params.to_json_dict(),
            "seed": seed,
        }
    ]
    for i, c in enumerate(cts):
        lines.append({"i": i, "doc_hex": c.hex(), "bits": len(c)})
    got = asa.ext(ak, cts)
    lines.append(
        {
            "kind": "decode-check",
            "decoded_hex": got.hex() if got is not None else None,
            "ok": got == am,
        }
    )
    return lines


def cmd_asa_extract(args):
    return _extract(args, "asa-extract")


def cmd_asa_queries(args):
    seed = _seed(args)
    steg = _stego(args)
    ses = _scheme(args)
    attack = universal_asa(steg, UniversalHost(ses))
    est = query_count(attack, args.trials, seed, host_key_bits=ses.key_bits)
    return [
        {
            "kind": "query-count",
            "mean": est.mean,
            "ci95": list(est.ci95),
            "trials": est.trials,
            "seed": seed,
        }
    ]


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
    ses = _scheme(args)
    if args.rasa_host == "signed":
        family = make_signed_family(ses, _sig_for_family(args), substream(seed, "family"))
        alg = family.alg
        if args.attack == "fabricating":
            attack = fabricating_asa(
                family, ml=args.fab_ml, decoys=args.decoys, budget=args.budget
            )
            return attack, alg
    else:
        alg = alg_from_encryption(ses)
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
    report = run_sig_forge(sig, _forger(args, name), args.trials, _seed(args), jobs=args.jobs)
    return [report.to_json_dict()]


def cmd_game_forge(args):
    return _forge(args, args.adversary)


def cmd_game_unrel(args):
    seed = _seed(args)
    if args.target == "enc-asa":
        ses = _scheme(args)
        asa = asa_from_stego(_stego(args), ses)
        report = estimate_unrel(
            asa, ses, args.trials, seed, message_mode=args.message_mode, jobs=args.jobs
        )
    elif args.target == "stego":
        report = estimate_unrel_stego(
            _stego(args),
            _channel(args, seed),
            args.trials,
            seed,
            history_mode=args.history_mode,
            jobs=args.jobs,
        )
    elif args.target == "stego-reboot":
        report = estimate_unrel_reboot(
            _stego(args), _channel(args, seed), args.trials, seed, jobs=args.jobs
        )
    elif args.target == "rasa":
        attack, alg = _rasa_pieces(args, seed)
        report = estimate_unrel_alg(attack, alg, args.trials, seed, jobs=args.jobs)
    else:
        raise ParameterError(f"unknown unreliability target: {args.target}")
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
    ses = _scheme(args)
    sig = _sig_for_family(args)
    family = make_signed_family(ses, sig, substream(seed, "family"))
    forger = _forger(args, args.attack)
    if args.attack == "fabricating":
        attack = fabricating_asa(family, ml=args.fab_ml, decoys=args.decoys, budget=args.budget)
        query = float(args.query) if args.query is not None else float(args.decoys)
    else:
        steg = _stego(args)
        attack = generic_asa_against_alg(steg, family.alg)
        if args.query is not None:
            query = float(args.query)
        else:
            est = query_count(
                universal_asa(steg, UniversalHost(ses)), 200, seed, host_key_bits=ses.key_bits
            )
            query = est.mean
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
            writer.writerow(
                [
                    "game",
                    "trials",
                    "success_count",
                    "p_hat",
                    "normalized_advantage",
                    "ci_lo",
                    "ci_hi",
                    "adv_lo",
                    "adv_hi",
                    "seed",
                    "config",
                ]
            )
            for r in merged:
                adv_ci = r.advantage_ci95 or (None, None)
                writer.writerow(
                    [
                        r.game,
                        r.trials,
                        r.success_count,
                        r.p_hat,
                        r.normalized_advantage,
                        r.ci95[0],
                        r.ci95[1],
                        adv_ci[0],
                        adv_ci[1],
                        r.seed,
                        _dump(r.config),
                    ]
                )
    return [r.to_json_dict() for r in merged]


# --- parser --------------------------------------------------------------------


def _int_at_least(least, what):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonneg_int = _int_at_least(0, "non-negative")  # --budget 0: no search at all


def _nonneg_int_list(text):
    return [_nonneg_int(x) for x in text.split(",")]


def _positive_int_list(text):
    return [_positive_int(x) for x in text.split(",")]


def _add_common(p, trials=True):
    """--seed and --out; --trials and --jobs too for commands that run trials."""
    p.add_argument("--seed", type=int, default=None, help="base seed (env SUBVERTLAB_SEED, then 0)")
    if trials:
        p.add_argument("--trials", type=_positive_int, default=200)
        p.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            help="worker processes; results are identical at any value",
        )
    p.add_argument("--out", help="also write the JSON lines to this file (plus .meta.json sidecar)")


def _add_host(p):
    p.add_argument("--host", choices=["randpad", "det"], default="randpad")
    p.add_argument("--kappa", type=int, default=16, help="host key bits")
    p.add_argument("--r", type=int, default=8, help="host coin bits")
    p.add_argument("--host-ml", type=int, default=8, help="host message bits")


def _add_sig(p):
    p.add_argument(
        "--sig",
        choices=["coin-injective", "coin-extractable", "unique"],
        default="coin-injective",
    )
    p.add_argument("--sig-ml", type=int, default=8, help="signed message bits")
    p.add_argument("--sig-coins", type=int, default=8)
    p.add_argument("--tag-bits", type=int, default=64)


def _add_stego(p):
    p.add_argument("--ml", type=int, default=8, help="hidden message bits")
    p.add_argument("--s", type=int, default=64, help="rejection cutoff")
    p.add_argument("--outl", type=int, default=None, help="documents per message (default: derived)")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--block-bits", type=int, default=1)
    p.add_argument("--stego-kappa", type=int, default=128, help="attacker key bits")


def _add_channel(p):
    p.add_argument("--channel", choices=["uniform", "ses", "rand-alg", "signed"], default="ses")
    p.add_argument("--ell", type=int, default=4, help="messages per channel session")
    p.add_argument("--doc-bits", type=int, default=8, help="document bits for the uniform channel")


def _add_adversary(p, choices, default):
    p.add_argument("--adversary", choices=choices, default=default)
    p.add_argument("--queries", type=_positive_int, default=2)
    p.add_argument("--bins", type=int, default=4)
    p.add_argument("--budget", type=_nonneg_int, default=512)


def _add_fab(p):
    p.add_argument("--fab-ml", type=int, default=64, help="fabricated hidden message bits")
    p.add_argument("--decoys", type=_positive_int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subvertlab",
        description="Substitution attacks, rejection-sampling steganography, and their games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # channel
    channel = sub.add_parser("channel", help="document channels").add_subparsers(
        dest="subcommand", required=True
    )
    p = channel.add_parser("sample", help="walk a channel and emit documents")
    _add_common(p, trials=False)
    _add_host(p)
    _add_sig(p)
    _add_channel(p)
    p.add_argument("--count", type=_positive_int, default=5)
    p.add_argument(
        "--depth", type=_nonneg_int, default=0, help="history length to walk before sampling"
    )
    p.set_defaults(func=cmd_channel_sample)

    p = channel.add_parser("entropy", help="min-entropy, exact or estimated")
    _add_common(p, trials=False)
    _add_host(p)
    _add_sig(p)
    _add_channel(p)
    p.add_argument("--mode", choices=["exact", "estimate"], default="exact")
    p.add_argument(
        "--depths",
        type=_nonneg_int_list,
        default=[0],
        help="history depths for exact mode, comma separated",
    )
    p.add_argument("--depth", type=_nonneg_int, default=0, help="history depth for estimate mode")
    p.add_argument("--samples", type=int, default=4096)
    p.set_defaults(func=cmd_channel_entropy)

    # stego
    stego = sub.add_parser("stego", help="embedding and extraction").add_subparsers(
        dest="subcommand", required=True
    )
    p = stego.add_parser("embed", help="embed a message into channel documents")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    _add_channel(p)
    p.add_argument("--message", required=True, help="hidden message, hex")
    p.add_argument("--key", help="attacker key, hex (default: derived from seed)")
    p.add_argument(
        "--schedule", type=_positive_int_list, help="reboot segment lengths, comma separated"
    )
    p.set_defaults(func=cmd_stego_embed)

    p = stego.add_parser("extract", help="extract from a saved session file")
    p.add_argument("--file", required=True)
    p.add_argument("--key", help="attacker key, hex (default: from the file header)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_stego_extract)

    p = stego.add_parser("roundtrip", help="embed-extract recovery rate")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    _add_channel(p)
    p.add_argument("--history-mode", choices=["empty", "sampled"], default="empty")
    p.add_argument("--reboot", action="store_true", help="wipe state between segments")
    p.add_argument(
        "--schedule", type=_positive_int_list, help="fixed reboot schedule, comma separated"
    )
    p.set_defaults(func=cmd_stego_roundtrip)

    # asa
    asa = sub.add_parser("asa", help="substitution attacks").add_subparsers(
        dest="subcommand", required=True
    )
    p = asa.add_parser("build", help="show the attack derived from the current options")
    _add_common(p, trials=False)
    _add_host(p)
    _add_stego(p)
    p.set_defaults(func=cmd_asa_build)

    p = asa.add_parser("run", help="run one subverted session end to end")
    _add_common(p, trials=False)
    _add_host(p)
    _add_stego(p)
    p.add_argument("--message", help="hidden message, hex (default: random)")
    p.set_defaults(func=cmd_asa_run)

    p = asa.add_parser("extract", help="extract from a saved session file")
    p.add_argument("--file", required=True)
    p.add_argument("--key", help="attacker key, hex (default: from the file header)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_asa_extract)

    p = asa.add_parser("queries", help="measured oracle calls per ciphertext")
    _add_common(p)
    _add_host(p)
    _add_stego(p)
    p.set_defaults(func=cmd_asa_queries)

    # game
    game = sub.add_parser("game", help="Monte Carlo security games").add_subparsers(
        dest="subcommand", required=True
    )
    p = game.add_parser("cpa", help="scheme vs uniform strings")
    _add_common(p)
    _add_host(p)
    _add_adversary(p, ["constant", "flip", "repeat", "chi2"], "repeat")
    p.set_defaults(func=cmd_game_cpa)

    p = game.add_parser("enc-asa", help="subverted vs honest encryption")
    _add_common(p)
    _add_host(p)
    _add_stego(p)
    _add_adversary(p, ["constant", "flip", "repeat", "chi2"], "repeat")
    p.set_defaults(func=cmd_game_enc_asa)

    p = game.add_parser("ss-cha", help="embedded vs channel documents")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    _add_channel(p)
    _add_adversary(p, ["constant", "flip", "repeat", "chi2"], "repeat")
    p.set_defaults(func=cmd_game_ss_cha)

    p = game.add_parser("rasa", help="subverted vs genuine randomized algorithm")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    _add_adversary(p, ["constant", "flip", "repeat", "chi2"], "repeat")
    p.add_argument("--rasa-host", choices=["enc", "signed"], default="enc")
    p.add_argument("--attack", choices=["rejsam", "fabricating"], default="rejsam")
    p.add_argument("--force-embed", action="store_true")
    _add_fab(p)
    p.set_defaults(func=cmd_game_rasa)

    p = game.add_parser("forge", help="existential forgery")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    _add_adversary(
        p, ["replay", "random", "search", "universal", "fabricating"], "random"
    )
    _add_fab(p)
    p.set_defaults(func=cmd_game_forge)

    p = game.add_parser("unrel", help="recovery-rate estimates")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    _add_channel(p)
    p.add_argument(
        "--target", choices=["enc-asa", "stego", "stego-reboot", "rasa"], default="enc-asa"
    )
    p.add_argument("--message-mode", choices=["random", "equal"], default="random")
    p.add_argument("--history-mode", choices=["empty", "sampled"], default="empty")
    p.add_argument("--rasa-host", choices=["enc", "signed"], default="enc")
    p.add_argument("--attack", choices=["rejsam", "fabricating"], default="rejsam")
    p.add_argument("--force-embed", action="store_true")
    p.add_argument("--budget", type=_nonneg_int, default=4096)
    _add_fab(p)
    p.set_defaults(func=cmd_game_unrel)

    # lowerbound
    lb = sub.add_parser("lowerbound", help="rate lower-bound experiment").add_subparsers(
        dest="subcommand", required=True
    )
    p = lb.add_parser("phi", help="the counting bound, log domain")
    p.add_argument("--ml", type=int, required=True)
    p.add_argument("--outl", type=int, required=True)
    p.add_argument("--query", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lb_phi)

    p = lb.add_parser("forger", help="forgery rate of an attack-driven forger")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    p.add_argument("--attack", choices=["universal", "fabricating"], default="fabricating")
    p.add_argument("--budget", type=_nonneg_int, default=4096)
    _add_fab(p)
    p.set_defaults(func=cmd_lb_forger)

    p = lb.add_parser("rate", help="full measured rate report")
    _add_common(p)
    _add_host(p)
    _add_sig(p)
    _add_stego(p)
    p.add_argument("--attack", choices=["universal", "fabricating"], default="fabricating")
    p.add_argument("--budget", type=_nonneg_int, default=4096)
    p.add_argument("--query", type=float, default=None, help="override measured queries per output")
    _add_fab(p)
    p.set_defaults(func=cmd_lb_rate)

    # report
    report = sub.add_parser("report", help="report file utilities").add_subparsers(
        dest="subcommand", required=True
    )
    p = report.add_parser("merge", help="pool reports with matching game and config")
    p.add_argument("files", nargs="+")
    p.add_argument("--csv", help="also write a flat CSV summary")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report_merge)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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

"""Command line driver: json-lines output, determinism, files, exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

import subvertlab
from subvertlab import Adversary, ParameterError, UniversalityViolation
from subvertlab import cli, games, sig_fixture


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, [json.loads(line) for line in out.splitlines() if line.strip()], out


STEGO_OPTS = ["--ml", "4", "--s", "16", "--outl", "24", "--stego-kappa", "16"]


def test_embed_writes_a_recoverable_session_file(capsys, tmp_path):
    session = str(tmp_path / "session.jsonl")
    rc, lines, _ = run_cli(
        capsys,
        ["stego", "embed", "--channel", "uniform", "--doc-bits", "16", *STEGO_OPTS,
         "--message", "a", "--seed", "3", "--out", session],
    )
    assert rc == 0
    assert lines[0]["kind"] == "stego-session" and lines[0]["message_hex"] == "a0"
    assert sum(1 for l in lines if "doc_hex" in l) == 24
    assert lines[-1] == {"kind": "decode-check", "decoded_hex": "a0", "ok": True}

    # the payload carries no timestamps; provenance lives in the sidecar
    assert not any("created" in k for l in lines for k in l)
    meta = json.loads((tmp_path / "session.jsonl.meta.json").read_text())
    assert meta["schema"] == "subvertlab/1"
    assert "created_utc" in meta and isinstance(meta["argv"], list)

    rc, lines, _ = run_cli(capsys, ["stego", "extract", "--file", session])
    assert rc == 0 and lines == [{"kind": "stego-extract", "extracted_hex": "a0", "ok": True}]
    # a wrong key fails to decode instead of mis-decoding silently
    rc, lines, _ = run_cli(capsys, ["stego", "extract", "--file", session, "--key", "0000"])
    assert rc == 0 and lines[0]["ok"] is False


def test_subverted_session_file_roundtrip(capsys, tmp_path):
    session = str(tmp_path / "asa.jsonl")
    rc, lines, _ = run_cli(capsys, ["asa", "run", *STEGO_OPTS, "--seed", "2", "--out", session])
    assert rc == 0
    assert lines[0]["kind"] == "asa-session"
    assert lines[-1]["ok"] is True
    rc, lines, _ = run_cli(capsys, ["asa", "extract", "--file", session])
    assert rc == 0 and lines[0]["ok"] is True


def test_same_seed_same_bytes_any_job_count(capsys):
    base = ["game", "cpa", "--r", "2", "--trials", "60", "--seed", "4"]
    _, _, first = run_cli(capsys, base)
    _, _, again = run_cli(capsys, base)
    _, _, threaded = run_cli(capsys, base + ["--jobs", "4"])
    assert first == again == threaded
    _, _, other = run_cli(capsys, ["game", "cpa", "--r", "2", "--trials", "60", "--seed", "5"])
    assert other != first


def test_seed_falls_back_to_the_environment(capsys, monkeypatch):
    _, _, pinned = run_cli(capsys, ["game", "cpa", "--trials", "30", "--seed", "9"])
    monkeypatch.setenv(cli.ENV_SEED, "9")
    _, _, from_env = run_cli(capsys, ["game", "cpa", "--trials", "30"])
    assert from_env == pinned
    monkeypatch.setenv(cli.ENV_SEED, "ninety")
    rc = cli.main(["game", "cpa", "--trials", "30"])
    assert rc == 2
    capsys.readouterr()


def test_exit_codes(capsys, monkeypatch):
    # parameter rejection
    assert cli.main(["stego", "embed", "--ml", "7", "--message", "a"]) == 2
    assert "error:" in capsys.readouterr().err
    # missing input file
    assert cli.main(["stego", "extract", "--file", "/nonexistent/session.jsonl"]) == 2
    capsys.readouterr()
    # invariant violations get their own exit code
    def blow_up(args):
        raise UniversalityViolation("touched a forbidden host field")

    monkeypatch.setattr(cli, "cmd_lb_phi", blow_up)
    assert cli.main(["lowerbound", "phi", "--ml", "8", "--outl", "1", "--query", "2"]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_counting_bound_command(capsys):
    rc, lines, _ = run_cli(
        capsys, ["lowerbound", "phi", "--ml", "64", "--outl", "1", "--query", "4"]
    )
    assert rc == 0
    assert lines[0]["kind"] == "phi"
    assert lines[0]["log2_phi"] == -62.0 and lines[0]["trivial"] is False


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=reject)


def test_unbounded_values_print_strict_json(capsys):
    # no collision among the 2016 pairs of 64 samples: the 95% bound on
    # the collision rate, not infinity
    rc = cli.main(["channel", "entropy", "--mode", "estimate", "--samples", "64", "--seed", "0"])
    (line,) = capsys.readouterr().out.splitlines()
    rep = _strict_json(line)
    assert rc == 0 and rep["method"] == "collision-bound"
    assert rep["bits"] == pytest.approx(-math.log2(1 - 0.05 ** (1 / 2016)))
    # a counting bound too large for a float is null, its log stays finite
    rc = cli.main(["lowerbound", "phi", "--ml", "1", "--outl", "2000", "--query", "2"])
    (line,) = capsys.readouterr().out.splitlines()
    rep = _strict_json(line)
    assert rc == 0 and rep["phi"] is None and rep["log2_phi"] == pytest.approx(23930.5686)


def test_non_finite_output_exits_2_before_writing(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "cmd_lb_phi", lambda args: [{"kind": "phi"}, {"phi": math.inf}])
    out = tmp_path / "phi.jsonl"
    argv = ["lowerbound", "phi", "--ml", "8", "--outl", "1", "--query", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_query_count_command(capsys):
    rc, lines, _ = run_cli(capsys, ["asa", "queries", *STEGO_OPTS, "--trials", "60", "--seed", "1"])
    assert rc == 0
    assert lines[0]["kind"] == "query-count"
    assert abs(lines[0]["mean"] - 2.0) < 0.6


def test_query_count_needs_two_trials(capsys):
    # one trial has no sample deviation; an infinite interval is not JSON
    rc = cli.main(["asa", "queries", *STEGO_OPTS, "--trials", "1", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "at least 2 trials" in captured.err
    rc, lines, _ = run_cli(capsys, ["asa", "queries", *STEGO_OPTS, "--trials", "2", "--seed", "0"])
    assert rc == 0 and all(abs(x) < float("inf") for x in lines[0]["ci95"])


def test_exact_entropy_command(capsys):
    rc, lines, _ = run_cli(
        capsys,
        ["channel", "entropy", "--channel", "uniform", "--doc-bits", "8", "--mode", "exact"],
    )
    assert rc == 0
    assert lines[0]["bits"] == 8.0 and lines[0]["method"] == "exact"


def test_merge_pools_files_and_writes_csv(capsys, tmp_path):
    paths = []
    for seed in ("1", "2"):
        path = str(tmp_path / f"cpa-{seed}.jsonl")
        rc, _, _ = run_cli(
            capsys,
            ["game", "cpa", "--r", "2", "--trials", "50", "--seed", seed, "--out", path],
        )
        assert rc == 0
        paths.append(path)

    csv_path = str(tmp_path / "summary.csv")
    rc, lines, _ = run_cli(capsys, ["report", "merge", *paths, "--csv", csv_path])
    assert rc == 0
    assert len(lines) == 1
    merged = lines[0]
    assert merged["trials"] == 100
    assert merged["config"]["merged_from_seeds"] == [1, 2]

    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[0].startswith("game,trials,success_count,p_hat")
    assert len(rows) == 2 and rows[1].startswith("cpa-dist,100,")


def test_bad_session_files_exit_2_naming_path_and_line(capsys, tmp_path):
    session = tmp_path / "session.jsonl"
    rc, _, _ = run_cli(
        capsys,
        ["stego", "embed", "--channel", "uniform", "--doc-bits", "16", *STEGO_OPTS,
         "--message", "a", "--seed", "3", "--out", str(session)],
    )
    assert rc == 0
    header, *rest = session.read_text().splitlines()

    def extract(lines, *extra):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = cli.main(["stego", "extract", "--file", str(bad), *extra])
        captured = capsys.readouterr()
        return rc, captured.err or captured.out

    # a line that is not JSON
    rc, err = extract([header, "{not json", *rest])
    assert rc == 2 and f"{tmp_path / 'bad.jsonl'}:2" in err and "Traceback" not in err
    # non-hex key in the header, then non-hex document
    obj = json.loads(header)
    rc, err = extract([json.dumps({**obj, "key_hex": "zz"}), *rest])
    assert rc == 2 and "bad.jsonl:1" in err and "key_hex" in err
    doc = json.loads(rest[3])
    rc, err = extract([header, *rest[:3], json.dumps({**doc, "doc_hex": "xyz1"}), *rest[4:]])
    assert rc == 2 and "bad.jsonl:5" in err and "doc_hex" in err
    # non-hex key on the command line
    rc, err = extract([header, *rest], "--key", "g0")
    assert rc == 2 and "--key" in err
    # header keys missing: a parameter, and the key with no --key given
    params = {k: v for k, v in obj["params"].items() if k != "outl"}
    rc, err = extract([json.dumps({**obj, "params": params}), *rest])
    assert rc == 2 and "bad.jsonl:1" in err and "'outl'" in err
    no_key = {k: v for k, v in obj.items() if k != "key_hex"}
    rc, err = extract([json.dumps(no_key), *rest])
    assert rc == 2 and "bad.jsonl:1" in err and "key_hex" in err
    # ... which --key supplies
    rc, out = extract([json.dumps(no_key), *rest], "--key", obj["key_hex"])
    assert rc == 0 and json.loads(out)["ok"] is True
    # a file that is not UTF-8 text
    (tmp_path / "bad.jsonl").write_bytes(b"\xff\xfe{}\n")
    assert cli.main(["stego", "extract", "--file", str(tmp_path / "bad.jsonl")]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    # hex given on the command line is checked the same way
    assert cli.main(["stego", "embed", *STEGO_OPTS, "--message", "zz"]) == 2
    assert "--message" in capsys.readouterr().err
    # the same reader serves asa extract
    (tmp_path / "bad.jsonl").write_text(header + "\n[1, 2]\n")
    assert cli.main(["asa", "extract", "--file", str(tmp_path / "bad.jsonl")]) == 2
    assert "bad.jsonl:2: expected a JSON object" in capsys.readouterr().err


def test_channel_commands_walk_like_chained_samples(capsys):
    # channel sample walks --depth documents, then prints --count more;
    # the printed documents continue the same stream
    base = ["channel", "sample", "--channel", "uniform", "--doc-bits", "12", "--seed", "6"]
    _, deep, _ = run_cli(capsys, base + ["--depth", "3", "--count", "2"])
    _, flat, _ = run_cli(capsys, base + ["--count", "5"])
    assert [l["doc_hex"] for l in deep[1:]] == [l["doc_hex"] for l in flat[1:][3:]]


def test_jobs_and_trials_must_be_positive_at_parse_time(capsys):
    for argv in (
        ["game", "cpa", "--jobs", "0"],
        ["game", "cpa", "--jobs", "-4"],
        ["game", "cpa", "--jobs", "two"],
        ["game", "cpa", "--trials", "0"],
        ["asa", "queries", "--trials", "0"],
    ):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2, argv
        assert "positive integer" in capsys.readouterr().err
    # commands that run no trials take neither flag
    for argv in (
        ["channel", "sample", "--jobs", "2"],
        ["channel", "entropy", "--trials", "5"],
        ["asa", "build", "--jobs", "2"],
        ["asa", "run", "--trials", "3"],
    ):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_huge_jobs_forks_at_most_usable_cpus_less_one(capsys, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    base = ["game", "cpa", "--r", "2", "--trials", "40", "--seed", "4"]
    _, _, serial = run_cli(capsys, base)
    rc, _, huge = run_cli(capsys, base + ["--jobs", str(10**6)])
    assert rc == 0 and huge == serial
    assert len(forks) <= games._usable_cpus() - 1


PARALLEL_INVOCATIONS = [
    ["game", "enc-asa", *STEGO_OPTS, "--adversary", "chi2", "--queries", "8", "--trials", "20"],
    ["game", "cpa", "--r", "2", "--trials", "60"],
    ["game", "ss-cha", *STEGO_OPTS, "--trials", "20"],
    ["lowerbound", "rate", "--attack", "fabricating", "--sig", "coin-extractable",
     "--sig-ml", "16", "--tag-bits", "8", "--fab-ml", "8", "--budget", "1024", "--trials", "8"],
    ["game", "unrel", "--target", "enc-asa", *STEGO_OPTS, "--trials", "12"],
]


@pytest.mark.parametrize("argv", PARALLEL_INVOCATIONS, ids=lambda a: " ".join(a[:2]))
def test_stdout_is_identical_at_jobs_1_2_3(capsys, monkeypatch, argv):
    monkeypatch.setattr(games, "_usable_cpus", lambda: 3)
    for seed in ("4", "5"):
        outs = [run_cli(capsys, argv + ["--seed", seed, "--jobs", j])[2] for j in "123"]
        assert outs[0] and outs[0] == outs[1] == outs[2], (argv, seed)


def test_a_trial_failing_in_a_worker_process_exits_2(capsys, monkeypatch):
    parent = os.getpid()

    def strategy(view, rng):
        if os.getpid() != parent:
            raise ParameterError("rejected in a worker")
        return 0

    boom = Adversary("attacker", "boom", "fails off the calling process", strategy)
    monkeypatch.setitem(cli._DIST_ADVERSARIES, "constant", lambda args, kind: boom)
    monkeypatch.setattr(games, "_usable_cpus", lambda: 2)
    argv = ["game", "cpa", "--adversary", "constant", "--trials", "10"]
    assert cli.main(argv) == 0  # serial: every trial runs in this process
    capsys.readouterr()
    assert cli.main(argv + ["--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rejected in a worker\n" and captured.out == ""


def test_merge_names_the_line_missing_a_report_key(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"game": "cpa-dist", "schema": "subvertlab/1"}\n')
    assert cli.main(["report", "merge", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1" in err and "'trials'" in err and "Traceback" not in err
    bad.write_text(
        '{"game": "cpa-dist", "schema": "subvertlab/1", "trials": "9", "success_count": 1,'
        ' "p_hat": 0.1, "ci95": [0, 1]}\n'
    )
    assert cli.main(["report", "merge", str(bad)]) == 2
    assert f"{bad}:1" in capsys.readouterr().err


def test_merge_names_the_line_with_a_malformed_field(capsys, tmp_path):
    line = {"game": "cpa-dist", "schema": "subvertlab/1", "trials": 9, "success_count": 1,
            "p_hat": 0.1, "ci95": [0, 1]}
    path = tmp_path / "report.jsonl"
    path.write_text(json.dumps(line) + "\n")
    assert cli.main(["report", "merge", str(path)]) == 0
    capsys.readouterr()
    for key, value in (("config", [1]), ("advantage_ci95", 5), ("game", ["x"])):
        path.write_text(json.dumps(line | {key: value}) + "\n")
        assert cli.main(["report", "merge", str(path)]) == 2, key
        err = capsys.readouterr().err
        assert f"{path}:1" in err and repr(key) in err and "Traceback" not in err, key


def test_merge_rejects_numbers_json_cannot_hold(capsys, tmp_path):
    # the CSV dumps each config, so a NaN read there would reach the writer
    line = {"game": "cpa-dist", "schema": "subvertlab/1", "trials": 9, "success_count": 1,
            "p_hat": 0.1, "ci95": [0, 1], "config": {"x": math.nan}}
    path, csv_path = tmp_path / "report.jsonl", tmp_path / "merged.csv"
    path.write_text(json.dumps(line) + "\n")
    assert cli.main(["report", "merge", str(path), "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not csv_path.exists()
    assert f"{path}:1: not a JSON line (NaN is not a JSON value)" in captured.err


def test_sidecar_records_the_argv_main_was_given(capsys, tmp_path):
    out = str(tmp_path / "cpa.jsonl")
    argv = ["game", "cpa", "--r", "2", "--trials", "10", "--seed", "1", "--out", out]
    assert cli.main(argv) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "cpa.jsonl.meta.json").read_text())
    assert meta["argv"] == argv


def test_count_options_are_checked_at_parse_time(capsys):
    for argv in (
        ["game", "cpa", "--adversary", "chi2", "--queries", "0"],
        ["game", "cpa", "--adversary", "repeat", "--queries", "-1"],
        ["channel", "sample", "--count", "-2"],
        ["lowerbound", "rate", "--budget", "-1"],
        ["lowerbound", "rate", "--decoys", "0", "--fab-ml", "8", "--budget", "0", "--trials", "2"],
        ["lowerbound", "rate", "--decoys", "-1"],
        ["channel", "sample", "--depth", "-1"],
        ["channel", "entropy", "--depth", "-1"],
        ["channel", "entropy", "--depths", "0,-1"],
        ["stego", "embed", "--message", "a", "--schedule", "a,b"],
        ["stego", "embed", "--message", "a", "--schedule", "8,0"],
        ["stego", "roundtrip", "--reboot", "--schedule", "x"],
    ):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2, argv
        err = capsys.readouterr().err
        assert "integer" in err and "Traceback" not in err, argv
    # --budget 0 means no search; the forger then never wins
    rc, lines, _ = run_cli(
        capsys, ["lowerbound", "forger", "--tag-bits", "8", "--fab-ml", "8", "--budget", "0",
                 "--trials", "4", "--seed", "1"],
    )
    assert rc == 0 and lines[0]["success_count"] == 0


def test_a_directory_where_a_file_belongs_exits_2(capsys, tmp_path):
    report = str(tmp_path / "cpa.jsonl")
    assert cli.main(["game", "cpa", "--trials", "5", "--out", report]) == 0
    capsys.readouterr()
    for argv in (
        ["report", "merge", str(tmp_path)],
        ["report", "merge", report, "--csv", str(tmp_path)],
        ["game", "cpa", "--trials", "5", "--out", str(tmp_path)],
        ["stego", "extract", "--file", str(tmp_path)],
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err and "Traceback" not in err, argv


def test_odd_hex_message_longer_than_its_digits_exits_2(capsys):
    rc = cli.main(["stego", "embed", "--message", "5", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "--message" in captured.err and "odd-length hex" in captured.err
    assert "Traceback" not in captured.err


def _opt(flag, default=None, choices=None, required=False):
    return ((flag,), flag[2:].replace("-", "_"), default, required, choices)


SEED_OUT = {_opt("--seed"), _opt("--out")}
RUN = {_opt("--trials", 200), _opt("--jobs", 1)}
HOST = {
    _opt("--host", "randpad", ("randpad", "det")),
    _opt("--kappa", 16),
    _opt("--r", 8),
    _opt("--host-ml", 8),
}
SIG = {
    _opt("--sig", "coin-injective", ("coin-injective", "coin-extractable", "unique")),
    _opt("--sig-ml", 8),
    _opt("--sig-coins", 8),
    _opt("--tag-bits", 64),
}
STEGO = {
    _opt("--ml", 8),
    _opt("--s", 64),
    _opt("--outl"),
    _opt("--beta"),
    _opt("--block-bits", 1),
    _opt("--stego-kappa", 128),
}
CHANNEL = {
    _opt("--channel", "ses", ("uniform", "ses", "rand-alg", "signed")),
    _opt("--ell", 4),
    _opt("--doc-bits", 8),
}
DIST = {
    _opt("--adversary", "repeat", ("constant", "flip", "repeat", "chi2")),
    _opt("--queries", 2),
    _opt("--bins", 4),
}
FAB = {_opt("--fab-ml", 64), _opt("--decoys", 4)}
RASA = {
    _opt("--rasa-host", "enc", ("enc", "signed")),
    _opt("--attack", "rejsam", ("rejsam", "fabricating")),
    _opt("--force-embed", False),
}
EXTRACT = {_opt("--file", required=True), _opt("--key"), _opt("--seed")}
LB_ATTACK = {_opt("--attack", "fabricating", ("universal", "fabricating")), _opt("--budget", 4096)}
HISTORY_MODE = _opt("--history-mode", "empty", ("empty", "sampled"))

# every subcommand's options as (option strings, dest, default, required,
# choices); an option no command reads has no place here
OPTION_SURFACE = {
    ("channel", "sample"): SEED_OUT | HOST | SIG | CHANNEL
    | {_opt("--count", 5), _opt("--depth", 0)},
    ("channel", "entropy"): SEED_OUT | HOST | SIG | CHANNEL
    | {_opt("--mode", "exact", ("exact", "estimate")), _opt("--depths", (0,)),
       _opt("--depth", 0), _opt("--samples", 4096)},
    ("stego", "embed"): SEED_OUT | RUN | HOST | SIG | STEGO | CHANNEL
    | {_opt("--message", required=True), _opt("--key"), _opt("--schedule")},
    ("stego", "extract"): EXTRACT,
    ("stego", "roundtrip"): SEED_OUT | RUN | HOST | SIG | STEGO | CHANNEL
    | {HISTORY_MODE, _opt("--reboot", False), _opt("--schedule")},
    ("asa", "build"): SEED_OUT | HOST | STEGO,
    ("asa", "run"): SEED_OUT | HOST | STEGO | {_opt("--message")},
    ("asa", "extract"): EXTRACT,
    ("asa", "queries"): SEED_OUT | RUN | HOST | STEGO,
    ("game", "cpa"): SEED_OUT | RUN | HOST | DIST,
    ("game", "enc-asa"): SEED_OUT | RUN | HOST | STEGO | DIST,
    ("game", "ss-cha"): SEED_OUT | RUN | HOST | SIG | STEGO | CHANNEL | DIST,
    ("game", "rasa"): SEED_OUT | RUN | HOST | SIG | STEGO | DIST | RASA | FAB
    | {_opt("--budget", 512)},
    ("game", "forge"): SEED_OUT | RUN | HOST | SIG | STEGO | FAB
    | {_opt("--adversary", "random", ("replay", "random", "search", "universal", "fabricating")),
       _opt("--budget", 512)},
    ("game", "unrel"): SEED_OUT | RUN | HOST | SIG | STEGO | CHANNEL | RASA | FAB
    | {_opt("--target", "enc-asa", ("enc-asa", "stego", "stego-reboot", "rasa")),
       _opt("--message-mode", "random", ("random", "equal")), HISTORY_MODE,
       _opt("--budget", 4096)},
    ("lowerbound", "phi"): SEED_OUT
    | {_opt("--ml", required=True), _opt("--outl", required=True),
       _opt("--query", required=True)},
    ("lowerbound", "forger"): SEED_OUT | RUN | HOST | SIG | STEGO | FAB | LB_ATTACK,
    ("lowerbound", "rate"): SEED_OUT | RUN | HOST | SIG | STEGO | FAB | LB_ATTACK
    | {_opt("--query")},
    ("report", "merge"): SEED_OUT | {((), "files", None, True, None), _opt("--csv")},
}


def _option_surface(parser):
    surface = {}
    # group and subcommand parsers add their contents on first use
    for name, group in parser._subparsers._group_actions[0].choices.items():
        for sub, p in group.filled()._subparsers._group_actions[0].choices.items():
            p.filled()
            surface[name, sub] = {
                (
                    tuple(a.option_strings),
                    a.dest,
                    tuple(a.default) if isinstance(a.default, list) else a.default,
                    a.required,
                    None if a.choices is None else tuple(a.choices),
                )
                for a in p._actions
                if a.dest != "help"
            }
    return surface


def test_option_surface_is_pinned():
    surface = _option_surface(cli.build_parser())
    assert surface.keys() == OPTION_SURFACE.keys()
    for command, expected in OPTION_SURFACE.items():
        assert surface[command] == expected, command
    assert sum(map(len, surface.values())) == 310


def test_package_exports_are_pinned():
    assert sorted(subvertlab.__all__) == [
        "Adversary", "AlgSubstitutionAttack", "Bits", "Channel", "GameReport",
        "InvalidHistoryError", "InvariantViolation", "LengthMismatchError", "MinEntropyReport",
        "NoExactPmfError", "OracleQuery", "OracleTranscript", "ParameterError", "PhiReport",
        "Prf", "QueryCountEstimate", "RandomizedAlgorithm", "SCHEMA", "ScheduleError",
        "SchemaMismatchError", "SignatureScheme", "SignedFamily", "StegoParams", "StegoSystem",
        "SubstitutionAttack", "SubvertLabError", "SymmetricEncryptionScheme", "TrialStreams",
        "UniversalHost", "UniversalityViolation", "WrongDocumentCountError", "__version__",
        "advantage_and_ci", "alg_enc_all", "alg_from_encryption", "alg_from_signing",
        "asa_enc_all", "asa_from_stego", "channel_pmf", "channel_sample", "channel_support",
        "channel_walk", "check_history", "chi2_attacker", "chi2_quantile", "chi2_warden",
        "chi2_watchdog", "constant_guess", "default_beta", "default_watchdogs", "det_scheme",
        "draw_next", "encode_all", "encode_schedule", "encode_step", "estimate_unrel",
        "estimate_unrel_alg", "estimate_unrel_reboot", "estimate_unrel_stego",
        "extend_history", "fabricating_asa", "forger_from_fabricating_asa",
        "forger_from_universal_asa", "generic_asa_against_alg", "hmac_sha256",
        "is_power_of_two", "make_signed_family", "mark_agreement", "merge_reports",
        "min_entropy_estimate", "min_entropy_exact", "outl_for", "phi", "prf_split_block",
        "query_count", "rand_alg_channel", "random_composition", "random_forger",
        "random_guess", "randpad_scheme", "rate_report", "rejsam_decode", "rejsam_system",
        "repeat_attacker", "repeat_warden", "repeat_watchdog", "replay_forger", "run_cpa_dist",
        "run_enc_asa_dist", "run_rasa_dist", "run_sig_forge", "run_ss_cha_dist",
        "search_forger", "ses_channel", "sig_fixture", "stego_from_asa", "substream",
        "uniform_channel", "universal_asa", "watchdog_to_warden", "wilson_ci",
        "wrapped_warden_to_watchdog",
    ]
    # every exported name resolves on the package
    assert all(hasattr(subvertlab, name) for name in subvertlab.__all__)


FAB_OPTS = ["--sig", "coin-extractable", "--sig-ml", "16", "--tag-bits", "8"]
SIGNED_FAB = ["--rasa-host", "signed", "--attack", "fabricating", *FAB_OPTS]


@pytest.mark.parametrize(
    "argv",
    [
        # options stego roundtrip would otherwise ignore
        ["stego", "roundtrip", *STEGO_OPTS, "--trials", "4", "--schedule", "1,1"],
        ["stego", "roundtrip", *STEGO_OPTS, "--trials", "4", "--schedule", "8,8,8"],
        ["stego", "roundtrip", *STEGO_OPTS, "--trials", "4", "--reboot", "--history-mode",
         "sampled"],
        # stego sizing with no finite document count
        ["asa", "build", "--block-bits", "0"],
        ["asa", "build", "--block-bits", "-1"],
        ["asa", "build", "--beta", "nan"],
        ["asa", "build", "--beta", "inf"],
        ["game", "enc-asa", "--beta", "1e308", "--trials", "2"],
        ["stego", "embed", *STEGO_OPTS, "--beta", "nan", "--message", "a7"],
        # counting bound arguments that are not JSON numbers, or below one
        ["lowerbound", "phi", "--ml", "8", "--outl", "1", "--query", "nan"],
        ["lowerbound", "phi", "--ml", "8", "--outl", "1", "--query", "inf"],
        ["lowerbound", "phi", "--ml", "8", "--outl", "2", "--query", "1e308"],  # log2 phi overflows
        ["lowerbound", "phi", "--ml", "9" * 400, "--outl", "1", "--query", "2"],
        ["lowerbound", "phi", "--ml", "8", "--outl", "9" * 400, "--query", "2"],
        ["lowerbound", "rate", *FAB_OPTS, "--fab-ml", "8", "--query", "nan", "--trials", "2"],
        ["lowerbound", "rate", *FAB_OPTS, "--fab-ml", "8", "--query", "inf", "--trials", "2"],
        ["lowerbound", "rate", *FAB_OPTS, "--fab-ml", "8", "--query", "0.5", "--trials", "2"],
        # a fabricated message of negative length
        ["lowerbound", "forger", *FAB_OPTS, "--fab-ml", "-1", "--trials", "2"],
        ["game", "rasa", *SIGNED_FAB, "--fab-ml", "-1", "--trials", "2"],
        ["game", "unrel", "--target", "rasa", *SIGNED_FAB, "--fab-ml", "-1", "--trials", "2"],
    ],
    ids=" ".join,
)
def test_out_of_range_values_exit_2_without_output(capsys, argv):
    rc = cli.main(argv + ["--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["subvertlab"]:
                yield words[1:]


def test_readme_commands_parse():
    # parse only: a table row that drops an option the README uses fails here
    commands = list(_readme_commands())
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func), argv


def _help_cases():
    """(command group, argv) of every help, usage and error path the
    parser prints: --help and an unknown option on the root and on each
    group, each group bare, and --help, an unknown option and a non-integer
    --trials on each subcommand."""
    yield "", ["--help"]
    yield "", ["--bogus"]
    for command in cli._COMMAND_HELP:
        for tail in (["--help"], [], ["--bogus"]):
            yield command, [command, *tail]
    for command, subcommand, *_ in cli._COMMANDS:
        for tail in (["--help"], ["--bogus"], ["--trials", "x"]):
            yield command, [command, subcommand, *tail]


# sha256 over each group's cases (exit code, stdout, stderr) at COLUMNS=80,
# taken when every subcommand's options were added up front
HELP_PINS = {
    "": "aaae6d2929e19c21987ffacd2370424c625680428203921b51b88a68cf8306fa",
    "channel": "64eb42713088b6785eca65d5ea15867301ea2985335aa37d7bc0efc85160e8de",
    "stego": "ef8a7a07ce776e29ef65ff1fa107ffcdd69cda87a45a97878cf19ce397dc67c8",
    "asa": "acddbf90b9b2cf3b99300f3432c539c5ea89dedc0f7ba5e5d492a169d51170d4",
    "game": "242c348bf905668f20ee986f29c99f795291d918482352f0cc4eeda81f2bf1fa",
    "lowerbound": "e04a4f3463580421c7492e53db0e52bed41e091c458312e5a48dfc03fa4eea8c",
    "report": "ebd9b7a3e753b25ea74e11777f6a4c81460835738bbc554ba7fb23b94c30b320",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned on Python 3.11's argparse layout")
def test_help_usage_and_errors_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digests, cases = {}, 0
    for group, argv in _help_cases():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        text = f"{argv}\n{code}\n{captured.out}\n{captured.err}\n"
        digests.setdefault(group, hashlib.sha256()).update(text.encode())
        cases += 1
    assert cases == 77
    assert {group: h.hexdigest() for group, h in digests.items()} == HELP_PINS


def test_parser_builds_only_what_an_invocation_names(monkeypatch):
    parser = cli.build_parser()
    groups = parser._subparsers._group_actions[0].choices
    assert all(g._subparsers is None for g in groups.values())  # nothing below the root yet
    # a handler patched after build_parser() is the one that runs
    monkeypatch.setattr(cli, "cmd_game_cpa", lambda args: [{"patched": args.trials}])
    args = parser.parse_args(["game", "cpa", "--trials", "3"])
    assert args.func(args) == [{"patched": 3}]
    game = groups["game"]._subparsers._group_actions[0].choices
    assert game["cpa"]._actions and not any(p._actions[1:] for n, p in game.items() if n != "cpa")
    assert all(g._subparsers is None for name, g in groups.items() if name != "game")


def test_verifiers_that_disagree_exit_3(capsys, monkeypatch):
    def lying_sig_fixture(*args, **kwargs):
        return dataclasses.replace(sig_fixture(*args, **kwargs), vrfy=lambda *a: False)

    monkeypatch.setattr(cli, "sig_fixture", lying_sig_fixture)
    argv = ["game", "forge", "--adversary", "search", "--tag-bits", "4", "--trials", "2"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invariant violation:")

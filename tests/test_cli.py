"""Command line driver: json-lines output, determinism, files, exit codes."""

import argparse
import dataclasses
import hashlib
import inspect
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
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_a_report_that_cannot_be_saved_is_not_printed(capsys, tmp_path):
    out = tmp_path / "missing" / "phi.jsonl"
    argv = ["lowerbound", "phi", "--ml", "8", "--outl", "1", "--query", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.parent.exists()
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


def test_bins_below_two_is_refused_at_parse_time(capsys):
    # one bin leaves the chi-square statistic no degree of freedom
    with pytest.raises(SystemExit) as exited:
        cli.main(["game", "cpa", "--adversary", "chi2", "--bins", "1", "--trials", "1"])
    captured = capsys.readouterr()
    assert exited.value.code == 2 and captured.out == ""
    assert "argument --bins" in captured.err and "Traceback" not in captured.err


def test_exact_entropy_command(capsys):
    rc, lines, _ = run_cli(
        capsys,
        ["channel", "entropy", "--channel", "uniform", "--doc-bits", "8", "--mode", "exact"],
    )
    assert rc == 0
    assert lines[0]["bits"] == 8.0 and lines[0]["method"] == "exact"


def test_exact_entropy_of_the_signed_channel(capsys):
    # randpad r=2 signed with 2 coin bits: 16 coin strings, 16 outputs
    signed = ["channel", "entropy", "--channel", "signed", "--mode", "exact", "--depths", "5"]
    rc, lines, out = run_cli(capsys, [*signed, "--r", "2", "--sig-coins", "2"])
    assert rc == 0 and '"bits":4.0' in out
    # 2^24 coin strings are past what the law enumerates
    rc = cli.main([*signed, "--r", "12", "--sig-coins", "12"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "coin space too large to enumerate" in captured.err
    assert "Traceback" not in captured.err


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
    # the file's bytes, header and row together, as first written
    digest = hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest()
    assert digest == "f625e4b6bae820c9675c63c7f6b3d760b1dd5b069efad6a480d54b78e6be4e42"


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
    # header parameters StegoParams refuses
    for name, value, what in (("beta", "x", "beta"), ("ml", 3, "ml"), ("s", 0, "cutoff s")):
        rc, err = extract([json.dumps({**obj, "params": {**obj["params"], name: value}}), *rest])
        assert rc == 2 and err.startswith(f"error: {tmp_path / 'bad.jsonl'}:1: {what}"), name
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


@pytest.mark.parametrize("command", ["stego", "asa"])
def test_extract_compares_the_expected_message_as_bits(capsys, tmp_path, command):
    # the header's message_hex is read as ml bits, the way doc_hex is: any
    # case of hex digits, and a short, empty or non-string value exits 2
    session = tmp_path / "session.jsonl"
    rc, _, _ = run_cli(
        capsys,
        ["stego", "embed", "--channel", "uniform", "--doc-bits", "16", "--ml", "16", "--s", "16",
         "--outl", "256", "--stego-kappa", "16", "--message", "abcd", "--seed", "3",
         "--out", str(session)],
    )
    assert rc == 0
    header, *rest = session.read_text().splitlines()
    obj = json.loads(header)
    assert obj["message_hex"] == "abcd"

    def extract(message_hex):
        bad = tmp_path / "bad.jsonl"
        head = {k: v for k, v in obj.items() if k != "message_hex"}
        if message_hex is not ...:
            head["message_hex"] = message_hex
        bad.write_text("\n".join([json.dumps(head), *rest]) + "\n")
        rc = cli.main([command, "extract", "--file", str(bad)])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    for message_hex, ok in (("abcd", True), ("ABCD", True), ("aBcD", True), ("abcd0", True),
                            ("abce", False), (None, True), (..., True)):
        rc, out, err = extract(message_hex)
        assert rc == 0 and json.loads(out)["ok"] is ok, (message_hex, err)
        assert json.loads(out)["extracted_hex"] == "abcd"
    for message_hex in ("00", 7, "", 0, "abcd1", "zzzz", ["abcd"]):
        rc, out, err = extract(message_hex)
        assert rc == 2 and out == "", message_hex
        assert "bad.jsonl:1: message_hex" in err and "Traceback" not in err, (message_hex, err)


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
    ["asa", "queries", *STEGO_OPTS, "--trials", "20"],
    # no --query: the attack's own query_count runs before the five legs
    pytest.param(["lowerbound", "rate", "--attack", "universal", *STEGO_OPTS, "--trials", "4"],
                 id="lowerbound rate universal"),
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

    boom = Adversary("boom", strategy)  # fails off the calling process
    monkeypatch.setitem(cli._DIST_ADVERSARIES, "constant", lambda args: boom)
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


def test_merge_over_files_with_no_game_report_exits_2(capsys, tmp_path):
    empty, other = tmp_path / "empty.jsonl", tmp_path / "other.jsonl"
    empty.write_text("")
    other.write_text('{"kind": "stego-extract", "ok": true}\n')
    out, csv_path = tmp_path / "merged.jsonl", tmp_path / "merged.csv"
    argv = ["report", "merge", str(empty), str(other), "--out", str(out), "--csv", str(csv_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no game report in {empty}, {other}\n"
    assert captured.out == "" and not out.exists() and not csv_path.exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["asa", "run", "--message", "12345", "--ml", "8"],
        ["stego", "embed", "--message", "ffff"],
        ["stego", "embed", "--message", "a5", "--ml", "4"],
        ["stego", "embed", "--message", "a8", "--ml", "4"],
        ["stego", "embed", "--message", "a", "--key", "0000f", *STEGO_OPTS],
    ],
)
def test_hex_with_set_bits_past_its_length_exits_2(argv, capsys):
    rc = cli.main([*argv, "--seed", "0"])
    captured = capsys.readouterr()
    where = argv[argv.index("--key") if "--key" in argv else 2]
    assert rc == 2 and captured.out == ""
    assert f"error: {where}:" in captured.err and "sets bits past" in captured.err
    assert "Traceback" not in captured.err


def test_hex_with_zero_bits_past_its_length_is_read(capsys, tmp_path):
    # the pad bits Bits.hex() writes, and the digits the golden rows pass
    for argv in (
        ["asa", "run", "--message", "12", "--ml", "8"],
        ["stego", "embed", "--message", "a", *STEGO_OPTS],
        ["stego", "embed", "--message", "5", *STEGO_OPTS],
        ["stego", "embed", "--message", "a0", *STEGO_OPTS],
    ):
        rc, lines, _ = run_cli(capsys, [*argv, "--seed", "0"])
        assert rc == 0 and lines[-1]["ok"], argv
    # a session of 12-bit documents saves each with four zero pad bits
    session = str(tmp_path / "session.jsonl")
    rc, lines, _ = run_cli(
        capsys,
        ["stego", "embed", "--channel", "uniform", "--doc-bits", "12", *STEGO_OPTS,
         "--message", "c", "--seed", "2", "--out", session],
    )
    assert rc == 0 and {line["bits"] for line in lines[1:-1]} == {12}
    rc, lines, _ = run_cli(capsys, ["stego", "extract", "--file", session])
    assert rc == 0 and lines == [{"kind": "stego-extract", "extracted_hex": "c0", "ok": True}]
    # a set pad bit in a saved document is named by file and line
    rows = Path(session).read_text().splitlines()
    doc = json.loads(rows[3])
    doc["doc_hex"] = doc["doc_hex"][:-1] + "1"
    rows[3] = json.dumps(doc)
    Path(session).write_text("\n".join(rows) + "\n")
    assert cli.main(["stego", "extract", "--file", session]) == 2
    assert f"{session}:4: doc_hex" in capsys.readouterr().err


def test_channel_entropy_rejects_the_other_modes_depth_option(capsys):
    for argv in (
        ["channel", "entropy", "--depth", "5"],
        ["channel", "entropy", "--mode", "exact", "--depth", "0"],
        ["channel", "entropy", "--mode", "exact", "--samples", "64"],
        ["channel", "entropy", "--mode", "estimate", "--samples", "64", "--depths", "0,1,3"],
    ):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", argv
        assert "applies to --mode" in captured.err and "Traceback" not in captured.err, argv
    # each mode's own options still default: history depth 0, 4096 samples
    for mode, options in (("exact", ["--depths", "0"]), ("estimate", ["--depth", "0"])):
        argv = ["channel", "entropy", "--mode", mode, "--r", "4"]
        left_out = run_cli(capsys, argv)
        assert left_out[0] == 0 and left_out == run_cli(capsys, [*argv, *options]), mode
    argv = ["channel", "entropy", "--mode", "estimate", "--r", "4"]
    assert run_cli(capsys, argv) == run_cli(capsys, [*argv, "--samples", "4096"])


@pytest.mark.parametrize(
    "argv, extra, digest",
    [
        (["channel", "sample", "--channel", "uniform", "--count", "3", "--seed", "1"],
         [["--ell", "9"], ["--kappa", "5"], ["--sig", "unique"]],
         "6f001bd67853d968ac54cf26f90ed01b0ddf1a8dd666840afee13884a4b34b57"),
        (["stego", "roundtrip", "--channel", "ses", "--trials", "3", "--seed", "1"],
         [["--doc-bits", "3"]],
         "f9bc4606aab85eaf060a5816510b3d56fe40831b1bc86b10f0642f4b3ee1ac9e"),
    ],
    ids=["channel sample uniform", "stego roundtrip ses"],
)
def test_options_the_channel_does_not_read_exit_2(capsys, argv, extra, digest):
    # each printed these bytes with and without the options it ignored
    rc, _, out = run_cli(capsys, argv)
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    for option in extra:
        rc = cli.main([*argv, *option])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", option
        assert f"{option[0]} does not apply to --channel" in captured.err, option


@pytest.mark.parametrize(
    "command", [["channel", "sample"], ["channel", "entropy"], ["stego", "embed", "--message", "a7"],
                ["stego", "roundtrip", "--trials", "2"], ["game", "ss-cha", "--trials", "2"]],
    ids=lambda c: " ".join(c[:2]),
)
@pytest.mark.parametrize(
    "channel, defaults",
    [
        ("uniform", ["--doc-bits", "8"]),
        ("ses", ["--ell", "4", "--host", "randpad", "--kappa", "16", "--r", "8", "--host-ml", "8"]),
        ("rand-alg", ["--ell", "4", "--r", "8"]),
        ("signed",
         ["--kappa", "16", "--sig", "coin-injective", "--sig-ml", "16", "--tag-bits", "64"]),
    ],
)
def test_each_channel_reads_its_options_defaults_when_left_out(capsys, command, channel, defaults):
    argv = [*command, "--channel", channel, "--seed", "2"]
    left_out = run_cli(capsys, argv)
    assert left_out[0] == 0 and left_out == run_cli(capsys, [*argv, *defaults])


def _opt(flag, default=None, choices=None, required=False):
    return ((flag,), flag[2:].replace("-", "_"), default, required, choices)


SEED_OUT = {_opt("--seed"), _opt("--out")}
RUN = {_opt("--trials", 200), _opt("--jobs", 1)}
# --r is read under --host randpad alone, and cli._settle applies its
# default 8 there
HOST = {
    _opt("--host", "randpad", ("randpad", "det")),
    _opt("--kappa", 16),
    _opt("--r"),
    _opt("--host-ml", 8),
}
# --sig-coins is read under --sig coin-injective and coin-extractable, and
# cli._settle applies its default 8 there; --sig-ml left out is 8 bits for a
# bare fixture and the host's ciphertext length for a signed family
SIG = {
    _opt("--sig", "coin-injective", ("coin-injective", "coin-extractable", "unique")),
    _opt("--sig-ml"),
    _opt("--sig-coins"),
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
# --queries is read by --adversary repeat and chi2, --bins by chi2 alone;
# cli._settle applies their defaults 2 and 4
DIST = {
    _opt("--adversary", "repeat", ("constant", "flip", "repeat", "chi2")),
    _opt("--queries"),
    _opt("--bins"),
}
# options that one --attack (or --adversary, --target) reads parse to None,
# and cli._settle applies the defaults their row declares: --fab-ml 8,
# --decoys 4, --budget 512 under game rasa and game forge and 4096
# elsewhere, --force-embed False
FAB_DEFERRED = {_opt("--fab-ml"), _opt("--decoys"), _opt("--budget")}
# forgers, attacks and targets (lowerbound's, game rasa's and game unrel's)
# that build no stegosystem, host scheme, channel or signature fixture make
# those options parse to None too; --kappa keeps its default, since every
# signature fixture reads it
STEGO_DEFERRED = {_opt(flag) for (flag,), *_ in STEGO}
SIG_DEFERRED = {_opt(flag, None, choices) for (flag,), _, _, _, choices in SIG}
CHANNEL_DEFERRED = {_opt(flag, None, choices) for (flag,), _, _, _, choices in CHANNEL}
HOST_DEFERRED = {_opt("--host", None, ("randpad", "det")), _opt("--r"), _opt("--host-ml")}
# where --channel decides what is read (channel sample and entropy, stego
# embed and roundtrip, game ss-cha, and game unrel with --target and
# --channel together), --ell and the host group (--kappa too) parse to
# None, and so do --doc-bits and the signature group
CHANNEL_HOST = HOST_DEFERRED | {_opt("--kappa")} | SIG_DEFERRED
CHANNEL_BY_VALUE = {_opt("--channel", "ses", ("uniform", "ses", "rand-alg", "signed")),
                    _opt("--ell"), _opt("--doc-bits")}
EXTRACT = {_opt("--file", required=True), _opt("--key"), _opt("--seed")}
LB_ATTACK = _opt("--attack", "fabricating", ("universal", "fabricating"))

# every subcommand's options as (option strings, dest, default, required,
# choices); an option no command reads has no place here
OPTION_SURFACE = {
    ("channel", "sample"): SEED_OUT | CHANNEL_HOST | CHANNEL_BY_VALUE
    | {_opt("--count", 5), _opt("--depth", 0)},
    ("channel", "entropy"): SEED_OUT | CHANNEL_HOST | CHANNEL_BY_VALUE
    | {_opt("--mode", "exact", ("exact", "estimate")), _opt("--depths"), _opt("--depth"),
       _opt("--samples")},
    ("stego", "embed"): SEED_OUT | RUN | CHANNEL_HOST | STEGO | CHANNEL_BY_VALUE
    | {_opt("--message", required=True), _opt("--key"), _opt("--schedule")},
    ("stego", "extract"): EXTRACT,
    ("stego", "roundtrip"): SEED_OUT | RUN | CHANNEL_HOST | STEGO | CHANNEL_BY_VALUE
    | {_opt("--history-mode", None, ("empty", "sampled")), _opt("--reboot", False),
       _opt("--schedule")},
    ("asa", "build"): SEED_OUT | HOST | STEGO,
    ("asa", "run"): SEED_OUT | HOST | STEGO | {_opt("--message")},
    ("asa", "extract"): EXTRACT,
    ("asa", "queries"): SEED_OUT | RUN | HOST | STEGO,
    ("game", "cpa"): SEED_OUT | RUN | HOST | DIST,
    ("game", "enc-asa"): SEED_OUT | RUN | HOST | STEGO | DIST,
    ("game", "ss-cha"): SEED_OUT | RUN | CHANNEL_HOST | STEGO | CHANNEL_BY_VALUE | DIST,
    ("game", "rasa"): SEED_OUT | RUN | HOST | SIG_DEFERRED | STEGO_DEFERRED | DIST | FAB_DEFERRED
    | {_opt("--rasa-host", "enc", ("enc", "signed")),
       _opt("--attack", "rejsam", ("rejsam", "fabricating")), _opt("--force-embed")},
    ("game", "forge"): SEED_OUT | RUN | HOST_DEFERRED | {_opt("--kappa", 16)} | SIG
    | STEGO_DEFERRED | FAB_DEFERRED
    | {_opt("--adversary", "random", ("replay", "random", "search", "universal", "fabricating"))},
    # the options one --target reads parse to None; cli._settle applies
    # the defaults their row declares (random, empty, enc, rejsam, False,
    # 8, 4 and 4096, and those of the host, stego, channel and signature
    # groups)
    ("game", "unrel"): SEED_OUT | RUN | CHANNEL_HOST | STEGO_DEFERRED | CHANNEL_DEFERRED
    | {_opt("--target", "enc-asa", ("enc-asa", "stego", "stego-reboot", "rasa")),
       _opt("--message-mode", None, ("random", "equal")),
       _opt("--history-mode", None, ("empty", "sampled")),
       _opt("--rasa-host", None, ("enc", "signed")),
       _opt("--attack", None, ("rejsam", "fabricating")),
       _opt("--force-embed")} | FAB_DEFERRED,
    ("lowerbound", "phi"): SEED_OUT
    | {_opt("--ml", required=True), _opt("--outl", required=True),
       _opt("--query", required=True)},
    ("lowerbound", "forger"): SEED_OUT | RUN | HOST | SIG | STEGO_DEFERRED | FAB_DEFERRED
    | {LB_ATTACK},
    ("lowerbound", "rate"): SEED_OUT | RUN | HOST | SIG | STEGO_DEFERRED | FAB_DEFERRED
    | {LB_ATTACK, _opt("--query")},
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
        "Adversary", "Bits", "Channel", "GameReport",
        "InvalidHistoryError", "InvariantViolation", "LengthMismatchError", "MinEntropyReport",
        "OracleQuery", "ParameterError", "PhiReport",
        "Prf", "QueryCountEstimate", "RandomizedAlgorithm", "SCHEMA", "ScheduleError",
        "SchemaMismatchError", "SignatureScheme", "SignedFamily", "StegoParams", "StegoSystem",
        "SubstitutionAttack", "SubvertLabError", "SymmetricEncryptionScheme", "TrialStreams",
        "UniversalHost", "UniversalityViolation", "WrongDocumentCountError", "__version__",
        "advantage_and_ci", "alg_enc_all", "alg_from_encryption", "alg_from_signing",
        "asa_enc_all", "asa_from_stego", "channel_law", "channel_sample", "channel_walk",
        "check_history", "chi2_attacker", "chi2_quantile", "chi2_warden", "chi2_watchdog",
        "constant_guess", "default_beta", "default_watchdogs", "det_scheme",
        "encode_all", "encode_schedule", "encode_step", "estimate_unrel", "estimate_unrel_alg",
        "estimate_unrel_reboot", "estimate_unrel_stego", "fabricating_asa",
        "forger_from_fabricating_asa", "forger_from_universal_asa", "generic_asa_against_alg",
        "hmac_sha256",
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


# every value a library caller can set: per exported name, the parameters
# with a default (a class's __init__ and public plain methods too, as
# "method.param"), and a dataclass's init fields with a default or default
# factory; an option only one value of is used for is a constant instead
LIBRARY_OPTIONS = {
    "GameReport": ("decisions",),
    "RandomizedAlgorithm": ("run_ints",),
    "StegoParams": ("kappa", "beta", "block_bits"),
    "StegoSystem": ("prf", "transparent_at"),
    "SymmetricEncryptionScheme": ("enc_ints",),
    "channel_walk": ("history",),
    "chi2_attacker": ("queries", "bins"),
    "chi2_quantile": ("q",),
    "chi2_warden": ("queries", "bins"),
    "chi2_watchdog": ("queries", "bins"),
    "det_scheme": ("ml",),
    "estimate_unrel": ("message_mode", "jobs"),
    "estimate_unrel_alg": ("jobs",),
    "estimate_unrel_reboot": ("schedules", "jobs"),
    "estimate_unrel_stego": ("history_mode", "jobs"),
    "fabricating_asa": ("ml", "decoys", "budget"),
    "forger_from_fabricating_asa": ("ml", "decoys", "budget"),
    "generic_asa_against_alg": ("demo_force_embed",),
    "outl_for": ("beta", "block_bits"),
    "query_count": ("jobs",),
    "randpad_scheme": ("ml",),
    "rate_report": ("jobs",),
    "repeat_attacker": ("queries",),
    "repeat_warden": ("queries",),
    "repeat_watchdog": ("queries",),
    "run_cpa_dist": ("jobs",),
    "run_enc_asa_dist": ("jobs",),
    "run_rasa_dist": ("jobs",),
    "run_sig_forge": ("jobs",),
    "run_ss_cha_dist": ("jobs",),
    "search_forger": ("budget",),
    "sig_fixture": ("ml", "coin_bits", "tag_bits"),
}


def _defaulted(fn):
    return tuple(
        p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty
    )


def _library_options():
    surface = {}
    for name in subvertlab.__all__:
        obj = getattr(subvertlab, name)
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                unset = dataclasses.MISSING
                opts = tuple(
                    f.name for f in dataclasses.fields(obj)
                    if f.init and (f.default is not unset or f.default_factory is not unset)
                )
            else:
                opts = _defaulted(obj) if "__init__" in vars(obj) else ()
            opts += tuple(
                f"{attr}.{p}"
                for attr, member in vars(obj).items()
                if not attr.startswith("_") and inspect.isfunction(member)
                for p in _defaulted(member)
            )
        else:
            opts = _defaulted(obj) if callable(obj) else ()
        if opts:
            surface[name] = opts
    return surface


def test_library_option_surface_is_pinned():
    surface = _library_options()
    assert surface == LIBRARY_OPTIONS
    assert sum(map(len, surface.values())) == 48


def test_readme_counts_match_the_pinned_surface():
    # the README states both counts in prose, where a change could leave them stale
    text = " ".join(README.read_text().split())
    assert re.findall(r"That is (\d+) names", text) == [str(len(subvertlab.__all__))]
    options = sum(map(len, LIBRARY_OPTIONS.values()))
    assert re.findall(r"default, number (\d+)\b", text) == [str(options)]


FAB_OPTS = ["--sig", "coin-extractable", "--sig-ml", "16", "--tag-bits", "8"]
SIGNED_FAB = ["--rasa-host", "signed", "--attack", "fabricating", *FAB_OPTS]


def _unrel(target, *extra):
    """game unrel at a target, with the stego options unless the fabricating
    attack, which embeds nothing, runs there."""
    stego = [] if "fabricating" in extra else STEGO_OPTS
    return ["game", "unrel", *stego, "--trials", "4", "--seed", "1", "--target", target, *extra]


@pytest.mark.parametrize(
    "target, extra",
    [
        ("stego-reboot", ["--history-mode", "sampled"]),
        ("stego-reboot", ["--message-mode", "equal"]),
        ("rasa", ["--message-mode", "equal"]),
        ("rasa", ["--history-mode", "empty"]),
        ("rasa", ["--budget", "7"]),  # the rejsam attack does not search
        ("rasa", [*SIGNED_FAB, "--force-embed"]),
        ("enc-asa", ["--force-embed"]),
        ("enc-asa", ["--budget", "7"]),
        ("enc-asa", ["--decoys", "9"]),
        ("enc-asa", ["--rasa-host", "enc"]),
        ("enc-asa", ["--attack", "rejsam"]),
        ("enc-asa", ["--fab-ml", "64"]),
        ("stego", ["--message-mode", "random"]),
        # the channel group is read by the stego targets, the signature
        # group by a signed channel or a signed rasa host
        ("enc-asa", ["--channel", "uniform"]),
        ("rasa", ["--ell", "9"]),
        ("enc-asa", ["--sig", "unique"]),
        ("stego", ["--sig-ml", "16"]),
        ("stego-reboot", ["--channel", "uniform", "--tag-bits", "4"]),
        # --ell and the host group are read by every channel but uniform,
        # and --doc-bits by uniform alone
        ("stego", ["--channel", "uniform", "--ell", "9"]),
        ("stego", ["--channel", "uniform", "--kappa", "5"]),
        ("stego-reboot", ["--channel", "ses", "--doc-bits", "3"]),
        ("rasa", ["--tag-bits", "4"]),
        # the stego group is read by the targets that embed
        ("rasa", [*SIGNED_FAB, "--ml", "4"]),
        ("rasa", [*SIGNED_FAB, "--stego-kappa", "16"]),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_game_unrel_rejects_another_targets_options(capsys, target, extra):
    rc = cli.main(_unrel(target, *extra))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "does not apply to --target" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "target, kept, defaults",
    [
        ("enc-asa", [], ["--message-mode", "random"]),
        ("stego", [], ["--history-mode", "empty"]),
        ("rasa", [], ["--rasa-host", "enc", "--attack", "rejsam"]),
        ("rasa", SIGNED_FAB, ["--fab-ml", "8", "--decoys", "4", "--budget", "4096"]),
        ("stego-reboot", [], ["--channel", "ses", "--ell", "4", "--kappa", "16", "--r", "8"]),
        ("stego", ["--channel", "uniform"], ["--doc-bits", "8"]),
        ("enc-asa", [], ["--host", "randpad", "--kappa", "16", "--r", "8", "--host-ml", "8"]),
        ("stego", ["--channel", "signed", "--tag-bits", "8"],
         ["--sig", "coin-injective", "--sig-ml", "16", "--sig-coins", "8"]),
        ("rasa", ["--rasa-host", "signed", "--tag-bits", "8"],
         ["--sig", "coin-injective", "--sig-ml", "16", "--sig-coins", "8"]),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_game_unrel_applies_each_targets_defaults(capsys, target, kept, defaults):
    # an option left out reads as the default declared for it
    argv = _unrel(target, *kept)
    left_out = run_cli(capsys, argv)
    assert left_out[0] == 0 and left_out == run_cli(capsys, [*argv, *defaults])


@pytest.mark.parametrize(
    "argv, extra, digest",
    [
        (["game", "unrel", "--target", "rasa", *SIGNED_FAB, "--trials", "3", "--seed", "1"],
         ["--ml", "4", "--s", "9"],
         "8312c16ddbc417dbc04d051520ea862f0d5ea2f4731dc9517902c8de6e3c2261"),
        (["game", "unrel", "--target", "enc-asa", "--trials", "3", "--seed", "1"],
         ["--channel", "uniform", "--ell", "9", "--sig", "unique", "--tag-bits", "4"],
         "b032de09dcceb8933986bdfcc401dfb11b2ac9627e9a35e946fa2ca2b4fac872"),
    ],
    ids=["rasa fabricating", "enc-asa"],
)
def test_game_unrel_options_no_target_reads_exit_2(capsys, argv, extra, digest):
    # each printed these bytes with and without the options it ignored
    rc, _, out = run_cli(capsys, argv)
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    rc = cli.main([*argv, *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and "does not apply to --target" in captured.err


@pytest.mark.parametrize(
    "roundtrip, unrel",
    [
        ([], ["--target", "stego"]),
        (["--history-mode", "sampled"], ["--target", "stego", "--history-mode", "sampled"]),
        (["--reboot"], ["--target", "stego-reboot"]),
    ],
    ids=["stego", "stego sampled", "stego-reboot"],
)
def test_stego_roundtrip_prints_what_game_unrel_prints(capsys, roundtrip, unrel):
    tail = [*STEGO_OPTS, "--trials", "6", "--seed", "3"]
    printed = run_cli(capsys, ["stego", "roundtrip", *roundtrip, *tail])
    assert printed[0] == 0 and printed == run_cli(capsys, ["game", "unrel", *unrel, *tail])


RASA_REJSAM = ["game", "rasa", *STEGO_OPTS, "--trials", "4", "--seed", "1"]
RASA_FAB = ["game", "rasa", *SIGNED_FAB, "--fab-ml", "8", "--trials", "4", "--seed", "1"]
RATE_FAB = ["lowerbound", "rate", *FAB_OPTS, "--fab-ml", "8", "--trials", "2", "--seed", "1"]
RATE_UNIVERSAL = ["lowerbound", "rate", "--attack", "universal", "--trials", "4", "--seed", "1"]
THREE_TRIALS = ["--trials", "3", "--seed", "1"]
FORGER_UNIVERSAL = ["lowerbound", "forger", "--attack", "universal", *THREE_TRIALS]
FORGER_FAB = ["lowerbound", "forger", "--attack", "fabricating", *THREE_TRIALS]
SEARCH_OPTIONS = (["--budget", "7"], ["--fab-ml", "3"], ["--decoys", "9"])


@pytest.mark.parametrize(
    "argv, extra",
    [
        (RASA_FAB, ["--force-embed"]),
        (RASA_REJSAM, ["--budget", "7"]),
        (RASA_REJSAM, ["--decoys", "9"]),
        (RASA_REJSAM, ["--fab-ml", "3"]),
        (RATE_UNIVERSAL, ["--budget", "7"]),
        (RATE_UNIVERSAL, ["--decoys", "9"]),
        (RATE_UNIVERSAL, ["--fab-ml", "3"]),
        *((FORGER_UNIVERSAL, extra) for extra in SEARCH_OPTIONS),
    ],
    ids=lambda v: " ".join(v[:2] if len(v) > 2 else v),
)
def test_attack_options_exit_2_under_the_other_attack(capsys, argv, extra):
    rc = cli.main([*argv, *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "does not apply to --attack" in captured.err and "Traceback" not in captured.err


def _forge(adversary):
    return ["game", "forge", "--adversary", adversary, *THREE_TRIALS]


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (RASA_FAB, ["--decoys", "4", "--budget", "512"]),
        (RATE_FAB, ["--attack", "fabricating", "--decoys", "4", "--budget", "4096"]),
        (FORGER_FAB, ["--fab-ml", "8", "--decoys", "4", "--budget", "4096"]),
        (_forge("search"), ["--budget", "512"]),
        (_forge("fabricating"), ["--fab-ml", "8", "--decoys", "4", "--budget", "512"]),
    ],
    ids=["game rasa", "lowerbound rate", "lowerbound forger", "game forge search",
         "game forge fabricating"],
)
def test_attack_options_left_out_read_as_their_defaults(capsys, argv, defaults):
    left_out = run_cli(capsys, argv)
    assert left_out[0] == 0 and left_out == run_cli(capsys, [*argv, *defaults])


@pytest.mark.parametrize(
    "adversary, extra",
    [
        *((name, extra) for name in ("random", "replay") for extra in SEARCH_OPTIONS),
        ("search", ["--fab-ml", "3"]),
        ("search", ["--decoys", "9"]),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_forger_options_exit_2_under_forgers_that_do_not_read_them(capsys, adversary, extra):
    rc = cli.main([*_forge(adversary), *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"does not apply to --adversary {adversary};" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (FORGER_UNIVERSAL, "663de9c023a3bfca25dc67cce65ff6d29280f1f3286d4307f853401eba36f405"),
        (_forge("random"), "b9a8318e779fc61aef2a90b87a380ff4ec5bf8f16f757527851e33cd3181fb01"),
    ],
    ids=["lowerbound forger universal", "game forge random"],
)
def test_forgers_that_read_no_search_option_keep_their_bytes(capsys, argv, digest):
    rc, _, out = run_cli(capsys, argv)
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, extra, selector",
    [
        (_forge("random"), ["--ml", "5", "--r", "3", "--s", "9"], "--adversary random"),
        (_forge("replay"), ["--stego-kappa", "16"], "--adversary replay"),
        (_forge("search"), ["--host", "det"], "--adversary search"),
        (_forge("fabricating"), ["--ml", "5"], "--adversary fabricating"),
        (["lowerbound", "rate", "--attack", "fabricating", "--trials", "2", "--seed", "1"],
         ["--ml", "5", "--s", "9", "--block-bits", "2"], "--attack fabricating"),
        (["lowerbound", "forger", *THREE_TRIALS], ["--ml", "5"], "--attack fabricating"),
        (["game", "rasa", *SIGNED_FAB, *THREE_TRIALS], ["--ml", "5", "--s", "9"],
         "--attack fabricating"),
        # a unique signature takes no coins
        (["game", "forge", "--sig", "unique", *THREE_TRIALS], ["--sig-coins", "3"], "--sig unique"),
        (["channel", "sample", "--channel", "signed", "--sig", "unique", "--seed", "1"],
         ["--sig-coins", "3"], "--channel signed --sig unique"),
    ],
    ids=["game forge random", "game forge replay", "game forge search", "game forge fabricating",
         "lowerbound rate fabricating", "lowerbound forger fabricating", "game rasa fabricating",
         "game forge unique", "channel sample signed unique"],
)
def test_host_and_stego_options_exit_2_where_the_selector_ignores_them(
    capsys, argv, extra, selector
):
    rc = cli.main([*argv, *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"does not apply to {selector};" in captured.err and "Traceback" not in captured.err


def test_universal_forger_reads_host_and_stego_defaults_when_left_out(capsys):
    host_stego = ["--host", "randpad", "--r", "8", "--host-ml", "8", "--ml", "8", "--s", "64",
                  "--block-bits", "1", "--stego-kappa", "128"]
    left_out = run_cli(capsys, _forge("universal"))
    assert left_out[0] == 0 and left_out == run_cli(capsys, [*_forge("universal"), *host_stego])


def _default_runs():
    """Every subcommand with only its required options (two trials where it
    runs trials), then each value of the selectors that decide which
    options a command reads. {...} names a file the test makes first."""
    required = {
        ("stego", "embed"): ["--message", "a7"],
        ("stego", "extract"): ["--file", "{session}"],
        ("asa", "extract"): ["--file", "{asa_session}"],
        ("lowerbound", "phi"): ["--ml", "8", "--outl", "1", "--query", "2"],
        ("report", "merge"): ["{report}"],
    }
    for command, subcommand, _, groups, *_ in cli._COMMANDS:
        trials = ["--trials", "2"] if "run" in groups.split() else []
        yield [command, subcommand, *required.get((command, subcommand), []), *trials]
    for name in cli._FORGERS:
        yield ["game", "forge", "--adversary", name, "--trials", "2"]
    for attack in ("rejsam", "fabricating"):
        yield ["game", "rasa", "--rasa-host", "signed", "--attack", attack, "--trials", "2"]
    for target in ("enc-asa", "stego", "stego-reboot", "rasa"):
        yield ["game", "unrel", "--target", target, "--trials", "2"]
    yield ["game", "unrel", "--target", "rasa", "--rasa-host", "signed", "--attack",
           "fabricating", "--trials", "2"]
    for subcommand in ("forger", "rate"):
        for attack in ("universal", "fabricating"):
            yield ["lowerbound", subcommand, "--attack", attack, "--trials", "2"]


def test_every_subcommand_runs_at_its_defaults(capsys, tmp_path):
    files = {name: str(tmp_path / f"{name}.jsonl") for name in ("session", "asa_session", "report")}
    for argv in (["stego", "embed", "--message", "a7", "--out", files["session"]],
                 ["asa", "run", "--out", files["asa_session"]],
                 ["game", "cpa", "--trials", "2", "--out", files["report"]]):
        assert cli.main(argv) == 0
    for argv in _default_runs():
        argv = [word.format(**files) for word in argv]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == "", (argv, captured.err)


def test_ownership_table_names_handlers_options_and_choices():
    # a misspelt name in a selector's reads would hand its handler None and
    # end in a traceback
    groups = cli.build_parser()._subparsers._group_actions[0].choices
    for command, subcommand, *_ in cli._COMMANDS:
        parser = groups[command].filled()._subparsers._group_actions[0].choices[subcommand]
        actions = {a.dest: a for a in parser.filled()._actions}
        options, owned = cli._subcommand(command, subcommand)
        for selector, kwargs in options.items():
            reads = kwargs.get("reads", {})
            action = actions[selector]  # a choices option, or a flag read as True/False
            choices = (True, False) if action.const is True else action.choices or ()
            assert set(reads) <= set(choices), (command, subcommand, selector)
            for words in reads.values():
                assert set(cli._dests(words)) <= actions.keys(), (command, subcommand, words)

        def above(dest, chain=()):  # no selector reaches itself through a chain
            assert dest not in chain, (command, subcommand, chain)
            for selector in owned.get(dest, ()):
                above(selector, (*chain, dest))

        def chain(dest):  # selector values, root first, under which the walk reaches dest
            if dest not in owned:
                return {}
            selector, values = next(iter(owned[dest].items()))
            return {**chain(selector), selector: values[0]}

        for dest in owned:
            above(dest)
            given = {**dict.fromkeys(options), **chain(dest), dest: True}
            cli._settle(argparse.Namespace(command=command, subcommand=subcommand, **given))


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
        # an empty key or message is refused, not read as absent
        ["stego", "embed", *STEGO_OPTS, "--message", "a", "--key", ""],
        ["asa", "run", *STEGO_OPTS, "--message", ""],
    ],
    ids=" ".join,
)
def test_out_of_range_values_exit_2_without_output(capsys, argv):
    rc = cli.main(argv + ["--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["game", "forge", "--adversary", "universal", "--trials", "3"],
        ["lowerbound", "rate", "--attack", "universal", "--trials", "3"],
        ["channel", "sample", "--channel", "signed"],
    ],
    ids=" ".join,
)
def test_sig_ml_under_a_signed_family_is_the_ciphertext_length(capsys, argv):
    # the family signs the host's 16-bit ciphertexts: --sig-ml 16 is what
    # leaving it out means, and any other length exits 2 naming both
    argv = [*argv, "--seed", "1"]
    left_out = run_cli(capsys, argv)
    assert left_out[0] == 0 and left_out == run_cli(capsys, [*argv, "--sig-ml", "16"])
    rc = cli.main([*argv, "--sig-ml", "8"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: --sig-ml must be the host's ciphertext length, 16, got 8\n"


@pytest.mark.parametrize("command", ["stego", "asa"])
def test_empty_extract_key_exits_2_without_output(capsys, tmp_path, command):
    # an empty --key is refused, not replaced by the session header's key
    session = str(tmp_path / "session.jsonl")
    run = ["stego", "embed", "--message", "a"] if command == "stego" else ["asa", "run"]
    assert cli.main([*run, *STEGO_OPTS, "--seed", "3", "--out", session]) == 0
    capsys.readouterr()
    rc = cli.main([command, "extract", "--file", session, "--key", ""])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "--key" in captured.err
    assert "Traceback" not in captured.err


def _readme_commands():
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
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

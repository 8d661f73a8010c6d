"""Command line driver: json-lines output, determinism, files, exit codes."""

import json
import os

import pytest

from subvertlab import Adversary, ParameterError, UniversalityViolation
from subvertlab import cli, games


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

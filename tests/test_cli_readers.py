"""Property tests over the files the CLI reads.

`stego extract --file` reads a saved session (`cli._load_session`), and
`report merge` reads game reports (`cli._read_jsonl`,
`GameReport.from_json_dict`), then may write a CSV summary. Whatever the
file holds, the command exits 0 or 2 and prints no traceback.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subvertlab import SCHEMA, cli

STEGO_OPTS = ["--ml", "4", "--s", "16", "--outl", "24", "--stego-kappa", "16"]

FUZZ = settings(max_examples=60, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
json_objects = st.dictionaries(st.text(max_size=12), json_values, max_size=6)
REPORT = {"schema": SCHEMA, "game": "cpa", "trials": 4, "success_count": 1, "p_hat": 0.25,
          "ci95": [0.0, 1.0], "normalized_advantage": 0.5}


def _run(argv):
    """(exit code, stdout, stderr) of one in-process invocation; any
    exception but an argparse exit propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A real saved session and a real report file, as text."""
    d = tmp_path_factory.mktemp("saved")
    for argv in (
        ["stego", "embed", "--channel", "uniform", "--doc-bits", "12", *STEGO_OPTS,
         "--message", "c", "--seed", "2", "--out", str(d / "session.jsonl")],
        ["game", "cpa", "--trials", "6", "--seed", "1", "--out", str(d / "cpa.jsonl")],
    ):
        assert _run(argv)[0] == 0
    return {name: (d / f"{name}.jsonl").read_text() for name in ("session", "cpa")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _readers_survive(workdir: Path, data: bytes):
    path = workdir / "input.jsonl"
    path.write_bytes(data)
    csv = str(workdir / "summary.csv")
    for argv in (
        ["stego", "extract", "--file", str(path)],
        ["report", "merge", str(path)],
        ["report", "merge", str(path), "--csv", csv],
    ):
        rc, out, err = _run(argv)
        assert rc in (0, 2), (argv, rc, err)
        assert "Traceback" not in err
        if rc == 2:
            assert out == "" and err.startswith("error:"), (argv, err)


@FUZZ
@given(data=st.binary(max_size=400))
@example(data=b"\xff\xfe")
@example(data=b"[" * 100_000)  # nests past the JSON decoder's recursion limit
@example(data=b'{"game":' * 100_000)
def test_arbitrary_bytes(workdir, data):
    _readers_survive(workdir, data)


@FUZZ
@given(objs=st.lists(json_objects, max_size=4))
@example(objs=[{**REPORT, "trials": 10**400}])  # too large for a float
@example(objs=[{**REPORT, "trials": 2**62, "success_count": 2**61}] * 3)
def test_arbitrary_json_objects(workdir, objs):
    _readers_survive(workdir, "\n".join(json.dumps(o) for o in objs).encode())


@FUZZ
@given(data=st.data())
def test_truncated_lines_of_saved_files(workdir, saved, data):
    for text in saved.values():
        lines = text.splitlines()
        cuts = data.draw(st.lists(st.none() | st.integers(0, 200), min_size=len(lines), max_size=len(lines)))
        kept = [line if cut is None else line[:cut] for line, cut in zip(lines, cuts)]
        _readers_survive(workdir, "\n".join(kept).encode())


@FUZZ
@given(data=st.data(), value=json_values)
def test_one_field_of_a_saved_file_replaced(workdir, saved, data, value):
    # the readers' checks past their first gate: a real header or report
    # with one field, top-level or a session parameter, set to any JSON value
    for text in saved.values():
        lines = [json.loads(line) for line in text.splitlines()]
        i = data.draw(st.integers(0, len(lines) - 1))
        target = lines[i]
        if "params" in target and data.draw(st.booleans()):
            target = target["params"]
        target[data.draw(st.sampled_from(sorted(target)))] = value
        _readers_survive(workdir, "\n".join(json.dumps(line) for line in lines).encode())


@pytest.mark.parametrize("ml", [2**40, 2**64])
def test_session_with_a_huge_message_length_decodes_without_a_slot_table(workdir, saved, ml):
    # 24 documents fill at most 24 slots, so no slot table of 2**40 entries
    lines = [json.loads(line) for line in saved["session"].splitlines()]
    lines[0]["params"]["ml"] = ml
    path = workdir / "huge.jsonl"
    # the saved 4-bit message_hex is too short for the claimed ml
    path.write_text("\n".join(json.dumps(line) for line in lines))
    rc, out, err = _run(["stego", "extract", "--file", str(path)])
    assert rc == 2 and "huge.jsonl:1: message_hex" in err, err
    # a header with no expected message reaches the decoder
    del lines[0]["message_hex"]
    path.write_text("\n".join(json.dumps(line) for line in lines))
    rc, out, err = _run(["stego", "extract", "--file", str(path)])
    assert rc == 0 and json.loads(out)["extracted_hex"] is None, err


@pytest.mark.parametrize(
    "argv", [["report", "merge"], ["stego", "extract", "--file"], ["asa", "extract", "--file"]]
)
def test_an_integer_past_the_digit_limit_is_not_a_json_line(workdir, argv):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal longer than the interpreter's int-from-str limit
    path = workdir / "long-int.jsonl"
    path.write_text('{}\n{"trials": ' + "7" * 5000 + "}\n")
    rc, out, err = _run([*argv, str(path)])
    assert rc == 2 and out == "", err
    assert err.startswith(f"error: {path}:2: not a JSON line (Exceeds the limit"), err
    assert "Traceback" not in err

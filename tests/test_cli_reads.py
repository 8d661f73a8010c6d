"""Every option a subcommand takes is read, or refused where it is not.

For each `cli._COMMANDS` row and each combination of its selectors' values
(the options with choices, and --reboot), the invocation is settled
(`cli._settle`) and its handler run at tiny sizes on a namespace that
records the attributes read. An option the handler leaves unread must be
one that `_settle` refuses when it is given: otherwise the command accepts
it and silently ignores it.

Each numeric option is also run, through `cli.main`, at its least accepted
value, one option at a time: every such run exits 0 or 2, never with a
traceback.
"""

import argparse
import itertools

import pytest

from subvertlab import ParameterError, cli

# options a handler may leave unread, with the reason; "out" is unread by
# every handler
NOT_READ = {
    "out": "_emit writes the --out file after the handler returns",
    ("stego", "extract", "seed"): "extraction draws nothing random",
    ("asa", "extract", "seed"): "extraction draws nothing random",
    ("asa", "build", "seed"): "building the attack draws nothing random",
    ("lowerbound", "phi", "seed"): "the counting bound draws nothing random",
    ("report", "merge", "seed"): "merging draws nothing random",
    # the benchmark's argv (bench/workloads.py) passes --jobs to these two,
    # so their rows keep the run group until that argv drops it
    ("stego", "embed", "trials"): "embedding runs one session, not trials",
    ("stego", "embed", "jobs"): "embedding runs in one process",
    ("asa", "queries", "jobs"): "query_count runs in one process",
}

# sizes applied after _settle, to the options it left set
TINY = {"trials": 2, "samples": 16, "budget": 64, "count": 2, "depths": [1]}

GIVEN = "1"  # any value but None reads as given


class _Recorder(argparse.Namespace):
    """A namespace that adds the name of every option read from it to reads."""

    def __init__(self, reads, values):
        super().__init__(**values)
        object.__setattr__(self, "_reads", reads)

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("reads")
    names = {name: str(root / f"{name}.jsonl") for name in ("session", "asa_session", "report")}
    for argv in (["stego", "embed", "--message", "a7", "--out", names["session"]],
                 ["asa", "run", "--out", names["asa_session"]],
                 ["game", "cpa", "--trials", "2", "--out", names["report"]]):
        assert cli.main(argv) == 0
    return names


REQUIRED = {
    ("stego", "embed"): ["--message", "a7"],
    ("stego", "extract"): ["--file", "{session}"],
    ("asa", "extract"): ["--file", "{asa_session}"],
    ("lowerbound", "phi"): ["--ml", "8", "--outl", "1", "--query", "2"],
    ("report", "merge"): ["{report}"],
}


def _selector_values(kwargs, parsed):
    """The values a selector is tried at. An owned selector parses to None
    and is tried left out and at each other value; the rest at every one."""
    if kwargs.get("action") == "store_true":
        return [False, True]
    if parsed is None:
        return [None, *(c for c in kwargs["choices"] if c != kwargs.get("default"))]
    return list(kwargs["choices"])


def _unread_options(row, files):
    """(selector values, option) of every option the handler of the row
    left unread where _settle does not refuse it, and the number of
    combinations whose handler ran."""
    command, subcommand = row[:2]
    argv = [word.format(**files) for word in REQUIRED.get((command, subcommand), [])]
    parsed = cli.build_parser().parse_args([command, subcommand, *argv])
    options = {flag.strip("-").replace("-", "_"): kw for flag, kw in cli._row_options(row)}
    selectors = {
        dest: _selector_values(kw, getattr(parsed, dest))
        for dest, kw in options.items()
        if kw.get("choices") is not None or dest == "reboot"
    }
    exempt = {"out"} | {dest for *key, dest in NOT_READ if key == [command, subcommand]}
    unread, ran = [], 0
    for values in itertools.product(*selectors.values()):
        combination = dict(zip(selectors, values))
        given = {**vars(parsed), **combination}
        args = argparse.Namespace(**given)
        try:
            cli._settle(args)
        except ParameterError:
            continue  # an invocation that exits 2
        tiny = {dest: v for dest, v in TINY.items() if getattr(args, dest, None) is not None}
        sized = {**vars(args), **tiny}
        reads = set()
        try:
            args.func(_Recorder(reads, sized))
        except ParameterError:
            continue
        ran += 1
        for dest in ["seed", *options]:
            if dest in reads or dest in exempt:
                continue
            try:
                cli._settle(argparse.Namespace(**{**given, dest: GIVEN}))
            except ParameterError as exc:
                assert str(exc).startswith(f"--{dest.replace('_', '-')} does not apply"), exc
                continue
            unread.append((combination, dest))
    return unread, ran


@pytest.mark.parametrize("row", cli._COMMANDS, ids=lambda row: " ".join(row[:2]))
def test_every_option_is_read_or_refused(row, files):
    unread, ran = _unread_options(row, files)
    assert ran > 0
    assert unread == []


# the least value each numeric option accepts (where some invocation exits 0
# there); --seed and --beta have none, so they are tried at a negative value
LEAST = {
    "seed": "-1", "beta": "-1e308", "trials": "1", "jobs": "1", "count": "1", "depth": "0",
    "depths": "0", "samples": "2", "kappa": "1", "r": "0", "host_ml": "1", "sig_ml": "1",
    "sig_coins": "0", "tag_bits": "1", "ml": "1", "s": "1", "outl": "1", "block_bits": "1",
    "stego_kappa": "1", "ell": "1", "doc_bits": "1", "queries": "1", "bins": "2",
    "fab_ml": "0", "decoys": "1", "budget": "0", "query": "1", "schedule": "1",
}
LEAST_BY_ROW = {
    ("lowerbound", "phi", "ml"): "0",  # a zero-bit message has a bound too
    ("asa", "queries", "trials"): "2",  # a query count is a mean over trials
}


def _flags(dest, value):
    flag = "--" + dest.replace("_", "-")
    return [] if value in (None, False) else [flag] if value is True else [f"{flag}={value}"]


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2) and "Traceback" not in err, (argv, code, err)
    assert code == 0 or out == "", argv
    return code


@pytest.mark.parametrize("row", cli._COMMANDS, ids=lambda row: " ".join(row[:2]))
def test_each_numeric_option_at_its_least_value_exits_0_or_2(row, files, capsys):
    # one option at a time, with --trials and --jobs at their least too, under
    # the first selector values that read it and whose run exits 0 without it
    command, subcommand = row[:2]
    base = [word.format(**files) for word in REQUIRED.get((command, subcommand), [])]
    parsed = cli.build_parser().parse_args([command, subcommand, *base])
    options = {flag.strip("-").replace("-", "_"): kw for flag, kw in cli._row_options(row)}
    selectors = {
        dest: _selector_values(kw, getattr(parsed, dest))
        for dest, kw in options.items()
        if kw.get("choices") is not None or dest == "reboot"
    }

    def argv(context, *dests):
        sized = dict.fromkeys(d for d in ("trials", "jobs", *dests) if d in options or d in dests)
        least = [LEAST_BY_ROW.get((command, subcommand, d), LEAST[d]) for d in sized]
        return [command, subcommand, *base, *context, *itertools.chain(*map(_flags, sized, least))]

    runs = {}  # selector argv -> exit code without the option
    numeric = [d for d, kw in options.items() if kw.get("type") and not kw.get("choices")]
    for dest in ["seed", *numeric]:
        for values in itertools.product(*selectors.values()):
            combination = dict(zip(selectors, values))
            try:
                cli._settle(argparse.Namespace(**{**vars(parsed), **combination, dest: GIVEN}))
            except ParameterError:
                continue  # the option does not apply here
            context = tuple(word for d, v in combination.items() for word in _flags(d, v))
            if context not in runs:
                runs[context] = _run(argv(context), capsys)
            if runs[context] == 0:
                break
        else:
            pytest.fail(f"no selector values run {dest}")
        _run(argv(context, dest), capsys)

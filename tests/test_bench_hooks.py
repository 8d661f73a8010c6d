"""The benchmark still finds every name it patches and every option it passes.

bench/tracer.py wraps package functions by name, and bench/workloads.py
runs CLI invocations, both from outside the package. A renamed or deleted
function or option otherwise shows only when the benchmark runs (as a failed
traced pass, or a `run_failed` workload); here it fails the test suite.
"""

import sys
from pathlib import Path

import pytest

import subvertlab as sl
from subvertlab import Bits, StegoParams, cli, games, rejsam_system, stego, uniform_channel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracer import Tracer  # noqa: E402
from workloads import INVOCATIONS, canonical  # noqa: E402


def test_tracer_installs_records_and_uninstalls():
    originals = {
        (stego, "encode_step"): stego.encode_step,
        (games, "_collect"): games._collect,
        (Bits, "__init__"): Bits.__init__,
        (cli, "cmd_game_unrel"): cli.cmd_game_unrel,
    }
    steg = rejsam_system(StegoParams(ml=4, s=16, outl=24, kappa=16))
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, name), orig in originals.items():
            assert getattr(owner, name) is not orig, name
        rep = games.estimate_unrel_stego(steg, uniform_channel(16), trials=2, seed=0)
    finally:
        tracer.uninstall()
    for (owner, name), orig in originals.items():
        assert getattr(owner, name) is orig, name
    assert rep.trials == 2
    counts = tracer.counts()
    assert counts["games.trial"] == 2
    assert counts["stego.encode_step"] == 2 * 24  # one step per emitted document
    assert counts["bits.objects"] > 0


def test_traced_cli_runs_count_parsing_and_verification(capsys):
    # the benchmark's cli.parse_ms and lowerbound.vrfy_per_forgery are read
    # from these counts; a hook that no call reaches would zero them
    tracer = Tracer()
    tracer.install()
    try:
        rate = cli.main(
            "lowerbound rate --attack fabricating --sig coin-extractable --sig-ml 16 --tag-bits 4"
            " --fab-ml 8 --trials 3 --budget 256 --seed 0".split()
        )
        cpa = cli.main("game cpa --trials 4 --seed 0".split())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rate == cpa == 0
    counts = tracer.counts()
    assert counts["cli.main"] == counts["cli.build_parser"] == counts["cli.parse_args"] == 2
    assert counts["schemes.vrfy"] > 0
    # vrfy confirms the one candidate a search returns, and nothing else
    assert 0 < counts["lowerbound.search_vrfy"] <= counts["lowerbound.searches"]


@pytest.mark.parametrize("label, template", [(label, t) for label, _, t in INVOCATIONS])
def test_benchmark_cli_invocations_parse(label, template, tmp_path):
    fill = {"seed": 12345, "jobs": 2, "out": tmp_path, "message": "a7"}
    argv = [token.format(**fill) for token in template.split()]
    args = cli.build_parser().parse_args(argv)  # an unknown option exits 2 here
    assert callable(args.func), label


def _session_report():
    steg = rejsam_system(StegoParams(ml=16, s=64, outl=256, kappa=128))
    channel = sl.ses_channel(sl.randpad_scheme(r=8, kappa=16, ml=8), ell=4)
    return canonical(sl.estimate_unrel_stego(steg, channel, 3, 11, history_mode="sampled"))


def _pointmass_report():
    steg = rejsam_system(StegoParams(ml=16, s=64, outl=256, kappa=128))
    det = sl.det_scheme(kappa=16, ml=8)
    return canonical(sl.estimate_unrel(sl.asa_from_stego(steg, det), det, 3, 11))


@pytest.mark.parametrize("report", [_session_report, _pointmass_report], ids=lambda f: f.__name__)
def test_traced_reports_match_untraced_bytes(report):
    # the tracer's counted draw is a plain closure, which hides a draw's int
    # form: traced emissions take encode_step's bit-string path, untraced
    # ones the int path where the channel offers it, and the bytes agree
    untraced = report()
    tracer = Tracer()
    tracer.install()
    try:
        traced = report()
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert counts["stego.encode_step"] == 3 * 256 and counts["stego.draws"] > 3 * 256
    assert traced == untraced

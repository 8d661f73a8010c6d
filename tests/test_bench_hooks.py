"""The benchmark's tracer still finds every name it patches.

bench/tracer.py wraps package functions by name from outside the package.
A rename or deletion of one of them otherwise shows only when the benchmark
runs its traced pass; here it fails the test suite.
"""

import sys
from pathlib import Path

from subvertlab import Bits, StegoParams, cli, games, rejsam_system, stego, uniform_channel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracer import Tracer  # noqa: E402


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

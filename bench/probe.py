"""Set-up probe: run in a fresh process, prints the seconds taken by the
subvertlab import, the workload's fixtures and the CLI parser, then one
host speed sample.

    python3 bench/probe.py pointmass-unrel
"""

import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
from workloads import all_workloads  # noqa: E402

workload = all_workloads(BENCH / "out")[sys.argv[1]]
t0 = perf_counter()
sys.path.insert(0, str(BENCH.parent / "src"))
import subvertlab  # noqa: E402
import subvertlab.cli  # noqa: E402

workload.setup(subvertlab)
subvertlab.cli.build_parser()
seconds = perf_counter() - t0
print(seconds, speed.sample())

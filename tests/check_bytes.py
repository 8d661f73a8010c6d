"""Check report bytes without pytest: the golden CLI matrix and the pins.

Runs every row of the golden CLI matrix (tests/test_cli_golden.py) at both
of its seeds, at --jobs 1 and 2 where the row takes --jobs, and the leading
deterministic reports of every benchmark workload (bench/pins.json), and
compares each sha256 with its pin. It imports the package from this
checkout's src/ and needs nothing outside the standard library, so it runs
under any interpreter the package supports:

    python3 tests/check_bytes.py

It prints one line per mismatch and a summary, and exits 1 on any mismatch.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import subvertlab  # noqa: E402
from subvertlab import games  # noqa: E402
from test_cli_golden import MATRIX, PINS, SEEDS, _stdout  # noqa: E402
from workloads import DEFAULT_SEED, all_workloads  # noqa: E402


def golden_mismatches(tmp: Path) -> list[str]:
    games._usable_cpus = lambda: 2  # so --jobs 2 forks on any host
    bad = []
    for seed in SEEDS:
        # files written earlier in the matrix are read later at the same seed
        for label, (argv, parallel) in MATRIX.items():
            argv = [a.format(dir=tmp) for a in argv] + ["--seed", seed]
            outs = {_stdout(argv + ["--jobs", j]) for j in "12"} if parallel else {_stdout(argv)}
            if len(outs) != 1:
                bad.append(f"golden {label!r} seed {seed}: --jobs 1 and 2 differ")
                continue
            got = hashlib.sha256(outs.pop().encode()).hexdigest()
            if got != PINS[label, seed]:
                bad.append(f"golden {label!r} seed {seed}: {got} != {PINS[label, seed]}")
    return bad


def pin_mismatches(tmp: Path) -> tuple[int, list[str]]:
    pins = json.loads((ROOT / "bench" / "pins.json").read_text())
    if pins["seed"] != DEFAULT_SEED:
        return 0, [f"bench/pins.json is for seed {pins['seed']}, not {DEFAULT_SEED}"]
    bad, checked = [], 0
    for name, workload in sorted(all_workloads(tmp).items()):
        fixtures = workload.setup(subvertlab)
        for i in range(workload.det_reports):
            report = workload.report(fixtures, DEFAULT_SEED, i, jobs=1)
            got = hashlib.sha256(report.run()).hexdigest()
            want = pins["workloads"][name][report.key]
            checked += 1
            if got != want:
                bad.append(f"pin {name} report {report.key}: {got} != {want}")
    return checked, bad


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        bad = golden_mismatches(Path(tmp))
        checked, pin_bad = pin_mismatches(Path(tmp))
    for line in bad + pin_bad:
        print(line)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"python {version}: {len(PINS) - len(bad)} of {len(PINS)} golden rows and "
          f"{checked - len(pin_bad)} of {checked} pinned reports match")
    return 1 if bad or pin_bad else 0


if __name__ == "__main__":
    sys.exit(main())

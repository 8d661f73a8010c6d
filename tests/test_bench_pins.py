"""The first reports of every benchmark workload still match bench/pins.json.

The benchmark checks each report it runs against a pinned sha256, so a change
that moves a report's bytes fails it; this runs the leading deterministic
reports of each workload (workload.det_reports, at --jobs 1) against the same
pins as part of the test suite. It reads bench/ and writes only under a
temporary directory.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import subvertlab

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, all_workloads  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())
WORKLOADS = sorted(all_workloads(Path()))  # the names: no workload is set up here


def test_pins_are_for_the_default_seed():
    assert PINS["seed"] == DEFAULT_SEED
    assert sorted(PINS["workloads"]) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_leading_reports_match_their_pins(name, tmp_path):
    workload = all_workloads(tmp_path)[name]
    fixtures = workload.setup(subvertlab)
    pins = PINS["workloads"][name]
    for i in range(workload.det_reports):
        report = workload.report(fixtures, DEFAULT_SEED, i, jobs=1)
        assert hashlib.sha256(report.run()).hexdigest() == pins[report.key], report.key

"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import DEFAULT_SEED, Report  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# per-layer metrics that are a function of the seed alone
DETERMINISTIC = (
    "bits.objects_per_draw",
    "prf.calls_per_trial",
    "rng.substreams_per_trial",
    "schemes.calls_per_trial",
    "channels.samples_per_trial",
    "channels.history_docs_per_sample",
    "stego.draws_per_emission",
    "stego.cutoff_share",
    "adversaries.queries_per_trial",
    "lowerbound.vrfy_per_forgery",
)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs per workload at one seed, each as short as allowed."""
    out = {}
    for name, workload in run.WORKLOADS.items():
        out[name] = [run.run_workload(workload, 1, 0.0, trace=True) for _ in range(2)]
    return out


def test_deterministic_counts_repeat_exactly(traced_twice):
    for name, (first, second) in traced_twice.items():
        assert first[1] == 0 and second[1] == 0, name
        for metric in DETERMINISTIC:
            assert first[2][metric][0] == second[2][metric][0], (name, metric)


def test_traced_run_reports_every_per_layer_metric(traced_twice):
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for name, runs in traced_twice.items():
        assert set(runs[0][2]) == wanted, name


def test_each_layer_is_exercised_where_the_mapping_says():
    # the counts each workload exists to move must be non-zero on it
    expect = {
        "pointmass-unrel": ["prf.calls_per_trial", "stego.cutoff_share", "bits.objects_per_draw"],
        "session-unrel": ["channels.samples_per_trial", "channels.history_docs_per_sample"],
        "cli-games": ["adversaries.queries_per_trial", "lowerbound.vrfy_per_forgery", "cli.parse_ms"],
    }
    for name, metrics in expect.items():
        _, _, layers, _ = run.run_workload(run.WORKLOADS[name], 2, 0.0, trace=True)
        for metric in metrics:
            assert layers[metric][0] > 0, (name, metric)


def test_untraced_run_reports_every_end_to_end_metric():
    attempted, failed, metrics, _ = run.run_workload(run.WORKLOADS["cli-games"], 1, 0.0, trace=False)
    assert failed == 0 and attempted > 0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v[0] > 0 for v in metrics.values())


def test_failing_report_is_counted_and_pass_goes_on():
    def make_report(i):
        def run_one():
            if i == 1:
                raise RuntimeError("report raises")
            return b"changed" if i == 3 else b"same"

        return Report("k", 1, run_one)

    res = run.timed_pass(make_report, 0.0, 5, run.Fingerprints({"k": run.sha256(b"same")}))
    assert (res.attempted, res.failed, len(res.times), res.trials) == (5, 2, 3, 3)


def test_tail_leaves_ten_reports_beyond():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert pct == 90 and sum(t > value for t in times) == 10


def test_first_window_matches_pins_at_both_job_counts():
    pins = json.loads(run.PINS.read_text())
    assert pins["seed"] == DEFAULT_SEED
    sl = run.load_package()
    for name, workload in run.WORKLOADS.items():
        fixtures = workload.setup(sl)
        for jobs in (1, 2):
            for i in range(workload.det_reports):
                report = workload.report(fixtures, DEFAULT_SEED, i, jobs=jobs)
                assert run.sha256(report.run()) == pins["workloads"][name][report.key], (name, i, jobs)


def test_names():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert {m["name"] for m in SPEC["workloads"]} == set(run.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)

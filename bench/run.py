#!/usr/bin/env python3
"""subvertlab benchmark: one workload, one seed, one closed-loop pass.

    python3 bench/run.py --workload pointmass-unrel --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload cli-games --seed 7 --seconds 30 --trace 1
    python3 bench/run.py --pin        # regenerate bench/pins.json at the default seed

One caller issues reports back to back until --seconds have passed (and at
least one deterministic window of reports has run). Every report's
canonical bytes are hashed and checked: against bench/pins.json at the
default seed, and against the first fingerprint of the same input in this
process otherwise. After the pass the first report (the first CLI cycle,
at --jobs 1) is run again and must give the same fingerprints.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half traced, then prints the per-layer metrics of the traced
half and writes its spans to bench/out/<workload>.spans. The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PINS = BENCH / "pins.json"
SETUP_PROBES = 9

sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
from workloads import DEFAULT_SEED, all_workloads  # noqa: E402

WORKLOADS = all_workloads(OUT)


def load_package():
    """Import subvertlab from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import subvertlab

    if src not in Path(subvertlab.__file__).resolve().parents:
        raise ImportError(f"subvertlab imported from {subvertlab.__file__}, not {src}")
    return subvertlab


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Fingerprints:
    """Expected fingerprints by report key: pinned, else first seen."""

    def __init__(self, pinned: dict[str, str] | None):
        self.pinned = pinned or {}
        self.seen: dict[str, str] = {}

    def check(self, key: str, data: bytes) -> bool:
        fp = sha256(data)
        expected = self.pinned.get(key) or self.seen.get(key)
        self.seen.setdefault(key, fp)
        return expected is None or fp == expected


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)  # wall seconds of passing reports
    scaled: list[float] = field(default_factory=list)  # the same, at nominal host speed
    trials: int = 0
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0


def timed_pass(make_report, seconds, min_reports, fingerprints, after_report=None) -> PassResult:
    """Closed loop: report i+1 starts when report i has been checked.

    A report fails when it raises or its fingerprint mismatches; it is
    counted and the pass goes on. Only reports that pass add their time
    and trials. Each report is followed by a host speed sample.
    """
    res = PassResult()
    wall, refs = [], []  # per attempted report; wall is None where it failed
    start = perf_counter()
    i = 0
    while i < min_reports or perf_counter() - start < seconds:
        report = make_report(i)
        res.attempted += 1
        t0 = perf_counter()
        try:
            data = report.run()
            t1 = perf_counter()
            ok = fingerprints.check(report.key, data)
            if not ok:
                print(f"fingerprint mismatch on report {report.key}", file=sys.stderr)
        except Exception:
            traceback.print_exc()
            ok = False
        if ok:
            wall.append(t1 - t0)
            res.trials += report.trials
        else:
            wall.append(None)
            res.failed += 1
        refs.append(speed.sample())
        if after_report is not None:
            after_report(i)
        i += 1
    res.elapsed = perf_counter() - start
    scaled = speed.normalise([w or 0.0 for w in wall], refs)
    res.times = [w for w in wall if w is not None]
    res.scaled = [x for x, w in zip(scaled, wall) if w is not None]
    return res


def recheck(workload, fixtures, seed, fingerprints) -> tuple[int, int]:
    """Run the first reports again (the CLI at --jobs 1); (attempted, failed)."""
    failed = 0
    for i in range(workload.recheck_reports):
        report = workload.report(fixtures, seed, i, jobs=1)
        try:
            ok = fingerprints.check(report.key, report.run())
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"recheck mismatch on report {report.key}", file=sys.stderr)
            failed += 1
    return workload.recheck_reports, failed


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten reports beyond it (nearest rank)."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    p = (100 * (n - 10)) // n
    return xs[max(0, math.ceil(p * n / 100) - 1)], p


def setup_seconds(workload_name: str) -> tuple[float, float]:
    """Median over fresh processes of import + fixtures + parser
    construction: (at nominal host speed, wall)."""
    probe = [sys.executable, str(BENCH / "probe.py"), workload_name]
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
        seconds, ref = map(float, out.stdout.split())
        wall.append(seconds)
        scaled.append(seconds * speed.NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(wall)


def rate(res: PassResult) -> float:
    return res.trials / sum(res.scaled) if res.scaled else 0.0


def end_to_end(res: PassResult) -> dict:
    # with no passing report, the whole pass stands in for one report
    scaled = res.scaled or [res.elapsed]
    times = res.times or [res.elapsed]
    value, pct = tail(scaled)
    return {
        "trials_per_s": (rate(res), "1/s", f"wall {res.trials / res.elapsed:.6g}"),
        "report_s_p50": (statistics.median(scaled), "s", f"wall {statistics.median(times):.6g}"),
        "report_s_tail": (
            value,
            "s",
            f"p{pct} of {len(res.times)} reports, wall {tail(times)[0]:.6g}",
        ),
    }


def layer_metrics(det: dict, det_trials: int, agg: dict, counts: dict, trials: int) -> dict:
    """Per-layer metrics. Counts come from the deterministic window (det,
    det_trials); times and rates from every traced report (agg, counts,
    trials)."""

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(prefix):
        return sum(v[2] for n, v in agg.items() if n.startswith(prefix))

    def count(name):
        return det.get(name, 0)

    schemes = [n for n in agg if n.startswith("schemes.")]
    report_s = total("bench.report")
    invocations = calls("cli.main")
    us = 1e6
    return {
        "bits.objects_per_draw": (ratio(count("bits.objects"), count("stego.draws")), "count"),
        "prf.calls_per_trial": (ratio(count("prf.split_block"), det_trials), "count"),
        "prf.us_per_call": (us * ratio(total("prf.split_block"), calls("prf.split_block")), "us"),
        "rng.substreams_per_trial": (ratio(count("rng.substream"), det_trials), "count"),
        "rng.us_per_substream": (us * ratio(total("rng.substream"), calls("rng.substream")), "us"),
        "schemes.calls_per_trial": (ratio(sum(count(n) for n in schemes), det_trials), "count"),
        "schemes.us_per_call": (us * ratio(own("schemes."), calls(*schemes)), "us"),
        "channels.samples_per_trial": (ratio(count("channels.sample"), det_trials), "count"),
        "channels.history_docs_per_sample": (
            ratio(count("channels.history_docs"), count("channels.sample")),
            "count",
        ),
        "channels.us_per_sample": (us * ratio(own("channels."), calls("channels.sample")), "us"),
        "stego.draws_per_emission": (ratio(count("stego.draws"), count("stego.encode_step")), "count"),
        "stego.cutoff_share": (ratio(count("stego.cutoffs"), count("stego.encode_step")), "ratio"),
        "stego.encode_self_us_per_draw": (
            us * ratio(own("stego.encode_step"), counts.get("stego.draws", 0)),
            "us",
        ),
        "stego.decode_us_per_doc": (
            us * ratio(total("stego.decode"), counts.get("stego.decoded_docs", 0)),
            "us",
        ),
        "asa.enc_self_us_per_call": (us * ratio(own("asa.enc"), calls("asa.enc")), "us"),
        "games.trial_overhead_us": (us * ratio(own("games."), trials), "us"),
        "games.self_share": (ratio(own("games."), report_s), "ratio"),
        "adversaries.queries_per_trial": (ratio(count("games.oracle"), det_trials), "count"),
        "adversaries.self_us_per_trial": (us * ratio(own("adversaries."), trials), "us"),
        "lowerbound.vrfy_per_forgery": (
            ratio(count("lowerbound.search_vrfy"), count("lowerbound.searches")),
            "count",
        ),
        "lowerbound.self_share": (ratio(own("lowerbound."), report_s), "ratio"),
        "cli.parse_ms": (1e3 * ratio(total("cli.build_parser", "cli.parse_args"), invocations), "ms"),
        "cli.emit_ms": (1e3 * ratio(total("cli.emit"), invocations), "ms"),
    }


def traced_pass(sl, workload, seed, seconds, fingerprints):
    """Install the tracer, rebuild the fixtures under it and run a pass.

    Returns (pass result, per-layer metrics without the overhead ratio)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        fixtures = workload.setup(sl)
        snapshots = [tracer.counts()]

        def make_report(i):
            report = workload.report(fixtures, seed, i)
            return dataclasses.replace(report, run=tracer.span("bench.report", report.run))

        def after_report(i):
            if i < workload.det_reports:
                snapshots.append(tracer.counts())

        res = timed_pass(make_report, seconds, workload.det_reports, fingerprints, after_report)
    finally:
        tracer.uninstall()
    first, last = snapshots[0], snapshots[-1]
    det = {k: last.get(k, 0) - first.get(k, 0) for k in last}
    det_trials = sum(workload.report(fixtures, seed, i).trials for i in range(workload.det_reports))
    layers = layer_metrics(det, det_trials, tracer.aggregate(), tracer.counts(), res.trials)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"{workload.name}.spans")
    return res, layers, tracer.span_count()


def run_workload(workload, seed: int, seconds: float, trace: bool, pins: dict | None = None):
    """Returns (attempted, failed, metrics, notes); metrics maps name ->
    (value, unit[, note])."""
    sl = load_package()
    fingerprints = Fingerprints(pins)
    notes = []
    if not trace:
        setup_s, setup_wall = setup_seconds(workload.name)
        fixtures = workload.setup(sl)
        res = timed_pass(
            lambda i: workload.report(fixtures, seed, i), seconds, workload.det_reports, fingerprints
        )
        attempted, failed = recheck(workload, fixtures, seed, fingerprints)
        metrics = end_to_end(res)
        metrics["setup_s"] = (
            setup_s,
            "s",
            f"median of {SETUP_PROBES} fresh processes, wall {setup_wall:.6g}",
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        attempted += res.attempted
        failed += res.failed
    else:
        fixtures = workload.setup(sl)
        plain = timed_pass(
            lambda i: workload.report(fixtures, seed, i),
            seconds / 2,
            workload.det_reports,
            fingerprints,
        )
        traced, metrics, spans = traced_pass(sl, workload, seed, seconds / 2, fingerprints)
        ratio = rate(traced) / rate(plain) if rate(plain) else 0.0
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        notes.append(f"traced {traced.attempted} reports, {spans} spans -> bench/out/{workload.name}.spans")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    fail_ratio = failed / attempted
    notes.append(f"fail_ratio {fail_ratio:.6g} ({failed} of {attempted} reports)")
    table = fingerprints.seen  # in report order
    OUT.mkdir(parents=True, exist_ok=True)
    fp_path = OUT / f"fingerprints-{workload.name}-seed{seed}.json"
    fp_path.write_text(json.dumps(table, indent=1) + "\n")
    source = "pinned" if pins else "first-seen"
    notes.append(
        f"fingerprints: {len(table)} inputs ({source}), table sha256 "
        f"{sha256(json.dumps(table).encode())[:16]} -> {fp_path.relative_to(ROOT)}"
    )
    return attempted, failed, metrics, notes


def load_pins(workload_name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not PINS.exists():
        return None
    return json.loads(PINS.read_text())["workloads"].get(workload_name)


def pin() -> int:
    """Write bench/pins.json: every distinct input of every workload at the
    default seed. Inputs that run threaded (the CLI at --jobs 2) run again
    at --jobs 1 and must agree."""
    sl = load_package()
    table = {}
    for workload in WORKLOADS.values():
        fixtures = workload.setup(sl)
        fps = {}
        for i in range(workload.distinct):
            report = workload.report(fixtures, DEFAULT_SEED, i)
            fps[report.key] = sha256(report.run())
            if getattr(workload, "jobs", 1) != 1:
                again = workload.report(fixtures, DEFAULT_SEED, i, jobs=1)
                if sha256(again.run()) != fps[report.key]:
                    print(f"--jobs 1 and 2 disagree on {report.key}", file=sys.stderr)
                    return 1
        table[workload.name] = fps
        print(f"{workload.name}: {len(fps)} fingerprints")
    doc = {"seed": DEFAULT_SEED, "workloads": table}
    PINS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", action="store_true", help="regenerate the pinned fingerprints")
    args = ap.parse_args(argv)
    try:
        if args.pin:
            return pin()
        if args.workload is None:
            ap.error("--workload is required")
        workload = WORKLOADS[args.workload]
        pins = load_pins(workload.name, args.seed)
        attempted, failed, metrics, notes = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), pins
        )
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit, *note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))
    for line in notes:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

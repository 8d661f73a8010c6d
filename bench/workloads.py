"""The three workloads: what one report is, and how its inputs follow from the seed.

A workload is a cycle of `distinct` report inputs. Report i of a pass uses
input i mod distinct, so every input is known ahead (the pinned table for
the default seed has one fingerprint per input) and a pass that runs past
one cycle re-checks each input against its first fingerprint. Every report
returns its canonical bytes: the compact sorted-key JSON of a library
report, or the captured stdout of a CLI invocation.

Nothing here imports subvertlab: the package module is handed in, so the
setup probe can time the import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Report:
    key: str  # the input's entry in the fingerprint table
    trials: int
    run: Callable[[], bytes]


def report_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def canonical(report) -> bytes:
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()


def _check_unrel(data: bytes, trials: int) -> bytes:
    d = json.loads(data)
    if d["trials"] != trials or not 0 <= d["success_count"] <= trials:
        raise ValueError(f"malformed report: {d}")
    return data


class PointmassUnrel:
    """Criterion 4: a rejection sampler over a deterministic (point-mass) host."""

    name = "pointmass-unrel"
    trials_per_report = 4
    distinct = 64
    det_reports = 4
    recheck_reports = 1

    def setup(self, sl):
        steg = sl.rejsam_system(sl.StegoParams(ml=16, s=64, outl=256, kappa=128))
        det = sl.det_scheme(kappa=16, ml=8)
        return sl, sl.asa_from_stego(steg, det), det

    def report(self, fixtures, seed: int, i: int, jobs: int = 1) -> Report:
        sl, asa, det = fixtures
        j = i % self.distinct
        s = report_seed(self.name, seed, j)
        t = self.trials_per_report

        def run() -> bytes:
            return _check_unrel(canonical(sl.estimate_unrel(asa, det, t, s, jobs=jobs)), t)

        return Report(str(j), t, run)


class SessionUnrel:
    """The same rejection sampler over an encryption-session channel whose
    history grows with every draw."""

    name = "session-unrel"
    trials_per_report = 8
    distinct = 96
    det_reports = 4
    recheck_reports = 1

    def setup(self, sl):
        steg = sl.rejsam_system(sl.StegoParams(ml=16, s=64, outl=256, kappa=128))
        channel = sl.ses_channel(sl.randpad_scheme(r=8, kappa=16, ml=8), ell=4)
        return sl, steg, channel

    def report(self, fixtures, seed: int, i: int, jobs: int = 1) -> Report:
        sl, steg, channel = fixtures
        j = i % self.distinct
        s = report_seed(self.name, seed, j)
        t = self.trials_per_report

        def run() -> bytes:
            rep = sl.estimate_unrel_stego(steg, channel, t, s, history_mode="sampled", jobs=jobs)
            return _check_unrel(canonical(rep), t)

        return Report(str(j), t, run)


class CliExit(Exception):
    pass


# (label, Monte Carlo trials the invocation runs, argv); {seed}, {jobs} and
# {out} are filled per cycle. lowerbound rate plays five legs of --trials
# trials each: three watchdogs, unreliability and forgery.
INVOCATIONS = [
    ("enc-asa", 66, "game enc-asa --adversary chi2 --queries 16 --trials 66 --jobs {jobs} --seed {seed} --out {out}/enc-asa.jsonl"),
    ("cpa", 880, "game cpa --adversary constant --trials 880 --jobs {jobs} --seed {seed} --out {out}/cpa.jsonl"),
    ("ss-cha", 280, "game ss-cha --adversary repeat --trials 280 --jobs {jobs} --seed {seed} --out {out}/ss-cha.jsonl"),
    ("lb-rate", 5 * 24, "lowerbound rate --attack fabricating --sig coin-extractable --sig-ml 16 --tag-bits 8 --fab-ml 8 --trials 24 --jobs {jobs} --seed {seed}"),
    ("asa-queries", 600, "asa queries --trials 600 --jobs {jobs} --seed {seed}"),
    ("stego-embed", 1, "stego embed --message {message} --jobs {jobs} --seed {seed} --out {out}/session.jsonl"),
    ("stego-extract", 1, "stego extract --file {out}/session.jsonl"),
    ("report-merge", 0, "report merge {out}/enc-asa.jsonl {out}/cpa.jsonl {out}/ss-cha.jsonl"),
]


class CliGames:
    """A fixed list of in-process CLI invocations, one cycle per seed."""

    name = "cli-games"
    distinct = 32 * len(INVOCATIONS)
    det_reports = len(INVOCATIONS)
    recheck_reports = len(INVOCATIONS)
    jobs = 2

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, sl):
        import subvertlab.cli

        self.out_dir.mkdir(parents=True, exist_ok=True)
        return subvertlab.cli

    def report(self, cli, seed: int, i: int, jobs: int | None = None) -> Report:
        j = i % self.distinct
        cycle, pos = divmod(j, len(INVOCATIONS))
        label, trials, template = INVOCATIONS[pos]
        s = report_seed(self.name, seed, cycle)
        fill = {"seed": s, "jobs": jobs or self.jobs, "out": self.out_dir, "message": f"{s & 0xFF:02x}"}
        argv = [token.format(**fill) for token in template.split()]

        def run() -> bytes:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                raise CliExit(f"{label} exited {rc}")
            return buf.getvalue().encode()

        return Report(f"{cycle}/{label}", trials, run)


def all_workloads(out_dir: Path) -> dict:
    return {w.name: w for w in (PointmassUnrel(), SessionUnrel(), CliGames(out_dir / "cli"))}

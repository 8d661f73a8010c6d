"""Check report bytes without pytest: the golden CLI matrix and the pins.

Runs every row of the golden CLI matrix (tests/test_cli_golden.py) at both
of its seeds, at --jobs 1 and 2 where the row takes --jobs, and the leading
deterministic reports of every benchmark workload (bench/pins.json), and
compares each sha256 with its pin. One more sha256 pins the float
arithmetic reports are built from (stats_bytes): the Wilson interval and
the advantage interval at every count up to 200 trials, and
statistics.fmean over fixed int lists. A decode check runs seeded document
lists through stego.rejsam_decode, which reads them from the back, and
compares each result with a forward last-write-wins decode written here
on the standard library's hmac. A session check runs seeded sessions of
attacks on the two coin-free hosts (the det cipher and the unique
signature) through the drivers' session path and through one enc call per
emission, and compares their outputs and RNG states. It imports the package from this
checkout's src/ and needs nothing outside the standard library, so it runs
under any interpreter the package supports:

    python3 tests/check_bytes.py

It prints one line per mismatch and a summary, and exits 1 on any mismatch.
"""

import hashlib
import hmac
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import subvertlab  # noqa: E402
from subvertlab import (  # noqa: E402
    Bits,
    Prf,
    StegoParams,
    alg_enc_all,
    alg_from_encryption,
    alg_from_signing,
    asa_from_stego,
    det_scheme,
    games,
    generic_asa_against_alg,
    rejsam_decode,
    rejsam_system,
    sig_fixture,
)
from test_cli_golden import MATRIX, PINS, SEEDS, _stdout  # noqa: E402
from workloads import DEFAULT_SEED, all_workloads  # noqa: E402


STATS_PIN = "248799152a467d77ef3af8f47f99d3f4c9a4e30415abf7f58cb1c74341dc0ed5"


def _fmean_lists() -> list[list[int]]:
    """Int lists of the kinds reports average: short and long runs of small
    counts, counts spread over a wide range, and ints past 2**53."""
    lists = [list(range(n)) for n in range(1, 65)]
    lists += [[j * 104729 % m for j in range(n)] for n in (2, 3, 7, 100, 1000) for m in (2, 17, 997, 10**6)]
    lists += [[2**e + j * 3 for j in range(n)] for e in (52, 53, 60, 70) for n in (2, 5, 33)]
    lists += [[-(2**e) + j for j in range(n)] for e in (10, 53) for n in (3, 64)]
    return lists


def stats_bytes() -> bytes:
    """repr of games.wilson_ci(k, n) and games.advantage_and_ci(k, n) for
    0 <= k <= n <= 200, n >= 1, then of statistics.fmean over _fmean_lists(),
    one value per line."""
    lines = [
        repr((games.wilson_ci(k, n), games.advantage_and_ci(k, n)))
        for n in range(1, 201)
        for k in range(n + 1)
    ]
    lines += [repr(statistics.fmean(xs)) for xs in _fmean_lists()]
    return "\n".join(lines).encode()


def forward_decode(key: Bits, params: StegoParams, docs) -> Bits | None:
    """The hidden message read front to back: each document's HMAC-SHA256
    under the key gives a value (its first block_bits bits) and a slot (the
    next bits, None past n_slots), and the last write to a slot wins."""
    block_bits, n_slots = params.block_bits, params.n_slots
    idx_bits = (n_slots - 1).bit_length()
    slots = [None] * n_slots
    for doc in docs:
        digest = hmac.new(key.to_bytes(), doc.to_bytes(), hashlib.sha256).digest()
        out = int.from_bytes(digest, "big")
        j = (out >> (256 - block_bits - idx_bits)) & ((1 << idx_bits) - 1)
        if j < n_slots:
            slots[j] = out >> (256 - block_bits)
    if None in slots:
        return None
    am = 0
    for value in slots:
        am = (am << block_bits) | value
    return Bits(am >> (params.padded_ml - params.ml), params.ml)


def decode_mismatches(lists: int = 4000) -> tuple[int, list[str]]:
    """Seeded document lists through rejsam_decode and forward_decode: 1 to
    64 documents drawn from a pool of 1 to 40, repeated and as 13-bit
    aliases of the 16-bit documents whose bytes they pad to, at ml 1 to 16
    and any block_bits (non-dyadic slot counts included); small pools leave
    slots empty."""
    rng = random.Random(33)
    prf = Prf(64)
    keys = [Bits.random(64, rng) for _ in range(8)]
    bad = []
    for i in range(lists):
        ml = 2 ** rng.randrange(5)
        outl, pool = rng.randint(1, 64), rng.randint(1, 40)
        params = StegoParams(ml=ml, s=1, outl=outl, kappa=64, block_bits=rng.randint(1, ml))
        values = [rng.randrange(pool) for _ in range(outl)]
        docs = [Bits(v, 13) if rng.getrandbits(1) else Bits(v << 3, 16) for v in values]
        key = keys[i % len(keys)]
        got, want = rejsam_decode(prf, params, key, docs), forward_decode(key, params, docs)
        if got != want:
            bad.append(f"decode list {i}: {got!r} != {want!r}")
    return lists, bad


def _coin_free_attacks(params: StegoParams) -> dict:
    """name -> (attack, host algorithm) for the coin-free hosts."""
    steg = rejsam_system(params)
    det = det_scheme(kappa=16, ml=8)
    unique = alg_from_signing(sig_fixture("unique", 16, ml=8, tag_bits=12))
    return {
        "det": (asa_from_stego(steg, det), alg_from_encryption(det)),
        "unique": (generic_asa_against_alg(steg, unique), unique),
    }


def session_mismatches(seeds: int = 300) -> tuple[int, list[str]]:
    """Seeded sessions on each coin-free host, at ml 1 to 16, any
    block_bits, cutoff 1 to 64 and 1 to 80 inputs (some repeated): the
    driver's session path (alg_enc_all) against state-threaded enc calls,
    one per input, each from its own copy of the seed's RNG."""
    bad = []
    for seed in range(seeds):
        rng = random.Random(seed)
        ml = 2 ** rng.randrange(5)
        params = StegoParams(ml=ml, s=rng.randint(1, 64), outl=rng.randint(1, 80), kappa=64,
                             block_bits=rng.randint(1, ml))
        for name, (attack, alg) in _coin_free_attacks(params).items():
            ak, am, s = attack.gen(rng), Bits.random(ml, rng), alg.secret_gen(rng)
            xs = [alg.input_gen(rng) for _ in range(rng.randint(1, params.outl))]
            xs = (xs * params.outl)[: params.outl]
            runs = []
            for threaded in (False, True):
                run_rng = random.Random(f"{seed}/{name}")
                if threaded:
                    ys, sigma = [], None
                    for x in xs:
                        y, sigma = attack.enc(ak, am, s, x, sigma, run_rng)
                        ys.append(y)
                else:
                    ys = alg_enc_all(attack, ak, am, s, xs, run_rng)
                runs.append((ys, run_rng.getstate()))
            if runs[0] != runs[1]:
                bad.append(f"session {name} seed {seed}: the session path and the enc loop differ")
    return 2 * seeds, bad


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
    stats = hashlib.sha256(stats_bytes()).hexdigest()
    stats_bad = [] if stats == STATS_PIN else [f"statistics: {stats} != {STATS_PIN}"]
    decoded, decode_bad = decode_mismatches()
    sessions, session_bad = session_mismatches()
    for line in bad + pin_bad + stats_bad + decode_bad + session_bad:
        print(line)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"python {version}: {len(PINS) - len(bad)} of {len(PINS)} golden rows, "
          f"{checked - len(pin_bad)} of {checked} pinned reports, "
          f"{1 - len(stats_bad)} of 1 statistics pin, "
          f"{decoded - len(decode_bad)} of {decoded} decoded lists and "
          f"{sessions - len(session_bad)} of {sessions} coin-free sessions match")
    return 1 if bad or pin_bad or stats_bad or decode_bad or session_bad else 0


if __name__ == "__main__":
    sys.exit(main())

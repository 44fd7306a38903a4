"""The inqmt benchmark: one seeded workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload kernel|audit|semantics|selftest \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/inqmt.  Each call
starts the workload's own fresh process (worker.py), plus four more
that only set up, and prints a summary followed, as its last line, by
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (ops_per_s,
latency_ms.p50, latency_ms.tail, setup_s, peak_rss_mb); with --trace 1
they are the per-layer ones, measured with the package's functions
wrapped (see tracing.py), and a trace file is written under bench/out/.
Times are scaled to the reference machine speed (see calibrate.py); the
summary lines print the raw ones too.
Exits 2 without a result when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("kernel", "audit", "semantics", "selftest")
SETUP_PROBES = 4  # set-up-only processes besides the workload's own
DEADLINE_S = 170  # a run that is not done by then is stopped and reports nothing
START = time.monotonic()

UNITS = {
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "_ms": "ms",
    "_calls": "count",
    "_per_s": "1/s",
    "_us_per_assignment": "us",
    ".rewrites": "count",
    ".audit_assignments": "count",
}


def worker(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            capture_output=True,
            text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - START)),
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"worker {' '.join(args)} passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its
    rank as a percentage; with fewer than forty values, the largest."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "inqmt" / "__init__.py").is_file():
        print(f"no package to measure: {ROOT / 'src' / 'inqmt'} is missing", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    probes = [worker(["--workload", args.workload, "--setup-only"]) for _ in range(SETUP_PROBES)]
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", str(OUT / f"{stem}.trace.json")]
    w = worker(cmd)
    done = [t for t in w["per_op_s"] if t is not None]

    for name, why in w["failures"].items():
        print(f"failed: {name}: {why}")
    for err in w["errors"]:
        print(f"WRONG: {err}")
    cover = ", ".join(f"{k} {v:,}" for k, v in sorted(w["coverage"].items()))
    print(f"{args.workload} seed {args.seed}: {len(w['per_op_s'])} operations a round, "
          f"{w['rounds']} round(s), {w['attempted']} attempted, {w['failed']} failed; "
          f"each round covers {cover}")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in w["layers"].items()}
        if w.get("missing_targets"):
            print(f"not traced (absent from the package): {', '.join(w['missing_targets'])}")
    else:
        tail_s, tail_rank = tail(done)
        p50_s = statistics.median(done)
        setups = [p["setup_s"] for p in probes] + [w["setup_s"]]
        setup = statistics.median(setups)
        raw_done = [t for t in w["per_op_raw_s"] if t is not None]
        raw_setup = statistics.median([p["raw_setup_s"] for p in probes] + [w["raw_setup_s"]])
        print(f"machine speed against the reference, per round: "
              f"{', '.join(f'{f:.3f}' for f in w['speed_factors'][1:])}")
        print(f"scaled: latency p50 {p50_s * 1000:.2f} ms and p{tail_rank:.1f} {tail_s * 1000:.2f} ms "
              f"over {len(done)} operation medians; set-up median of {len(setups)}: {setup:.4f} s")
        print(f"raw:    latency p50 {statistics.median(raw_done) * 1000:.2f} ms and "
              f"p{tail_rank:.1f} {tail(raw_done)[0] * 1000:.2f} ms, "
              f"{len(raw_done) / sum(raw_done):.3f} ops/s; set-up median {raw_setup:.4f} s")
        values = {
            "ops_per_s": len(done) / sum(done),
            "latency_ms.p50": p50_s * 1000,
            "latency_ms.tail": tail_s * 1000,
            "setup_s": setup,
            "peak_rss_mb": w["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    result = {
        "correct": not w["errors"],
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "worker": w}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

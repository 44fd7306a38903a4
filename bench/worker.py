"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only

Set-up time runs from the first statement of this file (interpreter
start-up excluded) until the package is imported, its rule table built,
and the algebra tables and down-set enumerations of the workload's
contexts are in place.  The operations then run in whole rounds for
about the given seconds, each timed alone after a garbage collection
that leaves everything older frozen.  Meanwhile a timer runs the
reference loop of calibrate.py, whose speed in each round scales that
round's times to the reference machine speed; set-up is scaled the
same way, by a tenth of a second of the loop right after it.  Verdicts
of the first round are checked; later rounds must repeat them.  Prints
one JSON object for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# contexts whose algebra tables set-up builds, and whether set-up also
# enumerates their down-sets
SETUP = {
    "kernel": ((), False),
    "audit": (("p", "p,q"), True),
    "semantics": (("p", "p,q", "p,q,r", "p,q,r,s"), False),
    "selftest": (("p", "p,q"), True),
}


def set_up(workload: str) -> tuple[float, float]:
    """(seconds since start-up, seconds of it spent in algebra set-up)."""
    sys.path.insert(0, str(SRC))
    import inqmt

    if Path(inqmt.__file__).resolve().parent != SRC / "inqmt":
        raise SystemExit(f"inqmt was imported from {inqmt.__file__}, not from {SRC}")
    inqmt.rule_table()
    contexts, downsets = SETUP[workload]
    t0 = time.perf_counter()
    for names in contexts:
        alg = inqmt.for_context(inqmt.Context.of(names))
        if downsets:
            alg.all_downsets()
    t1 = time.perf_counter()
    return t1 - T0, t1 - t0


def same(a, b) -> bool:
    """Verdict equality that ignores the package's own objects, which
    need not compare equal across rounds."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, (bool, int, float, str, dict, type(None))):
        return a == b
    return True


def run_rounds(ops, seconds: float, tracer, meter):
    """Per operation, its scaled and its raw times, one per round it completed."""
    times = [[] for _ in ops]
    raw = [[] for _ in ops]
    factors = []
    verdicts = [None] * len(ops)
    failures = {}
    attempted = failed = rounds = 0
    peak_rss_mb = 0.0
    mismatches = []
    start = time.perf_counter()
    meter.start()
    while True:
        done = []
        for i, op in enumerate(ops):
            # collect what the last operation left, then freeze the
            # survivors, so no operation pays to traverse kept verdicts
            gc.collect()
            gc.freeze()
            span = tracer.begin(f"op:{op.name}") if tracer else None
            t0 = meter.clock()
            try:
                verdict = op.run()
                error = None
            except Exception as e:  # the benchmark counts every raising operation as failed
                verdict, error = None, e
            took = meter.clock() - t0
            if tracer:
                tracer.end(span)
            attempted += 1
            if error is not None:
                failed += 1
                failures.setdefault(op.name, f"{type(error).__name__}: {str(error)[:120]}")
                continue
            done.append((i, took))
            if rounds == 0:
                verdicts[i] = verdict
            elif not same(verdict, verdicts[i]):
                mismatches.append(f"{op.name}: round {rounds + 1} differs from round 1")
        factors.append(calibrate.factor(*meter.take()))
        for i, took in done:
            raw[i].append(took)
            times[i].append(took * factors[-1])
        rounds += 1
        if rounds == 1:
            # later rounds may only add garbage; one round sets the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # stop when one more round would overshoot by more than half a round
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    meter.stop()
    return {
        "times": times,
        "raw": raw,
        "factors": factors,
        "verdicts": verdicts,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "mismatches": mismatches,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    tracer = import_timer = None
    if args.trace:
        import tracing

        import_timer = tracing.ImportTimer()
        sys.meta_path.insert(0, import_timer)
    setup_s, algebra_setup_s = set_up(args.workload)
    meter = calibrate.Meter()
    meter.run_for(0.1)
    setup_factor = calibrate.factor(*meter.take())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * setup_factor, "raw_setup_s": setup_s}))
        return 0
    if args.trace:
        sys.meta_path.remove(import_timer)
        tracing.perf = meter.clock  # layer times leave out the reference loop
        tracer = tracing.Tracer()
        tracer.install()

    import workloads

    t_build = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, ROOT)
    gc.collect()
    gc.freeze()
    t_run = time.perf_counter()
    r = run_rounds(ops, args.seconds, tracer, meter)
    t_check = time.perf_counter()

    errors = list(r["mismatches"])
    tally: dict[str, int] = {}
    for op, verdict in zip(ops, r["verdicts"]):
        if op.name in r["failures"]:
            continue
        err = op.check(verdict)
        if err:
            errors.append(f"{op.name}: {err}")
        for key, value in op.cover.items():
            tally[key] = tally.get(key, 0) + value
        if op.tally is not None:
            for key, value in op.tally(verdict).items():
                tally[key] = tally.get(key, 0) + value

    per_op = [statistics.median(t) if t else None for t in r["times"]]
    per_op_raw = [statistics.median(t) if t else None for t in r["raw"]]
    phases = {
        "build": t_run - t_build,
        "run": t_check - t_run,
        "check": time.perf_counter() - t_check,
    }
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s * setup_factor,
        "raw_setup_s": setup_s,
        "speed_factors": [setup_factor, *r["factors"]],
        "rounds": r["rounds"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "failures": r["failures"],
        "errors": errors,
        "op_names": [op.name for op in ops],
        "per_op_s": per_op,
        "per_op_raw_s": per_op_raw,
        "peak_rss_mb": r["peak_rss_mb"],
        "coverage": tally,
        "phase_s": phases,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, r, per_op, tally, algebra_setup_s * setup_factor,
                                      import_timer, setup_factor)
        out["missing_targets"] = tracer.missing
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "rounds": r["rounds"],
                        "layers": {k: {"calls": c[0], "seconds": c[1]} for k, c in tracer.cells.items()},
                        "span_self_seconds": tracer.self_times(),
                        "import_self_seconds": import_timer.self_s,
                        "spans": tracer.spans,
                    },
                    fh,
                )
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, r, per_op, tally, algebra_setup_s, import_timer, setup_factor) -> dict:
    """Times are scaled by the run's mean speed factor, set-up ones by set-up's."""
    n = r["rounds"]
    scale = statistics.mean(r["factors"])
    calls = tracer.calls

    def ms(layer, rounds):
        return tracer.ms(layer, rounds) * scale

    parse_s = tracer.cells["parser.parse"][1] * scale
    audit_ms = ms("calculus.audit", n)
    assignments = tally.get("audit_assignments", 0)
    done = [t for t in per_op if t is not None]
    return {
        "parser.parse_ms": ms("parser.parse", n),
        "parser.chars_per_s": tracer.chars / parse_s if parse_s else 0.0,
        "parser.print_ms": ms("parser.print", n),
        "calculus.check_ms": ms("calculus.check", n),
        "calculus.match_calls": calls("calculus.match", n),
        "calculus.match_ms": ms("calculus.match", n),
        "structures.walk_calls": calls("structures.walk", n),
        "structures.walk_ms": ms("structures.walk", n),
        "cutelim.reduce_ms": ms("cutelim.reduce", n),
        "cutelim.rewrites": tally.get("rewrites", 0),
        "calculus.audit_ms": audit_ms,
        "calculus.sequent_holds_calls": calls("calculus.sequent_holds", n),
        "calculus.audit_assignments": assignments,
        "calculus.audit_us_per_assignment": audit_ms * 1000 / assignments if assignments else 0.0,
        "calculus.schema_soundness_ms": ms("calculus.schema_soundness", n),
        "algebra.denote_calls": calls("algebra.denote", n),
        "algebra.heyting_calls": calls("algebra.heyting", n),
        "algebra.heyting_ms": ms("algebra.heyting", n),
        "algebra.downset_calls": calls("algebra.downset", n),
        "algebra.downset_ms": ms("algebra.downset", n),
        "algebra.closure_calls": calls("algebra.closure", n),
        "algebra.closure_ms": ms("algebra.closure", n),
        "teams.support_table_calls": calls("teams.support_table", n),
        "teams.support_table_ms": ms("teams.support_table", n),
        "teams.support_ms": ms("teams.support", n),
        "teams.flat_ms": ms("teams.flat", n),
        "translate.tau_i_ms": ms("translate.tau_i", n),
        "selftest.run_ms": ms("selftest.run", n),
        "algebra.setup_ms": algebra_setup_s * 1000,
        "rules.table_ms": import_timer.self_s.get("inqmt.rules", 0.0) * 1000 * setup_factor,
        "traced.ops_per_s": len(done) / sum(done),
    }


if __name__ == "__main__":
    sys.exit(main())

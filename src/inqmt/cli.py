"""Command-line surface.

    inqmt eval -V p,q --team "{10,01}" "p -> q"     team support
    inqmt valid -V p "~~p -> p"                     validity over all teams
    inqmt flat -V p,q "~(p \\/ q)"                  flatness report
    inqmt translate "p \\/ ~p"                      InqL into the two-sorted language
    inqmt check --script proof.sexp                 kernel check
    inqmt audit --script proof.sexp -V p,q          per-instance soundness audit
    inqmt reduce --script proof.sexp --fuel 10      principal-cut reduction
    inqmt selftest --level fast|full                built-in suites

Exit codes: 0 success/true, 1 false or check failed (an audit also
fails when a node checked no assignment), 2 usage error, 3 size cap
exceeded (including input nested too deeply to read); a reader that
closes stdout early does not change the code.  --json switches reports
to machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import selftest, teams, translate
from .calculus import audit_soundness, check_derivation
from .contexts import Context
from .cutelim import reduce_all
from .errors import InqmtError, MixedSortError, NotClassicalError, ParseError, SizeCapError
from .formulas import inq_neg
from .parser import derivation_to_sexp, parse_derivation, parse_inql


class _UsageError(Exception):
    pass


def _context(args) -> Context:
    if not args.vars:
        raise _UsageError("this command needs -V with a comma-separated variable list")
    return Context.of(args.vars)


def _load_script(args):
    if not args.script:
        raise _UsageError("this command needs --script with a derivation file")
    try:
        with open(args.script, encoding="utf-8") as fh:
            return parse_derivation(fh.read())
    except OSError as e:
        raise _UsageError(f"cannot read {args.script}: {e}") from None


def cmd_eval(args) -> int:
    ctx = _context(args)
    if args.team is None:
        raise _UsageError("eval needs --team with a braced world list, e.g. {10,01}")
    try:
        team = ctx.team_from_spec(args.team)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    phi = parse_inql(args.formula)
    result = bool(teams.support_table(ctx, phi) >> team & 1)
    _emit(args, {"formula": str(phi), "team": ctx.team_to_spec(team), "supported": result},
          "true" if result else "false")
    return 0 if result else 1


def cmd_valid(args) -> int:
    ctx = _context(args)
    phi = parse_inql(args.formula)
    result = teams.valid(ctx, phi)
    _emit(args, {"formula": str(phi), "valid": result}, "true" if result else "false")
    return 0 if result else 1


def cmd_flat(args) -> int:
    ctx = _context(args)
    phi = parse_inql(args.formula)
    table = teams.support_table(ctx, phi)
    semantic = teams.is_flat_table(ctx, table)
    flattened = translate.flatten(phi)
    eq_flat = table == teams.support_table(ctx, flattened)
    nn = table == teams.support_table(ctx, inq_neg(inq_neg(phi)))
    payload = {
        "formula": str(phi),
        "flat": semantic,
        "equivalent_to_flattening": eq_flat,
        "equivalent_to_double_negation": nn,
        "flattening": str(flattened),
    }
    text = "\n".join(
        [
            f"flat (pointwise support): {semantic}",
            f"equivalent to flattening {flattened}: {eq_flat}",
            f"equivalent to its double negation: {nn}",
        ]
    )
    _emit(args, payload, text)
    return 0 if semantic else 1


def cmd_translate(args) -> int:
    phi = parse_inql(args.formula)
    image = translate.tau_i(phi)
    _emit(args, {"formula": str(phi), "translation": str(image)}, str(image))
    return 0


def cmd_check(args) -> int:
    d = _load_script(args)
    result = check_derivation(d)
    payload = {
        "ok": result.ok,
        "nodes": [
            {"addr": list(r.addr), "rule": r.rule, "status": r.status, "note": r.note}
            for r in result.records
        ],
        "error": result.reason,
    }
    _emit(args, payload, "\n".join(result.lines() + [f"result: {'ok' if result.ok else 'FAIL'}"]))
    return 0 if result.ok else 1


def cmd_audit(args) -> int:
    if args.samples < 0:
        raise _UsageError(f"--samples must be at least 0, got {args.samples}")
    ctx = _context(args)
    d = _load_script(args)
    report = audit_soundness(d, ctx, samples=args.samples)
    payload = {
        "ok": report.ok,
        "nodes_checked": report.nodes_checked,
        "assignments_checked": report.assignments_checked,
        "sampled_nodes": report.sampled_nodes,
        "unchecked_nodes": report.unchecked_nodes,
        "seed": report.seed,
        "nodes": [
            {"addr": list(n.addr), "rule": n.rule, "assignments": n.assignments,
             "coverage": "sampled" if n.sampled else "exhaustive"}
            for n in report.nodes
        ],
        "violations": [
            {"addr": list(v.addr), "rule": v.rule,
             "assignment": {k: ctx.team_to_spec(t) for k, t in v.assignment.items()}}
            for v in report.violations
        ],
    }
    lines = [
        f"nodes: {report.nodes_checked}, assignments: {report.assignments_checked}"
        + (f" ({report.sampled_nodes} nodes sampled)" if report.sampled_nodes else "")
    ]
    if report.unchecked_nodes:
        lines.append(f"unchecked: {report.unchecked_nodes} nodes checked no assignment")
    for v in report.violations:
        witness = ", ".join(f"{k}={ctx.team_to_spec(t)}" for k, t in v.assignment.items())
        lines.append(f"violation at {'.'.join(map(str, v.addr)) or 'root'} ({v.rule}): {witness}")
    if report.ok:
        verdict = "sound"
    else:
        verdict = "VIOLATIONS" if report.violations else "UNCHECKED"
    lines.append(f"result: {verdict}")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_reduce(args) -> int:
    if args.fuel < 0:
        raise _UsageError(f"--fuel must be at least 0, got {args.fuel}")
    d = _load_script(args)
    if not check_derivation(d).ok:
        raise _UsageError("input script does not check; fix it before reducing")
    reduced, report = reduce_all(d, fuel=args.fuel)
    script = derivation_to_sexp(reduced)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(script)
        except OSError as e:
            raise _UsageError(f"cannot write {args.out}: {e}") from None
    payload = {
        "steps": [{"addr": list(s.addr), "formula": s.formula, "note": s.note} for s in report.steps],
        "remaining_cuts": report.remaining_cuts,
        "remaining_principal": report.remaining_principal,
        "fuel_exhausted": report.fuel_exhausted,
        "script": script,
    }
    lines = [f"reduced {len(report.steps)} principal cut(s)"]
    for s in report.steps:
        note = f" [{s.note}]" if s.note else ""
        lines.append(f"  at {'.'.join(map(str, s.addr)) or 'root'}: {s.formula}{note}")
    lines.append(f"remaining cuts: {report.remaining_cuts} ({report.remaining_principal} principal)")
    if not args.out:
        lines.append(script.rstrip())
    _emit(args, payload, "\n".join(lines))
    return 1 if report.fuel_exhausted else 0


def cmd_selftest(args) -> int:
    results = selftest.run(args.level)
    payload = {
        "suites": [
            {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": round(r.seconds, 3)}
            for r in results
        ]
    }
    lines = [
        f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail} ({r.seconds:.2f} s)" for r in results
    ]
    ok = all(r.ok for r in results)
    lines.append(f"result: {'all suites pass' if ok else 'FAILURES'}")
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _emit(args, payload: dict, text: str):
    """Prints the report.  If the reader closed the pipe, stdout goes to
    the null device, so the flush at exit cannot raise, and the verdict stands."""
    try:
        print(json.dumps(payload, indent=2) if args.json else text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inqmt",
        description="Team semantics and the two-sorted sequent kernel for inquisitive logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formula=False, script=False):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if formula:
            p.add_argument("formula", help="formula in the ASCII syntax")
        if script:
            p.add_argument("--script", required=False, help="derivation script path")

    def variables(p):
        """-V, on the commands that read a variable context."""
        p.add_argument("-V", dest="vars", default="", help="comma-separated variables, order-significant")

    p = sub.add_parser("eval", help="team support for a formula")
    common(p, formula=True)
    variables(p)
    p.add_argument("--team", help="braced team spec, e.g. {10,01}")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("valid", help="validity over all teams")
    common(p, formula=True)
    variables(p)
    p.set_defaults(func=cmd_valid)

    p = sub.add_parser("flat", help="flatness report")
    common(p, formula=True)
    variables(p)
    p.set_defaults(func=cmd_flat)

    p = sub.add_parser("translate", help="translate InqL into the two-sorted language")
    common(p, formula=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="check a derivation script")
    common(p, script=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("audit", help="semantic soundness audit of a script")
    common(p, script=True)
    variables(p)
    p.add_argument("--samples", type=int, default=10_000, help="samples when not exhaustive")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("reduce", help="reduce principal cuts in a script")
    common(p, script=True)
    p.add_argument("--fuel", type=int, default=100, help="maximum number of rewrites")
    p.add_argument("--out", help="write the rewritten script here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    common(p)
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except SizeCapError as e:
        print(f"size cap exceeded: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        # a safety net for any walk that recurses per level; a script
        # nesting as deep as the recursion limit is a SizeCapError before
        # its sides are read
        print(
            "size cap exceeded: input nests deeper than the recursion limit "
            f"({sys.getrecursionlimit()} frames) allows",
            file=sys.stderr,
        )
        return 3
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ParseError, MixedSortError, NotClassicalError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except InqmtError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

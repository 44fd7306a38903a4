import json
import os
import random
import re
import resource
import subprocess
import sys
import time

import inqmt
from inqmt import corpus
from inqmt.cli import main
from inqmt.derivations import identity
from inqmt.formulas import Cap, FImp, FVar
from inqmt.parser import derivation_to_sexp

from helpers import weakening_chain
from test_parser import _mutant, _side_rewritten


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "-V", "p,q", "--team", "{10,11}", "p")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "-V", "p,q", "--team", "{10,01}", "p -> q")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "eval", "-V", "p", "--team", "{}", "0")
    assert code == 0


def test_eval_reads_the_support_table_at_four_variables(capsys):
    # nested implications over all 16 worlds: a subteam walk per
    # implication takes minutes here, the table milliseconds
    worlds = ",".join(f"{w:04b}" for w in range(16))
    phi = "(s -> s) -> ((r -> r) -> ((q -> q) -> (p -> p)))"
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "-V", "p,q,r,s", "--team", "{" + worlds + "}", phi)
    assert time.perf_counter() - start < 5
    assert code == 0 and out.strip() == "true" and err == ""
    code, out, _ = run(capsys, "eval", "-V", "p,q,r,s", "--team", "{1000,0100}", "p \\/ q",
                       "--json")
    assert code == 1 and json.loads(out) == {
        "formula": "p \\/ q", "team": "{1000,0100}", "supported": False,
    }


def test_valid(capsys):
    code, out, _ = run(capsys, "valid", "-V", "p", "~~p -> p")
    assert code == 0
    code, out, _ = run(capsys, "valid", "-V", "p", "?p")
    assert code == 1


def test_flat_report(capsys):
    code, out, _ = run(capsys, "flat", "-V", "p,q", "~(p \\/ q)")
    assert code == 0
    assert "flat (pointwise support): True" in out
    code, out, _ = run(capsys, "flat", "-V", "p", "?p")
    assert code == 1


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "p \\/ ~p")
    assert code == 0 and out.strip() == "dn(p) \\/ dn(p ~> 0)"


def test_check_and_audit(tmp_path, capsys):
    script = tmp_path / "kp.sexp"
    script.write_text(corpus.text("appendix_kp"), encoding="utf-8")
    code, out, _ = run(capsys, "check", "--script", str(script))
    assert code == 0 and "result: ok" in out
    code, out, _ = run(capsys, "check", "--script", str(script), "--json")
    payload = json.loads(out)
    assert payload["ok"] and len(payload["nodes"]) == 37
    code, out, _ = run(capsys, "audit", "--script", str(script), "-V", "p")
    assert code == 0 and "result: sound" in out
    code, out, _ = run(capsys, "audit", "--script", str(script), "-V", "p", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["seed"] == 0 and len(payload["nodes"]) == 37
    assert payload["nodes"][0] == {
        "addr": [], "rule": "orR", "assignments": 4 ** 3, "coverage": "exhaustive"
    }
    assert sum(n["assignments"] for n in payload["nodes"]) == payload["assignments_checked"]

    broken = tmp_path / "broken.sexp"
    broken.write_text(
        corpus.text("lemma52_base").replace('"d mon"', '"f mon"'), encoding="utf-8"
    )
    code, out, _ = run(capsys, "check", "--script", str(broken))
    assert code == 1 and "result: FAIL" in out


def test_reduce(tmp_path, capsys):
    script = tmp_path / "cut.sexp"
    script.write_text(corpus.text("cut_cap_before"), encoding="utf-8")
    out_path = tmp_path / "reduced.sexp"
    code, out, _ = run(capsys, "reduce", "--script", str(script), "--out", str(out_path))
    assert code == 0
    assert "reduced 1 principal cut(s)" in out
    assert out_path.read_text(encoding="utf-8") == corpus.text("cut_cap_after")


def test_reduce_refuses_an_unwritable_out_path(tmp_path, capsys):
    script = tmp_path / "cut.sexp"
    script.write_text(corpus.text("cut_cap_before"), encoding="utf-8")
    for out_path in (tmp_path / "missing" / "x.sexp", tmp_path):
        code, out, err = run(capsys, "reduce", "--script", str(script), "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: cannot write {out_path}") and "Traceback" not in err


def test_reduce_rejects_negative_fuel(tmp_path, capsys):
    script = tmp_path / "cut.sexp"
    script.write_text(corpus.text("cut_cap_before"), encoding="utf-8")
    code, out, err = run(capsys, "reduce", "--fuel", "-1", "--script", str(script))
    assert code == 2 and out == "" and "usage error: --fuel must be at least 0" in err
    code, _, _ = run(capsys, "reduce", "--fuel", "0", "--script", str(script))
    assert code == 1


def test_selftest_fast(capsys):
    code, out, _ = run(capsys, "selftest", "--level", "fast")
    assert code == 0
    assert "result: all suites pass" in out
    assert "corpus replay" in out
    assert all(line.endswith(" s)") for line in out.splitlines() if line.startswith("PASS"))


# every suite of selftest --level full and what it covers
FULL_SUITES = [
    ("adjunction |V|=1", "24 pairs, both laws"),
    ("downset properties |V|=1", "4 teams, 6 down-sets"),
    ("KP inclusion |V|=1", "144 distinct triples covering 216 principal triples"),
    ("coimp residuation |V|=1", "216 triples"),
    ("rule-table soundness |V|=1", "all schemas, both directions"),
    ("corpus replay", "23 scripts, 7 lemma/appendix"),
    ("corpus audit |V|=1", "7 scripts, 129 nodes, 2415 assignments, exhaustive, no violations"),
    ("adjunction |V|=2", "2688 pairs, both laws"),
    ("downset properties |V|=2", "16 teams, 168 down-sets"),
    ("KP inclusion |V|=2", "451584 distinct triples covering 4741632 principal triples"),
    ("corpus audit |V|=2", "7 scripts, 129 nodes, 112179 assignments, exhaustive, no violations"),
    ("population semantics", "2703 formulas, 30 distinct tables"),
    ("multi-type axioms", "1008 instantiations at |V|=2"),
    ("cut reductions", "69 principal cuts on Flat height <= 2 over p, q, 0, dn of each, "
                       "and /\\, \\/, => over dn(p), dn(q), dn(0)"),
]


def test_selftest_full(capsys):
    code, out, _ = run(capsys, "selftest", "--level", "full")
    assert code == 0
    *lines, last = out.splitlines()
    assert last == "result: all suites pass"
    assert [re.sub(r" \(\d+\.\d\d s\)$", "", line) for line in lines] == [
        f"PASS  {name}: {detail}" for name, detail in FULL_SUITES
    ]
    code, out, _ = run(capsys, "selftest", "--level", "full", "--json")
    assert code == 0
    suites = json.loads(out)["suites"]
    assert [(s["name"], s["ok"], s["detail"]) for s in suites] == [
        (name, True, detail) for name, detail in FULL_SUITES
    ]


def test_v_only_where_it_is_read(tmp_path, capsys):
    script = tmp_path / "kp.sexp"
    script.write_text(corpus.text("appendix_kp"), encoding="utf-8")
    for argv in (
        ("selftest",),
        ("translate", "p"),
        ("check", "--script", str(script)),
        ("reduce", "--script", str(script)),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        code, out, err = run(capsys, *argv, "-V", "p,q")
        assert code == 2 and out == "" and "unrecognized arguments: -V p,q" in err, argv


def test_usage_errors(capsys):
    code, _, err = run(capsys, "valid", "p")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "eval", "-V", "p", "p")
    assert code == 2
    code, _, err = run(capsys, "valid", "-V", "p", "p -> ")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "check", "--script", "/nonexistent/x.sexp")
    assert code == 2
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _, err = run(capsys, "eval", "-V", "p,q", "--team", "{101}", "p")
    assert code == 2


def test_size_cap_exit_code(capsys):
    code, _, err = run(capsys, "valid", "-V", "a,b,c,d,e", "a")
    assert code == 3 and "size cap" in err


def test_deep_nesting_is_a_size_cap_not_a_traceback(tmp_path, capsys):
    code, out, err = run(capsys, "valid", "-V", "p", "(" * 2000 + "p" + ")" * 2000)
    assert code == 1 and out.strip() == "false" and err == ""
    code, out, err = run(capsys, "valid", "-V", "p", "p -> (" * 10_000 + "p" + ")" * 10_000)
    assert code == 0 and out.strip() == "true" and err == ""
    # the derivation-script reader still recurses once per node
    script = tmp_path / "chain.sexp"
    script.write_text(derivation_to_sexp(weakening_chain(1000)), encoding="utf-8")
    code, out, err = run(capsys, "check", "--script", str(script))
    assert code == 3 and out == ""
    assert err.startswith("size cap exceeded") and len(err.strip().splitlines()) == 1


def test_mutated_scripts_end_in_an_exit_code(tmp_path, capsys):
    """Seeded rewrites of the corpus scripts, of their s-expressions or of
    one side, through check, reduce and audit: each ends in a documented
    exit code, and no exception escapes main."""
    rng = random.Random(12)
    names = corpus.names()
    codes = set()
    for i in range(300):
        text = corpus.text(rng.choice(names))
        mutant = _mutant(text, rng) if rng.random() < 0.5 else _side_rewritten(text, rng)
        script = tmp_path / f"{i}.sexp"
        script.write_text(mutant, encoding="utf-8")
        for argv in (("check",), ("reduce",), ("audit", "-V", "p,q")):
            code, _, _ = run(capsys, *argv, "--script", str(script))
            assert code in (0, 1, 2, 3), (argv, mutant)
            codes.add(code)
    assert {0, 1, 2} <= codes


def test_deep_eval_runs_without_recursion(capsys):
    nest = "p -> (" * 10_000 + "{})" + ")" * 9_999
    code, out, err = run(capsys, "eval", "-V", "p,q", "--team", "{10}", nest.format("p"))
    assert code == 0 and out.strip() == "true" and err == ""
    code, out, err = run(capsys, "eval", "-V", "p,q", "--team", "{10}", nest.format("q"))
    assert code == 1 and out.strip() == "false" and err == ""


def test_moderate_nesting_is_read(capsys):
    code, out, err = run(capsys, "valid", "-V", "p", "(" * 200 + "p" + ")" * 200)
    assert code == 1 and out.strip() == "false" and err == ""


def _kp_script(tmp_path):
    script = tmp_path / "kp.sexp"
    script.write_text(corpus.text("appendix_kp"), encoding="utf-8")
    return str(script)


def test_audit_with_no_samples_is_unchecked(tmp_path, capsys):
    argv = ("audit", "--samples", "0", "-V", "p,q,r", "--script", _kp_script(tmp_path))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "unchecked: 25 nodes" in out and "result: UNCHECKED" in out
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 1 and not payload["ok"]
    assert payload["unchecked_nodes"] == 25 and payload["sampled_nodes"] == 25
    sampled = [n for n in payload["nodes"] if n["coverage"] == "sampled"]
    assert len(sampled) == 25 and not any(n["assignments"] for n in sampled)


def test_audit_rejects_negative_samples(tmp_path, capsys):
    code, _, err = run(
        capsys, "audit", "--samples", "-1", "-V", "p", "--script", _kp_script(tmp_path)
    )
    assert code == 2 and "usage error" in err


def test_json_outputs(capsys):
    code, out, _ = run(capsys, "valid", "-V", "p", "~~p -> p", "--json")
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "selftest", "--level", "fast", "--json")
    assert code == 0
    suites = json.loads(out)["suites"]
    assert all(s["ok"] for s in suites)
    assert all(s["seconds"] >= 0 for s in suites)
    details = {s["name"]: s["detail"] for s in suites}
    assert details["KP inclusion |V|=1"] == "144 distinct triples covering 216 principal triples"
    assert details["corpus audit |V|=1"].startswith("7 scripts, 129 nodes, 2415 assignments")


def _child_env():
    """The environment, with this package's source first on the path."""
    src = os.path.dirname(os.path.dirname(inqmt.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    argv = [sys.executable, "-m", "inqmt", "valid", "-V", "p", "~~p -> p"]
    done = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=120)
    assert done.returncode == 0 and done.stdout.strip() == "true", done.stderr


def test_a_closed_pipe_ends_quietly_with_the_verdict(tmp_path):
    """The reader closes stdout after the first line of a 1.5 MB report:
    the command writes no traceback and exits with its verdict, 0 for
    the identity script of a 300-connective Flat formula and 1 for the
    same script with its root rule renamed."""
    alpha = FVar("p")
    for i in range(300):
        alpha = (Cap if i % 2 else FImp)(alpha, FVar("q"))
    text = derivation_to_sexp(identity(alpha))
    cases = [(text, 0), (text.replace('(rule "capL"', '(rule "capR"', 1), 1)]
    for i, (script, verdict) in enumerate(cases):
        path = tmp_path / f"big{i}.sexp"
        path.write_text(script, encoding="utf-8")
        for flags in (["--json"], []):
            child = subprocess.Popen(
                [sys.executable, "-m", "inqmt", "check", *flags, "--script", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
            )
            child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read().decode("utf-8", "replace")
            assert child.wait(timeout=120) == verdict, (flags, verdict, err)
            assert "Traceback" not in err and "Exception" not in err, (flags, err)
            child.stderr.close()


# seeded argv fuzzing: pieces that mutated formulas, team specs and -V
# lists are made of
_FUZZ_FORMULAS = ("p -> q", "~~p -> p", "?p \\/ ~q", "=(p,q) /\\ q", "p /\\ q -> q \\/ p")
_FUZZ_TOKENS = (
    "p", "q", "r", "0", "~", "?", "->", "\\/", "/\\", "(", ")", "=(", ",", "dn(p)",
    "&", "|-", "Ph", "#", "é", "→", " ", "(" * 300, "p -> (" * 500,
)
_FUZZ_VARS = ("p,q", "p,q,r", "p,q,r,s", "p", "p,q,r,s,t", "", "p,p", "P", "1p", "p,,q", "dn", ",")
_FUZZ_COMMANDS = (
    "eval", "eval", "valid", "flat", "translate", "check", "audit", "reduce", "selftest",
)
_FUZZ_EXTRAS = ("--bogus", "-x", "--json", "--json=1", "--level", "--team", "-V", "--script", "")


def _fuzz_text(rng, base):
    """base after one to three random inserts, deletions or duplications."""
    s = base
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.randrange(len(s) + 1) for _ in range(2))
        s = rng.choice((
            s[:i] + rng.choice(_FUZZ_TOKENS) + s[i:],
            s[:i] + s[j:],
            s[:j] + s[i:j] + s[j:],
        ))
    return s


def _fuzz_argv(rng, script):
    """One command line with one fault at most: its formula, -V list or
    team spec mutated, a flag added or an argument dropped.  Script
    commands read script or a missing file, and some of their options are
    out of range."""
    fault = rng.choice(("formula", "vars", "team", "flag", "drop", None))

    def part(name, base):
        return _fuzz_text(rng, base) if fault == name else base

    command = rng.choice(_FUZZ_COMMANDS)
    if command == "selftest":
        argv = [command, "--level", rng.choice(("fast", "full", "bogus", ""))]
    elif command in ("check", "audit", "reduce"):
        argv = [command, "--script", rng.choice((script, script, "no/such.sexp"))]
        if command == "audit":
            argv += ["-V", part("vars", rng.choice(_FUZZ_VARS[:3]))]
            argv += rng.choice(([], ["--samples", "50"], ["--samples", "-1"]))
        elif command == "reduce":
            argv += rng.choice(([], ["--fuel", "1"], ["--fuel", "x"]))
    else:
        argv = [command, part("formula", rng.choice(_FUZZ_FORMULAS))]
        if command != "translate":
            names = rng.choice(_FUZZ_VARS[:3] if rng.random() < 0.8 else _FUZZ_VARS)
            argv += ["-V", part("vars", names)]
        if command == "eval":
            width = len(names.split(","))
            worlds = {"".join(rng.choices("01", k=width)) for _ in range(rng.randrange(4))}
            argv += ["--team", part("team", "{" + ",".join(worlds) + "}")]
    if fault == "flag":
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(_FUZZ_EXTRAS))
    elif fault == "drop":
        del argv[rng.randrange(len(argv))]
    return argv


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_mutated_command_lines_end_in_an_exit_code_in_a_child(tmp_path):
    """Seeded mutated command lines, each run as python -m inqmt in a child
    process, two at a time, under a 1 GiB address-space limit and a time
    limit: each exits 0-3 and writes no traceback."""
    script = tmp_path / "cut.sexp"
    script.write_text(corpus.text("cut_cap_before"), encoding="utf-8")
    rng = random.Random(7)
    runs = [_fuzz_argv(rng, str(script)) for _ in range(24)]
    codes = set()
    for batch in (runs[i : i + 2] for i in range(0, len(runs), 2)):
        children = [
            subprocess.Popen(
                [sys.executable, "-m", "inqmt", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
                encoding="utf-8", errors="replace", preexec_fn=_limit_address_space,
            )
            for argv in batch
        ]
        for argv, child in zip(batch, children):
            try:
                _, err = child.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                pytest.fail(f"no exit within 30 s: {argv}")
            assert child.returncode in (0, 1, 2, 3) and "Traceback" not in err, (argv, err)
            codes.add(child.returncode)
    assert {0, 1, 2, 3} <= codes

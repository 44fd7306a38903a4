"""Built-in verification suites behind the selftest CLI command.

The fast level runs the exhaustive one-variable algebra suites, the
denotation-level rule-table soundness check, and a full corpus replay.
The full level adds the two-variable exhaustive algebra suites, the
corpus audit, and the bounded formula-population suites (semantics,
flatness, translation adequacy, disjunction property, multi-type
axioms).  Every result says what its suite covered, in a detail that is
the same on every run, and how long the suite took.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

from . import algebra, corpus, teams, translate
from .calculus import audit_soundness, check_derivation, check_rule_table_soundness
from .contexts import Context
from .cutelim import cut_sizes, multiset_decreased, reduce_all
from .derivations import principal_cut_example
from .formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    FlatFormula,
    GAnd,
    GeneralFormula,
    GImp,
    GOr,
    enumerate_inql,
    inq_neg,
    is_classical,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    detail: str  # what was covered; the same on every run
    seconds: float = 0.0  # wall time of the suite


def _adjunction_suite(ctx: Context) -> SuiteResult:
    # f* -| f is quantified over collections containing the empty team:
    # f* adds the empty team unconditionally, so the law has a corner at
    # the empty collection, which no formula or succedent denotes anyway
    alg = algebra.for_context(ctx)
    name = f"adjunction |V|={ctx.n_vars}"
    downs = alg.all_downsets()
    checked = 0
    for x in downs:
        for s in alg.all_teams():
            checked += 1
            if (alg.f(x) & ~s == 0) != (x & ~alg.downset(s) == 0):
                return SuiteResult(name, False, f"f -| downset at {x},{s}")
            if x & 1 and (alg.f_star(s) & ~x == 0) != (s & ~alg.f(x) == 0):
                return SuiteResult(name, False, f"f* -| f at {s},{x}")
    if alg.f_star(0) != 1:
        return SuiteResult(name, False, "f* at the empty team")
    return SuiteResult(name, True, f"{checked} pairs, both laws")


def _downset_properties_suite(ctx: Context) -> SuiteResult:
    alg = algebra.for_context(ctx)
    name = f"downset properties |V|={ctx.n_vars}"
    if alg.downset(0) != 1 or alg.downset(alg.full_team) != alg.full:
        return SuiteResult(name, False, "bottom/top images")
    teams_ = list(alg.all_teams())
    for s in teams_:
        x = alg.downset(s)
        if alg.f(x) != s or x & ~alg.down_closure(x):
            return SuiteResult(name, False, f"counit at {s}")
        for t in teams_:
            if alg.downset(s & t) != alg.downset(s) & alg.downset(t):
                return SuiteResult(name, False, f"downset misses intersection at {s},{t}")
            if alg.downset(alg.complement_team(s) | t) != alg.heyting(
                alg.downset(s), alg.downset(t)
            ):
                return SuiteResult(name, False, f"heyting image at {s},{t}")
            if s & ~t == 0 and alg.f_star(s) & ~alg.downset(t):
                return SuiteResult(name, False, f"f* bound at {s},{t}")
    downs = alg.all_downsets()
    for x in downs:
        if x & ~alg.downset(alg.f(x)):
            return SuiteResult(name, False, f"unit at {x}")
        for y in downs:
            if alg.f(x & y) != alg.f(x) & alg.f(y) or alg.f(x | y) != alg.f(x) | alg.f(y):
                return SuiteResult(name, False, f"f preservation at {x},{y}")
    for s in teams_:
        for t in teams_:
            if alg.f_star(s | t) != alg.f_star(s) | alg.f_star(t):
                return SuiteResult(name, False, f"f* join preservation at {s},{t}")
    return SuiteResult(name, True, f"{len(teams_)} teams, {len(downs)} down-sets")


def _kp_inclusion_suite(ctx: Context) -> SuiteResult:
    """heyting(dx, y | z) <= heyting(dx, y) | heyting(dx, z) for every
    principal dx = downset(f(x)) and down-sets x, y, z.  The law depends
    on x only through dx, so it runs once per distinct dx, reading a
    table of heyting(dx, .) over the down-sets; that still covers every
    principal triple."""
    alg = algebra.for_context(ctx)
    name = f"KP inclusion |V|={ctx.n_vars}"
    downs = alg.all_downsets()
    principal: dict[int, int] = {}  # dx -> the first x giving it
    for x in downs:
        principal.setdefault(alg.downset(alg.f(x)), x)
    for dx, x in principal.items():
        h = {y: alg.heyting(dx, y) for y in downs}
        for y in downs:
            hy = h[y]
            for z in downs:
                if h[y | z] & ~(hy | h[z]):
                    return SuiteResult(name, False, f"fails at {x},{y},{z}")
    distinct = len(principal) * len(downs) ** 2
    return SuiteResult(
        name, True, f"{distinct} distinct triples covering {len(downs) ** 3} principal triples"
    )


def _coimp_residuation_suite(ctx: Context) -> SuiteResult:
    alg = algebra.for_context(ctx)
    downs = alg.all_downsets()
    checked = 0
    for x in downs:
        for y in downs:
            c = alg.coimp(x, y)
            if not alg.is_downward_closed(c):
                return SuiteResult("coimp residuation", False, f"not closed at {x},{y}")
            for z in downs:
                checked += 1
                if (x & ~(y | z) == 0) != (c & ~z == 0):
                    return SuiteResult("coimp residuation", False, f"fails at {x},{y},{z}")
    return SuiteResult(f"coimp residuation |V|={ctx.n_vars}", True, f"{checked} triples")


def _rule_soundness_suite(ctx: Context) -> SuiteResult:
    failures = check_rule_table_soundness(ctx)
    if failures:
        return SuiteResult("rule-table soundness", False, str(failures[:2]))
    return SuiteResult("rule-table soundness |V|=1", True, "all schemas, both directions")


def _corpus_suite() -> SuiteResult:
    passed = 0
    for name in corpus.names():
        if not check_derivation(corpus.load(name)).ok:
            return SuiteResult("corpus replay", False, f"{name} fails to check")
        passed += 1
    for before_name, after_name in corpus.REDUCTION_PAIRS:
        before = corpus.load(before_name)
        after, report = reduce_all(before, fuel=1)
        if after != corpus.load(after_name):
            return SuiteResult("corpus replay", False, f"{before_name} reduces differently")
        if not multiset_decreased(cut_sizes(before), cut_sizes(after)):
            return SuiteResult("corpus replay", False, f"{before_name} complexity not reduced")
    lemma = len(corpus.LEMMA52) + len(corpus.APPENDIX)
    return SuiteResult("corpus replay", True, f"{passed} scripts, {lemma} lemma/appendix")


def _audit_suite(ctx: Context) -> SuiteResult:
    name = f"corpus audit |V|={ctx.n_vars}"
    scripts = corpus.LEMMA52 + corpus.APPENDIX
    nodes = assignments = sampled = 0
    for script in scripts:
        report = audit_soundness(corpus.load(script), ctx)
        if report.violations:
            return SuiteResult(name, False, f"{script}: {report.violations[0]}")
        if report.unchecked_nodes:
            return SuiteResult(name, False, f"{script}: {report.unchecked_nodes} nodes unchecked")
        nodes += report.nodes_checked
        assignments += report.assignments_checked
        sampled += report.sampled_nodes
    coverage = f"{sampled} nodes sampled" if sampled else "exhaustive"
    return SuiteResult(
        name,
        True,
        f"{len(scripts)} scripts, {nodes} nodes, {assignments} assignments, "
        f"{coverage}, no violations",
    )


def _population_suite() -> SuiteResult:
    ctx = Context.of("p,q")
    alg = algebra.for_context(ctx)
    pop = enumerate_inql(("p", "q"), 3)
    name = "population semantics"
    canon = alg.canonical_assignment()
    tables = set()
    for phi in pop:
        table = teams.support_table(ctx, phi)
        tables.add(table)
        if table & 1 == 0:
            return SuiteResult(name, False, f"empty team fails for {phi}")
        if alg.down_closure(table) != table:
            return SuiteResult(name, False, f"downward closure fails for {phi}")
        flat = teams.is_flat_table(ctx, table)
        fl = translate.flatten(phi)
        if not is_classical(fl):
            return SuiteResult(name, False, f"flatten not classical for {phi}")
        eq_flat = teams.support_table(ctx, fl) == table
        eq_nn = teams.support_table(ctx, inq_neg(inq_neg(phi))) == table
        if not (flat == eq_flat == eq_nn):
            return SuiteResult(name, False, f"flatness triple splits for {phi}")
        if is_classical(phi) and not flat:
            return SuiteResult(name, False, f"classical not flat: {phi}")
        if table != alg.denote_general(translate.tau_i(phi), canon):
            return SuiteResult(name, False, f"translation adequacy fails for {phi}")
    for tf in tables:
        for tg in tables:
            if tf | tg == alg.full and tf != alg.full and tg != alg.full:
                return SuiteResult(name, False, "disjunction property violated")
    return SuiteResult(name, True, f"{len(pop)} formulas, {len(tables)} distinct tables")


def _rand_flat(rng: random.Random, atoms: tuple, depth: int) -> FlatFormula:
    if depth == 0:
        return rng.choice(atoms)
    op = rng.choice((Cap, FImp))
    return op(_rand_flat(rng, atoms, depth - 1), _rand_flat(rng, atoms, rng.randrange(depth)))


def _rand_gen(rng: random.Random, atoms: tuple, depth: int) -> GeneralFormula:
    if depth == 0:
        return Down(_rand_flat(rng, atoms, 1))
    op = rng.choice((GAnd, GOr, GImp))
    return op(_rand_gen(rng, atoms, depth - 1), _rand_gen(rng, atoms, rng.randrange(depth)))


def _axiom_suite(samples: int = 1000, seed: int = 0) -> SuiteResult:
    ctx = Context.of("p,q")
    alg = algebra.for_context(ctx)
    rng = random.Random(seed)
    atoms = (FVar("p"), FVar("q"), FZERO)
    assignment = alg.canonical_assignment()
    count = 0
    while count < samples:
        al, be, ga = (_rand_flat(rng, atoms, 2) for _ in range(3))
        a, b, c = (_rand_gen(rng, atoms, 1) for _ in range(3))
        instances = [
            *translate.a1_instances(al, be, ga),
            *translate.a2_instances(a, b, c),
            translate.a3_instance(al, a, b),
            translate.a4_instance(al),
        ]
        for inst in instances:
            count += 1
            if isinstance(inst, FlatFormula):
                ok = translate.flat_denotes_top(alg, inst, assignment)
            else:
                ok = translate.general_denotes_top(alg, inst, assignment)
            if not ok:
                return SuiteResult("multi-type axioms", False, f"instance fails: {inst}")
        if not translate.flat_mp_preserves_top(alg, al, be, assignment):
            return SuiteResult("multi-type axioms", False, "Flat MP fails")
        if not translate.general_mp_preserves_top(alg, a, b, assignment):
            return SuiteResult("multi-type axioms", False, "General MP fails")
    return SuiteResult("multi-type axioms", True, f"{count} instantiations at |V|=2")


def _reduction_suite(seed: int = 0) -> SuiteResult:
    rng = random.Random(seed)
    atoms = (FVar("p"), FVar("q"), FVar("r"), FZERO)
    for i in range(100):
        formula = _rand_flat(rng, atoms, 2) if i % 2 else _rand_gen(rng, atoms, 1)
        before = principal_cut_example(formula)
        after, report = reduce_all(before, fuel=1)
        if not report.steps:
            return SuiteResult("cut reductions", False, f"no step on {formula}")
        if after.conclusion != before.conclusion:
            return SuiteResult("cut reductions", False, f"endsequent moved on {formula}")
        if not check_derivation(after).ok:
            return SuiteResult("cut reductions", False, f"output fails to check on {formula}")
        if not multiset_decreased(cut_sizes(before), cut_sizes(after)):
            return SuiteResult("cut reductions", False, f"complexity not reduced on {formula}")
    return SuiteResult("cut reductions", True, "100 randomized principal cuts")


def run(level: str = "fast") -> list[SuiteResult]:
    v1 = Context.of("p")
    suites = [
        lambda: _adjunction_suite(v1),
        lambda: _downset_properties_suite(v1),
        lambda: _kp_inclusion_suite(v1),
        lambda: _coimp_residuation_suite(v1),
        lambda: _rule_soundness_suite(v1),
        _corpus_suite,
        lambda: _audit_suite(v1),
    ]
    if level == "full":
        v2 = Context.of("p,q")
        suites += [
            lambda: _adjunction_suite(v2),
            lambda: _downset_properties_suite(v2),
            lambda: _kp_inclusion_suite(v2),
            lambda: _audit_suite(v2),
            _population_suite,
            _axiom_suite,
            _reduction_suite,
        ]
    results = []
    for suite in suites:
        start = time.perf_counter()
        result = suite()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results

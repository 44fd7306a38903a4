"""Built-in verification suites behind the selftest CLI command.

The fast level runs the exhaustive one-variable algebra suites, the
denotation-level rule-table soundness check, and a full corpus replay.
The full level adds the two-variable exhaustive algebra suites, the
corpus audit, the bounded formula-population suites (semantics,
flatness, translation adequacy, disjunction property, multi-type
axioms) and principal cut reductions on enumerated cut formulas.  Every
result says what its suite covered, in a detail that is the same on
every run, and how long the suite took.

The population suite checks every law on each of its 2,703 formulas
but computes each distinct value once.  It reads the formulas from
formulas.iter_inql, in enumerate_inql's order, without holding them all.
Every part of a formula is one of the 30 formulas of height at most 2,
and only those keep their support tables, flattenings, tau_i images and
classicality.  A formula's own values are then one node step over its
parts': teams.table_step, translate._flatten_step and translate._image.
The laws that read only a support table (the empty team, downward
closure, flatness, the table of the double negation) run once per
distinct table.  The tau_i images are compiled a chunk at a time into
one denote program each.  The multi-type axiom suite compiles each draw
into one program, and the down-set laws read downset, f and f* from
tables.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from itertools import islice

from . import algebra, corpus, teams, translate
from .calculus import audit_soundness, check_derivation, check_rule_table_soundness
from .contexts import Context
from .cutelim import cut_sizes, multiset_decreased, reduce_all
from .denote import ANT, Compiler, Machine, bind
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
    IOr,
    enumerate_inql,
    inq_neg,
    iter_inql,
    iter_terms,
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
        for s in alg.ctx.teams():
            checked += 1
            if (alg.f(x) & ~s == 0) != (x & ~alg.downset(s) == 0):
                return SuiteResult(name, False, f"f -| downset at {x},{s}")
            if x & 1 and (alg.f_star(s) & ~x == 0) != (s & ~alg.f(x) == 0):
                return SuiteResult(name, False, f"f* -| f at {s},{x}")
    if alg.f_star(0) != 1:
        return SuiteResult(name, False, "f* at the empty team")
    return SuiteResult(name, True, f"{checked} pairs, both laws")


def _downset_properties_suite(ctx: Context) -> SuiteResult:
    """The laws of downset, f and f*, each value computed once: downset
    and f* over the teams, f over the down-sets.  Teams are closed under
    &, | and complement, and down-sets under & and |, so every value read
    is in its table."""
    alg = algebra.for_context(ctx)
    name = f"downset properties |V|={ctx.n_vars}"
    teams_ = alg.ctx.teams()
    downs = alg.all_downsets()
    down = {s: alg.downset(s) for s in teams_}
    star = {s: alg.f_star(s) for s in teams_}
    f = {x: alg.f(x) for x in downs}
    if down[0] != 1 or down[alg.full_team] != alg.full:
        return SuiteResult(name, False, "bottom/top images")
    for s in teams_:
        x = down[s]
        if f[x] != s or x & ~alg.down_closure(x):
            return SuiteResult(name, False, f"counit at {s}")
        for t in teams_:
            if down[s & t] != x & down[t]:
                return SuiteResult(name, False, f"downset misses intersection at {s},{t}")
            if down[alg.complement_team(s) | t] != alg.heyting(x, down[t]):
                return SuiteResult(name, False, f"heyting image at {s},{t}")
            if s & ~t == 0 and star[s] & ~down[t]:
                return SuiteResult(name, False, f"f* bound at {s},{t}")
    for x in downs:
        fx = f[x]
        if x & ~down[fx]:
            return SuiteResult(name, False, f"unit at {x}")
        for y in downs:
            if f[x & y] != fx & f[y] or f[x | y] != fx | f[y]:
                return SuiteResult(name, False, f"f preservation at {x},{y}")
    for s in teams_:
        for t in teams_:
            if star[s | t] != star[s] | star[t]:
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
    name = f"coimp residuation |V|={ctx.n_vars}"
    downs = alg.all_downsets()
    checked = 0
    for x in downs:
        for y in downs:
            c = alg.coimp(x, y)
            if not alg.is_downward_closed(c):
                return SuiteResult(name, False, f"not closed at {x},{y}")
            for z in downs:
                checked += 1
                if (x & ~(y | z) == 0) != (c & ~z == 0):
                    return SuiteResult(name, False, f"fails at {x},{y},{z}")
    return SuiteResult(name, True, f"{checked} triples")


def _rule_soundness_suite(ctx: Context) -> SuiteResult:
    name = f"rule-table soundness |V|={ctx.n_vars}"
    failures = check_rule_table_soundness(ctx)
    if failures:
        return SuiteResult(name, False, str(failures[:2]))
    return SuiteResult(name, True, "all schemas, both directions")


def _corpus_suite() -> SuiteResult:
    name = "corpus replay"
    passed = 0
    for script in corpus.names():
        if not check_derivation(corpus.load(script)).ok:
            return SuiteResult(name, False, f"{script} fails to check")
        passed += 1
    for before_name, after_name in corpus.REDUCTION_PAIRS:
        before = corpus.load(before_name)
        after, report = reduce_all(before, fuel=1)
        if after != corpus.load(after_name):
            return SuiteResult(name, False, f"{before_name} reduces differently")
        if not multiset_decreased(cut_sizes(before), cut_sizes(after)):
            return SuiteResult(name, False, f"{before_name} complexity not reduced")
    lemma = len(corpus.LEMMA52) + len(corpus.APPENDIX)
    return SuiteResult(name, True, f"{passed} scripts, {lemma} lemma/appendix")


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


class _Values(dict):
    """Values of terms under a node step: a value stored is read back;
    any other term's is computed from its parts' each time it is read."""

    def __init__(self, step):
        super().__init__()
        self.step = step

    def __missing__(self, t):
        return self.step(t, self)


def _classical_step(t, done) -> bool:
    return type(t) is not IOr and all(done[k] for k in t.parts)


_CHUNK = 256  # tau_i images per compiled program


def _population_suite() -> SuiteResult:
    ctx = Context.of("p,q")
    alg = algebra.for_context(ctx)
    name = "population semantics"
    variables, height = ("p", "q"), 3
    parts = frozenset(enumerate_inql(variables, height - 1))
    # kept for the parts only, tables and classicality also for their flattenings
    tables = _Values(teams.table_step(alg))
    classical = _Values(_classical_step)
    flats: dict = {}
    images: dict = {}  # values of translate._image
    # per distinct table, once its down-set laws hold: whether it is
    # flat, and whether a double negation keeps it
    by_table: dict = {}
    canon = alg.canonical_assignment()
    machine = Machine(alg)
    compiler = Compiler(alg.full_team)
    pending: list = []  # (formula, table) per root of compiler
    count = 0

    def adequacy_failure() -> SuiteResult | None:
        """Runs the pending images; the first formula whose image does
        not denote its table fails."""
        nonlocal compiler
        if not pending:
            return None
        prog = compiler.program()
        s = machine.slots(prog, bind(prog, canon))
        bad = next((phi for (phi, t), r in zip(pending, prog.results) if s[r] != t), None)
        pending.clear()
        compiler = Compiler(alg.full_team)
        if bad is None:
            return None
        return SuiteResult(name, False, f"translation adequacy fails for {bad}")

    def failure(detail: str) -> SuiteResult:
        """The current formula fails, unless an earlier one's adequacy does."""
        return adequacy_failure() or SuiteResult(name, False, detail)

    for phi in iter_inql(variables, height):
        count += 1
        table = tables[phi]
        known = by_table.get(table)
        if known is None:
            if table & 1 == 0:
                return failure(f"empty team fails for {phi}")
            if alg.down_closure(table) != table:
                return failure(f"downward closure fails for {phi}")
            nn = tables[inq_neg(inq_neg(phi))]
            known = by_table[table] = (teams.is_flat_table(ctx, table), nn == table)
        flat, eq_nn = known
        fl = translate._flatten_step(phi, flats)
        if not classical[fl]:
            return failure(f"flatten not classical for {phi}")
        fl_table = tables[fl]
        if not (flat == (fl_table == table) == eq_nn):
            return failure(f"flatness triple splits for {phi}")
        phi_classical = classical[phi]
        if phi_classical and not flat:
            return failure(f"classical not flat: {phi}")
        image = translate._image(phi, images)
        compiler.add_term(Down(image) if isinstance(image, FlatFormula) else image, ANT)
        pending.append((phi, table))
        if len(pending) == _CHUNK:
            bad = adequacy_failure()
            if bad:
                return bad
        if phi in parts:
            tables[phi], tables[fl] = table, fl_table
            classical[phi], classical[fl] = phi_classical, True
            flats[phi], images[phi] = fl, image
    bad = adequacy_failure()
    if bad:
        return bad
    for tf in by_table:
        for tg in by_table:
            if tf | tg == alg.full and tf != alg.full and tg != alg.full:
                return SuiteResult(name, False, "disjunction property violated")
    return SuiteResult(name, True, f"{count} formulas, {len(by_table)} distinct tables")


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
    """A1-A4 and modus ponens in both sorts on random draws, each draw
    compiled into one program: its instances, then the terms of the two
    modus-ponens checks."""
    ctx = Context.of("p,q")
    alg = algebra.for_context(ctx)
    name = "multi-type axioms"
    rng = random.Random(seed)
    atoms = (FVar("p"), FVar("q"), FZERO)
    assignment = alg.canonical_assignment()
    machine = Machine(alg)
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
        terms = (*instances, FImp(al, be), al, be, GImp(a, b), a, b)
        compiler = Compiler(alg.full_team)
        for term in terms:
            compiler.add_term(term, ANT)
        prog = compiler.program()
        s = machine.slots(prog, bind(prog, assignment))
        # per term: whether it denotes the top of its sort
        top = [
            s[r] == (alg.full_team if isinstance(t, FlatFormula) else alg.full)
            for t, r in zip(terms, prog.results)
        ]
        for inst, ok in zip(instances, top):
            count += 1
            if not ok:
                return SuiteResult(name, False, f"instance fails: {inst}")
        # modus ponens: the implication, its premise, its conclusion
        imp, prem, concl = top[-6:-3]
        if imp and prem and not concl:
            return SuiteResult(name, False, "Flat MP fails")
        imp, prem, concl = top[-3:]
        if imp and prem and not concl:
            return SuiteResult(name, False, "General MP fails")
    return SuiteResult(name, True, f"{count} instantiations at |V|=2")


_CUTS = "Flat height <= 2 over p, q, 0, dn of each, and /\\, \\/, => over dn(p), dn(q), dn(0)"


def _reduction_suite(formulas: tuple | None = None, covers: str = _CUTS) -> SuiteResult:
    """Reduces the principal cut on each formula and checks the output;
    covers names the formulas.  By default they are those of _CUTS, every
    connective of both sorts over operands of height 0 or 1."""
    if formulas is None:
        flat = tuple(iter_terms((FVar("p"), FVar("q"), FZERO), (Cap, FImp), 2))
        down = tuple(Down(alpha) for alpha in flat)
        formulas = (*flat, *down, *islice(iter_terms(down[:3], (GAnd, GOr, GImp), 2), 3, None))
    name = "cut reductions"
    for formula in formulas:
        before = principal_cut_example(formula)
        after, report = reduce_all(before, fuel=1)
        if not report.steps:
            return SuiteResult(name, False, f"no step on {formula}")
        if after.conclusion != before.conclusion:
            return SuiteResult(name, False, f"endsequent moved on {formula}")
        if not check_derivation(after).ok:
            return SuiteResult(name, False, f"output fails to check on {formula}")
        if not multiset_decreased(cut_sizes(before), cut_sizes(after)):
            return SuiteResult(name, False, f"complexity not reduced on {formula}")
    return SuiteResult(name, True, f"{len(formulas)} principal cuts on {covers}")


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

"""Built-in verification suites behind the selftest CLI command.

The fast level runs the exhaustive one-variable algebra suites, the
denotation-level rule-table soundness check, and a full corpus replay.
The full level adds the two-variable exhaustive algebra suites but coimp
residuation (4.7 million triples), the corpus audit, the bounded
formula-population suites (semantics, flatness, translation adequacy,
disjunction property, multi-type axioms) and principal cut reductions on
enumerated cut formulas.  Every result says what its suite covered, in a
detail that is the same on every run, and how long the suite took.  The
algebra suites are the rows of one law table (_laws), run by one loop
(_check_laws); the tests run the whole table at one and two variables.

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
one denote program each, and each multi-type axiom draw into one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice, product

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


def _laws(ctx: Context) -> tuple:
    """The laws of f* -| f -| downset, heyting and coimp at ctx, one row
    each: (suite, name, domains, check).  A domain is a function, so the
    down-sets and the tables over them are built only for a law that reads
    them, and the laws over teams alone also run at three variables.
    check takes a value of each domain but the last, then the last, and
    yields its values at which the law fails.  f* -| f needs the empty
    team in x, as f* always adds it.  KP is quantified over the principal
    down-sets downset(s), which by the counit are all the downset(f(x))."""
    alg = algebra.for_context(ctx)
    full, closed, heyting, coimp = alg.full, alg.is_downward_closed, alg.heyting, alg.coimp
    down = {s: alg.downset(s) for s in ctx.teams()}
    star = {s: alg.f_star(s) for s in ctx.teams()}
    f, h = {}, {}  # f over the down-sets, heyting(downset(s), .) over them per team s

    def downs():
        if not f:
            f.update((x, alg.f(x)) for x in alg.all_downsets())
        return alg.all_downsets()

    def f_preservation(x, ys):
        fx = f[x]
        return (y for y in ys if f[x & y] != fx & f[y] or f[x | y] != fx | f[y])

    def kp(s, y, zs):
        hs = h[s] if s in h else h.setdefault(s, {w: heyting(down[s], w) for w in zs})
        hy = hs[y]
        return (z for z in zs if hs[y | z] & ~(hy | hs[z]))

    def residuation(x, y, zs):
        c, d = coimp(x, y), x & ~y  # x <= y | z exactly when d <= z
        return (z for z in zs if (d & ~z == 0) != (c & ~z == 0))

    T, D = (ctx.teams,), (downs,)
    adj, props, co = "adjunction", "downset properties", "coimp residuation"
    return (
        (adj, "f -| downset", D + T,
         lambda x, ss: (s for s in ss if (f[x] & ~s == 0) != (x & ~down[s] == 0))),
        (adj, "f* -| f", D + T,
         lambda x, ss: (s for s in ss if x & 1 and (star[s] & ~x == 0) != (s & ~f[x] == 0))),
        (props, "bottom/top images", T, lambda ss: (s for s in ss if (down[s] == 1) != (s == 0)
         or (down[s] == full) != (s == alg.full_team) or s == 0 and star[s] != 1)),
        (props, "counit", T, lambda ss: (s for s in ss if alg.f(down[s]) != s)),
        (props, "downset and f* closed", T,
         lambda ss: (s for s in ss if not closed(down[s]) or not closed(star[s]))),
        (props, "downset of a meet", T + T,
         lambda s, ts: (t for t in ts if down[s & t] != down[s] & down[t])),
        (props, "heyting image", T + T, lambda s, ts: (
            t for t in ts if down[alg.complement_team(s) | t] != heyting(down[s], down[t]))),
        (props, "f* bound", T + T,
         lambda s, ts: (t for t in ts if s & ~t == 0 and star[s] & ~down[t])),
        (props, "f* join preservation", T + T,
         lambda s, ts: (t for t in ts if star[s | t] != star[s] | star[t])),
        (props, "unit", D, lambda xs: (x for x in xs if x & ~down[f[x]])),
        (props, "f preservation", D + D, f_preservation),
        ("KP inclusion", "KP inclusion", T + D + D, kp),
        (co, "heyting and coimp units", D, lambda xs: (x for x in xs if heyting(x, full) != full
         or x & 1 and heyting(1, x) != full or coimp(x, 0) != x or coimp(x, x))),
        (co, "heyting, coimp, & and | closed", D + D, lambda x, ys: (y for y in ys if not (
            closed(heyting(x, y)) and closed(coimp(x, y)) and closed(x & y) and closed(x | y)))),
        (co, "coimp residuation", D + D + D, residuation),
    )


def _check_laws(laws) -> tuple[str | None, dict[str, int]]:
    """Runs each law over the product of its domains: the first failing tuple
    ends the run as '<law> at <tuple>'; else each law's count of tuples checked."""
    counts: dict[str, int] = {}
    for _, law, domains, check in laws:
        *outer, last = (domain() for domain in domains)
        counts[law] = 0
        for xs in product(*outer):
            for bad in check(*xs, last):
                return f"{law} at {','.join(map(str, (*xs, bad)))}", counts
            counts[law] += len(last)
    return None, counts


def _law_suite(ctx: Context, suite: str) -> SuiteResult:
    failure, n = _check_laws(law for law in _laws(ctx) if law[0] == suite)
    d = len(algebra.for_context(ctx).all_downsets())
    detail = failure or {
        "adjunction": lambda: f"{n['f -| downset']} pairs, both laws",
        "downset properties": lambda: f"{ctx.n_teams} teams, {d} down-sets",
        "KP inclusion": lambda: f"{n[suite]} distinct triples covering {d ** 3} principal triples",
        "coimp residuation": lambda: f"{n[suite]} triples",
    }[suite]()
    return SuiteResult(f"{suite} |V|={ctx.n_vars}", not failure, detail)


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
    """A1-A4 and modus ponens in both sorts, each draw compiled into one
    program: its instances, then the terms of the two modus-ponens checks.
    The first three draws put p, q and 0, and their dn, in every place;
    the rest are random, and none of those is an atom or its dn."""
    ctx = Context.of("p,q")
    alg = algebra.for_context(ctx)
    name = "multi-type axioms"
    rng = random.Random(seed)
    atoms = (FVar("p"), FVar("q"), FZERO)
    fixed = [(atoms[i:] + atoms[:i], tuple(map(Down, atoms[i:] + atoms[:i]))) for i in range(3)]
    assignment = alg.canonical_assignment()
    machine = Machine(alg)
    count = 0
    while count < samples:
        (al, be, ga), (a, b, c) = fixed.pop(0) if fixed else (
            [_rand_flat(rng, atoms, 2) for _ in range(3)],
            [_rand_gen(rng, atoms, 1) for _ in range(3)],
        )
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
    laws = ("adjunction", "downset properties", "KP inclusion")
    suites = [
        *(partial(_law_suite, v1, suite) for suite in (*laws, "coimp residuation")),
        lambda: _rule_soundness_suite(v1),
        _corpus_suite,
        lambda: _audit_suite(v1),
    ]
    if level == "full":
        v2 = Context.of("p,q")
        suites += [
            *(partial(_law_suite, v2, suite) for suite in laws),
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

"""Built-in verification suites behind the selftest CLI command.

The fast level runs the exhaustive one-variable algebra suites, the
denotation-level rule-table soundness check, and a full corpus replay.
The full level adds the two-variable exhaustive algebra suites but coimp
residuation (4.7 million triples), the corpus audit, the bounded
formula-population suites (semantics, flatness, translation adequacy,
disjunction property), the multi-type axioms and principal cut
reductions on enumerated cut formulas; no suite draws at random.  Every
result says what its suite covered, in a detail that is the same on
every run, and how long the suite took.  The algebra suites are the rows
of one law table (_laws), run by one loop (_check_laws); the tests run
the whole table at one and two variables.  KP inclusion packs its teams
into the bit lanes of one value, so each pair of down-sets is checked
for every team at once.  The axioms are schemas (_axioms), searched as
the rule table is (calculus.search_schemas).  The corpus suites read
each script once a run.

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
one denote program each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import islice, product

from . import algebra, corpus, teams, translate
from . import metavars as mv
from .calculus import audit_soundness, check_derivation, check_rule_table_soundness, search_schemas
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
    GImp,
    GOr,
    IOr,
    enumerate_inql,
    inq_neg,
    iter_inql,
    iter_terms,
)
from .rules import RuleSchema
from .structures import PHI, DownOf, FlatFml, GenFml, Sequent


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
    down-sets downset(s), which by the counit are all the downset(f(x)).
    Its teams s are the lanes of one _Lanes value: h[w] holds
    heyting(downset(s), w) in lane s, n_teams bits a lane, so
    h[y | z] & ~(h[y] | h[z]) checks a pair y, z for every s at once;
    &, | and ~ never carry between lanes."""
    alg = algebra.for_context(ctx)
    full, closed, heyting, coimp = alg.full, alg.is_downward_closed, alg.heyting, alg.coimp
    down = {s: alg.downset(s) for s in ctx.teams()}
    star = {s: alg.f_star(s) for s in ctx.teams()}
    width = ctx.n_teams
    f, h = {}, {}  # f over the down-sets, heyting(downset(s), .) over them in lanes

    def downs():
        if not f:
            f.update((x, alg.f(x)) for x in alg.all_downsets())
        return alg.all_downsets()

    def f_preservation(x, ys):
        fx = f[x]
        return (y for y in ys if f[x & y] != fx & f[y] or f[x | y] != fx | f[y])

    def negation(x, ts):
        nx = heyting(x, 1)
        return (t for t in ts if (nx >> t & 1) != (down[t] & x & ~1 == 0))

    def kp(lanes, y, zs):
        if not h:
            h.update((w, sum(heyting(down[s], w) << i * width for i, s in enumerate(lanes)))
                     for w in zs)
        hy = h[y]
        return ((lanes[((bad & -bad).bit_length() - 1) // width], z)
                for z in zs if (bad := h[y | z] & ~(hy | h[z])))

    def residuation(x, y, zs):
        c, d = coimp(x, y), x & ~y  # x <= y | z exactly when d <= z
        return (z for z in zs if (d & ~z == 0) != (c & ~z == 0))

    T, D, L = (ctx.teams,), (downs,), (lambda: (_Lanes(ctx.teams()),),)
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
        (props, "negation", D + T, negation),
        (props, "f* bound", T + T,
         lambda s, ts: (t for t in ts if s & ~t == 0 and star[s] & ~down[t])),
        (props, "f* join preservation", T + T,
         lambda s, ts: (t for t in ts if star[s | t] != star[s] | star[t])),
        (props, "unit", D, lambda xs: (x for x in xs if x & ~down[f[x]])),
        (props, "f preservation", D + D, f_preservation),
        ("KP inclusion", "KP inclusion", L + D + D, kp),
        (co, "heyting and coimp units", D, lambda xs: (x for x in xs if heyting(x, full) != full
         or x & 1 and heyting(1, x) != full or coimp(x, 0) != x or coimp(x, x))),
        (co, "heyting, coimp, & and | closed", D + D, lambda x, ys: (y for y in ys if not (
            closed(heyting(x, y)) and closed(coimp(x, y)) and closed(x & y) and closed(x | y)))),
        (co, "coimp residuation", D + D + D, residuation),
    )


class _Lanes(tuple):
    """The values of a domain that a check reads all at once, as bit lanes."""


def _check_laws(laws) -> tuple[str | None, dict[str, int]]:
    """Runs each law over the product of its domains: the first failing tuple
    ends the run as '<law> at <tuple>'; else each law's count of tuples checked.
    A first value that is _Lanes stands for each of its lanes: the check
    yields (lane, last value) at a failure, and each lane counts."""
    counts: dict[str, int] = {}
    for _, law, domains, check in laws:
        *outer, last = (domain() for domain in domains)
        counts[law] = 0
        for xs in product(*outer):
            lanes = xs[0] if xs and type(xs[0]) is _Lanes else None
            for bad in check(*xs, last):
                if lanes is not None:
                    xs, bad = (bad[0], *xs[1:]), bad[1]
                return f"{law} at {','.join(map(str, (*xs, bad)))}", counts
            counts[law] += len(last) * (1 if lanes is None else len(lanes))
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


def _corpus_suite(load) -> SuiteResult:
    """Checks every corpus script and replays the reduction pairs; load
    reads a script by name."""
    name = "corpus replay"
    passed = 0
    for script in corpus.names():
        if not check_derivation(load(script)).ok:
            return SuiteResult(name, False, f"{script} fails to check")
        passed += 1
    for before_name, after_name in corpus.REDUCTION_PAIRS:
        before = load(before_name)
        after, report = reduce_all(before, fuel=1)
        if after != load(after_name):
            return SuiteResult(name, False, f"{before_name} reduces differently")
        if not multiset_decreased(cut_sizes(before), cut_sizes(after)):
            return SuiteResult(name, False, f"{before_name} complexity not reduced")
    lemma = len(corpus.LEMMA52) + len(corpus.APPENDIX)
    return SuiteResult(name, True, f"{passed} scripts, {lemma} lemma/appendix")


def _audit_suite(ctx: Context, load) -> SuiteResult:
    name = f"corpus audit |V|={ctx.n_vars}"
    scripts = corpus.LEMMA52 + corpus.APPENDIX
    nodes = assignments = sampled = 0
    for script in scripts:
        report = audit_soundness(load(script), ctx)
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


def _axioms(A, B, C) -> tuple[RuleSchema, ...]:
    """A1-A4 over the Flat letters a, b, c and the General letters given,
    each as a schema with no premises that concludes Ph |- alpha or
    Dn(Ph) |- A, and modus ponens in each sort.  A3 takes c for its Flat
    letter, so its three letters stay apart when A, B are dn(a), dn(b)."""
    a, b, c = map(mv.FMetaF, "abc")

    def top(t):  # the sequent saying that t denotes the top of its sort
        flat = isinstance(t, FlatFormula)
        return Sequent(PHI if flat else DownOf(PHI), FlatFml(t) if flat else GenFml(t))

    axioms = {
        "A1": translate.a1_instances(a, b, c),
        "A2": translate.a2_instances(A, B, C),
        "A3": [translate.a3_instance(c, A, B)],
        "A4": [translate.a4_instance(a)],
    }
    return (
        *(RuleSchema(n, f"{n}.{k}", (), top(t)) for n, ts in axioms.items()
          for k, t in enumerate(ts, 1)),
        *(RuleSchema("MP", f"MP({sort})", (top(imp(x, y)), top(x)), top(y))
          for sort, imp, x, y in (("Flat", FImp, a, b), ("Gen", GImp, A, B))),
    )


def _axiom_suite() -> SuiteResult:
    """The schemas of _axioms over every valuation of their letters: at
    |V|=1 with A, B, C General metavariables, over the down-sets that
    hold the empty team (_meta_domains), and at |V|=2 with A, B, C =
    dn(a), dn(b), dn(c), over the principal down-sets."""
    name = "multi-type axioms"
    counts = []
    for ctx, letters in (
        (Context.of("p"), map(mv.FMetaG, "ABC")),
        (Context.of("p,q"), (Down(mv.FMetaF(x)) for x in "abc")),
    ):
        table = _axioms(*letters)
        found = search_schemas(table, ctx)
        for schema, (_, witness) in zip(table, found):
            if witness is not None:
                return SuiteResult(name, False, f"{schema.variant} at |V|={ctx.n_vars}: {witness}")
        counts.append(sum(n for n, _ in found))
    return SuiteResult(
        name,
        True,
        f"{len(table)} schemas (A1-A4, modus ponens in both sorts), every valuation: "
        f"{counts[0]} at |V|=1 with A, B, C over the down-sets holding the empty team, "
        f"{counts[1]} at |V|=2 with A, B, C = dn(a), dn(b), dn(c)",
    )


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
    load = cache(corpus.load)  # each script is read once a run, by the first suite reading it
    suites = [
        *(partial(_law_suite, v1, suite) for suite in (*laws, "coimp residuation")),
        lambda: _rule_soundness_suite(v1),
        lambda: _corpus_suite(load),
        lambda: _audit_suite(v1, load),
    ]
    if level == "full":
        v2 = Context.of("p,q")
        suites += [
            *(partial(_law_suite, v2, suite) for suite in laws),
            lambda: _audit_suite(v2, load),
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

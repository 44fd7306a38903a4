"""Acceptance gate: one test per criterion, one printed line each.

The semantic criteria run over the full bounded formula population
(height up to three over two variables, 2703 formulas).  Team tables are
computed by a definitional oracle local to this module: the support
clauses run literally, the implication clause enumerating subteams.
Quantifier-heavy axiom criteria work over the distinct support tables
realized by the population; instance tables are composed from component
tables, which is exact because every connective is table-compositional
(the oracle below is built that way), and a random spot-check re-verifies
the quotient against whole-formula evaluation.
"""

import random
import time
from itertools import product

import pytest

from inqmt import algebra, corpus, selftest, teams, translate
from inqmt.calculus import (
    audit_soundness,
    check_derivation,
    check_rule_table_soundness,
    schema_soundness_counterexample,
)
from inqmt.contexts import Context, subteams
from inqmt.cutelim import (
    cut_sizes,
    find_principal_cuts,
    multiset_decreased,
    reduce_principal_cut,
)
from inqmt.derivations import principal_cut_example
from inqmt.formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    FZero,
    GAnd,
    GImp,
    GOr,
    IImp,
    IOr,
    IVar,
    IZERO,
    enumerate_inql,
    inq_neg,
    is_classical,
    iter_terms,
)
from inqmt.rules import rule_table
from inqmt.structures import FlatFml, Sequent
from inqmt import metavars as mv

from helpers import axiom2_shape, axiom3_shape

P1 = Context.of("p")
P2 = Context.of("p,q")
A1 = algebra.for_context(P1)
A2 = algebra.for_context(P2)
POPULATION = enumerate_inql(("p", "q"), 3)


def definitional_table(ctx, phi):
    """Support over every team, straight from the clauses."""
    memo = {}

    def run(f, s):
        key = (f, s)
        if key not in memo:
            if isinstance(f, IVar):
                out = s & ~ctx.var_team(f.name) == 0
            elif f == IZERO:
                out = s == 0
            elif isinstance(f, IImp):
                out = all(not run(f.left, t) or run(f.right, t) for t in subteams(s))
            elif isinstance(f, IOr):
                out = run(f.left, s) or run(f.right, s)
            else:
                out = run(f.left, s) and run(f.right, s)
            memo[key] = out
        return memo[key]

    mask = 0
    for s in ctx.teams():
        if run(phi, s):
            mask |= 1 << s
    return mask


@pytest.fixture(scope="module")
def oracle_tables():
    return {phi: definitional_table(P2, phi) for phi in POPULATION}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_semantics_suite():
    start = time.time()
    violations = 0
    oracle_tables = {phi: definitional_table(P2, phi) for phi in POPULATION}
    for phi, table in oracle_tables.items():
        if table & 1 == 0:
            violations += 1
        for s in P2.teams():
            if (table >> s) & 1:
                for t in subteams(s):
                    if not (table >> t) & 1:
                        violations += 1
        # dual-route check: the mask evaluator agrees with the clauses
        if teams.support_table(P2, phi) != table:
            violations += 1
    elapsed = time.time() - start
    report(
        1,
        "semantics suite",
        violations == 0 and elapsed < 60,
        f"{len(oracle_tables)} formulas, downward closure + empty team, "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_flatness_suite(oracle_tables):
    violations = 0
    for phi, table in oracle_tables.items():
        flat = teams.is_flat_semantic(P2, phi)
        eq_flattening = definitional_table(P2, translate.flatten(phi)) == table
        eq_double_neg = definitional_table(P2, inq_neg(inq_neg(phi))) == table
        if not (flat == eq_flattening == eq_double_neg):
            violations += 1
        if is_classical(phi) and not flat:
            violations += 1
    report(2, "flatness suite", violations == 0, f"triple equivalence on {len(oracle_tables)} formulas, {violations} violations")


def test_criterion_3_hilbert_validation(oracle_tables):
    tables = sorted(set(oracle_tables.values()))
    classical_tables = sorted({t for phi, t in oracle_tables.items() if is_classical(phi)})
    full = A2.full

    def axiom2_table(tc, tf, tg):
        return A2.heyting(A2.heyting(tc, tf | tg), A2.heyting(tc, tf) | A2.heyting(tc, tg))

    bad = 0
    for tc in classical_tables:
        for tf in tables:
            for tg in tables:
                if axiom2_table(tc, tf, tg) != full:
                    bad += 1
    for tc in classical_tables:
        if A2.heyting(A2.heyting(A2.heyting(tc, 1), 1), tc) != full:
            bad += 1
    # quotient spot-check against whole-formula evaluation
    rng = random.Random(40)
    classical_pop = [phi for phi in POPULATION if is_classical(phi)]
    for _ in range(50):
        chi = rng.choice(classical_pop)
        phi, psi = rng.choice(POPULATION), rng.choice(POPULATION)
        direct = teams.valid(P2, axiom2_shape(chi, phi, psi))
        via_tables = (
            axiom2_table(oracle_tables[chi], oracle_tables[phi], oracle_tables[psi]) == full
        )
        if direct != via_tables:
            bad += 1

    witness = None
    for chi in POPULATION:
        if is_classical(chi):
            continue
        inst_table = teams.support_table(P2, axiom3_shape(chi))
        if inst_table != full:
            missing = next(s for s in P2.teams() if not (inst_table >> s) & 1)
            witness = (chi, P2.team_to_spec(missing))
            break
    print(f"  axiom 3 fails for non-classical {witness[0]} at team {witness[1]}")

    axioms = selftest._axiom_suite()
    report(
        3,
        "Hilbert validation",
        bad == 0 and witness is not None and axioms.ok,
        f"axioms 2+3 over {len(classical_tables)}x{len(tables)}^2 realized tables, "
        f"witness {witness[1]}, multi-type axioms as {axioms.detail}",
    )


def test_criterion_4_algebra_suite():
    start = time.time()
    ok = True
    downs = A2.all_downsets()
    teams_ = list(A2.ctx.teams())
    assert len(teams_) == 16 and len(downs) == 168
    for x in downs:
        ok &= x & ~A2.downset(A2.f(x)) == 0
        for s in teams_:
            ok &= (A2.f(x) & ~s == 0) == (x & ~A2.downset(s) == 0)
            if x & 1:
                ok &= (A2.f_star(s) & ~x == 0) == (s & ~A2.f(x) == 0)
        for y in downs:
            ok &= A2.f(x & y) == A2.f(x) & A2.f(y)
            ok &= A2.f(x | y) == A2.f(x) | A2.f(y)
    ok &= A2.downset(0) == 1 and A2.downset(A2.full_team) == A2.full
    for s in teams_:
        for t in teams_:
            ok &= A2.downset(s & t) == A2.downset(s) & A2.downset(t)
            ok &= A2.downset(A2.complement_team(s) | t) == A2.heyting(
                A2.downset(s), A2.downset(t)
            )
            ok &= A2.f_star(s | t) == A2.f_star(s) | A2.f_star(t)
            if s & ~t == 0:
                ok &= A2.f_star(s) & ~A2.downset(t) == 0

    kp_count = 0
    downs1 = A1.all_downsets()
    for x, y, z in product(downs1, repeat=3):
        dx = A1.downset(A1.f(x))
        ok &= A1.heyting(dx, y | z) & ~(A1.heyting(dx, y) | A1.heyting(dx, z)) == 0
        kp_count += 1
    # KP at two variables, exhaustively: the law depends on x only through
    # dx = downset(f(x)), so each distinct dx is checked once against every
    # y, z, reading a table of heyting(dx, .)
    principal = {A2.downset(A2.f(x)) for x in downs}
    kp2_distinct = 0
    for dx in principal:
        h = {y: A2.heyting(dx, y) for y in downs}
        for y in downs:
            for z in downs:
                ok &= h[y | z] & ~(h[y] | h[z]) == 0
                kp2_distinct += 1
    kp2_covered = len(downs) ** 3
    elapsed = time.time() - start
    report(
        4,
        "algebra suite",
        bool(ok) and elapsed < 120,
        f"exhaustive at 16 teams/168 down-sets, KP {kp_count} triples at one "
        f"variable + {kp2_distinct} distinct triples covering {kp2_covered} principal "
        f"triples at two, {elapsed:.1f}s",
    )


def test_criterion_5_translation_adequacy(oracle_tables):
    assignment = A2.canonical_assignment()
    violations = sum(
        1
        for phi, table in oracle_tables.items()
        if A2.denote_general(translate.tau_i(phi), assignment) != table
    )
    report(
        5,
        "translation adequacy",
        violations == 0,
        f"{len(oracle_tables)} formulas, all 16 teams, {violations} violations",
    )


def test_criterion_6_kernel_corpus():
    checked = 0
    audits_ok = True
    for name in corpus.CRITERION_SET:
        d = corpus.load(name)
        result = check_derivation(d)
        assert result.ok, (name, result.reason)
        checked += 1
        for ctx in (P1, P2):
            rep = audit_soundness(d, ctx)
            audits_ok &= rep.ok and rep.sampled_nodes == 0
    report(
        6,
        "kernel corpus",
        checked == 6 and audits_ok,
        f"{checked}/6 derivations check; audits exhaustive at one and two "
        "variables, zero violations",
    )


MUTATIONS = None


def _mutations():
    from inqmt.rules import RuleSchema, schema

    return [
        schema("mutFlip", "flip", ["G |- D"], "D |- G"),
        schema("mutUnweaken", "unweaken", ["G , S |- D"], "G |- D"),
        RuleSchema("mutBadId", "bad id", (), Sequent(FlatFml(mv.PMeta("p")), FlatFml(mv.PMeta("q")))),
        schema("mutDfRev", "d-f flipped", ["X |- Y"], "Dn(F(X)) |- Y"),
        schema("mutKpGen", "KP without Dn", ["X |- W > (Y ; Z)"], "X |- (W > Y) ; (W > Z)"),
        schema("mutImpFlip", "impL flipped", ["X |- A", "B |- Y"], "A => B |- Y > X"),
        schema("mutFMonFlip", "f mon flipped", ["X |- Y"], "F(Y) |- F(X)"),
        schema("mutPhiZero", "Ph proves 0", [], "Ph |- 0"),
        schema("mutDDis", "d dis wrong image", ["X |- Dn(G) > Dn(D)"], "X |- Dn(G , D)"),
        schema("mutDrop", "dropped premise part", ["G , D |- S"], "G |- S"),
    ]


def test_criterion_7_rule_soundness():
    failures = check_rule_table_soundness(P1)
    caught = 0
    for bad in _mutations():
        if schema_soundness_counterexample(bad, P1) is not None:
            caught += 1
    report(
        7,
        "rule soundness",
        failures == [] and caught == 10,
        f"{len(rule_table())} schemas exhaustively sound at one variable; "
        f"{caught}/10 corrupted schemas caught with counter-assignments",
    )


def test_criterion_8_cut_reduction():
    p, q = FVar("p"), FVar("q")
    shapes = [
        FZero(),
        p,
        Cap(p, q),
        FImp(p, q),
        Down(p),
        GAnd(Down(p), Down(q)),
        GOr(Down(p), Down(q)),
        GImp(Down(p), Down(q)),
    ]
    ok = True
    for formula in shapes:
        before = principal_cut_example(formula)
        (site,) = find_principal_cuts(before)
        after = reduce_principal_cut(before, site)
        ok &= check_derivation(after).ok
        ok &= after.conclusion == before.conclusion
        ok &= multiset_decreased(cut_sizes(before), cut_sizes(after))

    # every principal cut on Flat formulas of height <= 3 and General
    # formulas of height <= 2 over their dn of height <= 2, each reduced,
    # re-checked and measured
    flat = tuple(iter_terms((p, q, FZERO), (Cap, FImp), 3))
    general = iter_terms([Down(alpha) for alpha in flat[:21]], (GAnd, GOr, GImp), 2)
    covers = "Flat height <= 3 over p, q, 0 and General height <= 2 over dn of Flat height <= 2"
    cuts = selftest._reduction_suite((*flat, *general), covers)
    ok &= cuts.ok and cuts.detail.startswith("2229 principal cuts on ")
    report(
        8,
        "cut reduction",
        bool(ok),
        f"8 introduction shapes + {cuts.detail}, "
        "all re-check with preserved endsequents and smaller cut multisets",
    )


def test_criterion_9_disjunction_property(oracle_tables):
    tables = sorted(set(oracle_tables.values()))
    full = A2.full
    violations = sum(
        1
        for tf in tables
        for tg in tables
        if tf | tg == full and tf != full and tg != full
    )
    report(
        9,
        "disjunction property",
        violations == 0,
        f"all pairs over {len(tables)} realized tables, {violations} violations",
    )

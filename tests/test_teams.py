import random

import pytest

from inqmt import teams
from inqmt.algebra import for_context
from inqmt.contexts import Context, subteams
from inqmt.errors import NotClassicalError, SizeCapError
from inqmt.formulas import IAnd, IImp, IOr, IVar, IZERO, enumerate_inql, fold, inq_neg
from inqmt.parser import parse_inql

from helpers import (
    check_modus_ponens,
    counting,
    rand_inql,
    support_pointwise,
    thm26_axiom2_valid,
    thm26_axiom3_valid,
)

P1 = Context.of("p")
P2 = Context.of("p,q")


def definitional_table(ctx, phi):
    """Independent oracle: the support clauses run literally, with the
    implication clause enumerating subteams; one shared memo per formula."""
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

    return [run(phi, s) for s in ctx.teams()]


def test_support_examples():
    # a singleton making p true supports p
    v_p_true = 1 << 1
    assert teams.support(P1, v_p_true, parse_inql("p"))
    # the empty team supports anything
    rng = random.Random(0)
    for _ in range(30):
        assert teams.support(P2, 0, rand_inql(rng, 3, ("p", "q")))
    # the full two-world team does not settle the polar question
    assert not teams.support(P1, P1.full_team, parse_inql("p \\/ ~p"))


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        teams.support(P1, 0, parse_inql("q"))


def test_flatness_examples():
    assert teams.is_flat_semantic(P2, parse_inql("~(p \\/ q)"))
    assert teams.is_flat_semantic(P2, parse_inql("p -> q"))
    assert not teams.is_flat_semantic(P1, parse_inql("?p"))


def test_valid_examples():
    chi, phi, psi = parse_inql("p"), parse_inql("q"), parse_inql("~q")
    assert thm26_axiom2_valid(P2, chi, phi, psi)
    assert thm26_axiom3_valid(P1, parse_inql("~p"))
    assert teams.valid(P1, parse_inql("~~p -> p"))
    # the double-negation axiom is restricted to classical formulas:
    # instantiated at the polar question it fails on the full team
    bad = parse_inql("~~(p \\/ ~p) -> (p \\/ ~p)")
    assert not teams.valid(P1, bad)
    assert not teams.support(P1, P1.full_team, bad)


def test_entails_basics():
    assert teams.entails(P2, [parse_inql("p /\\ q")], parse_inql("p"))
    assert not teams.entails(P2, [parse_inql("p \\/ q")], parse_inql("p"))
    assert teams.entails(P2, [], parse_inql("p -> p"))


def test_axiom_validators_require_classical():
    with pytest.raises(NotClassicalError):
        thm26_axiom2_valid(P2, parse_inql("p \\/ q"), parse_inql("q"), parse_inql("q"))
    with pytest.raises(NotClassicalError):
        thm26_axiom3_valid(P1, parse_inql("?p"))


def test_deduction_theorem():
    assert teams.check_deduction_theorem(P1, [], parse_inql("p"), parse_inql("p"))
    rng = random.Random(5)
    for _ in range(150):
        pq = ("p", "q")
        gamma = [rand_inql(rng, 2, pq) for _ in range(rng.randrange(3))]
        assert teams.check_deduction_theorem(P2, gamma, rand_inql(rng, 3, pq), rand_inql(rng, 3, pq))


def test_disjunction_property_spot():
    # premise fails: p \/ ~p is not valid, so the check is vacuous
    assert not teams.valid(P1, parse_inql("?p"))
    assert teams.check_disjunction_property(P1, parse_inql("p \\/ ~p"), IZERO)
    rng = random.Random(6)
    for _ in range(150):
        assert teams.check_disjunction_property(P2, rand_inql(rng, 3, ("p", "q")), rand_inql(rng, 3, ("p", "q")))


def test_size_caps():
    """Contexts stop at four variables.  At four, flatness and the
    deduction-theorem and disjunction-property checks answer from support
    tables; flatness is checked against the pointwise definition, team
    by team."""
    with pytest.raises(SizeCapError):
        Context.of("a,b,c,d,e")
    ctx4 = Context.of("a,b,c,d")
    assert teams.valid(ctx4, parse_inql("a -> a"))
    answers = []
    for text in ["?a", "(a -> (b -> c)) -> c", "~(a \\/ b) /\\ c", "a \\/ b", "(a \\/ b) -> d"]:
        phi = parse_inql(text)
        table = teams.support_table(ctx4, phi)
        good = sum(1 << w for w in ctx4.worlds() if table >> (1 << w) & 1)
        pointwise = all(bool(table >> s & 1) == (s & ~good == 0) for s in ctx4.teams())
        assert teams.is_flat_semantic(ctx4, phi) == pointwise, text
        answers.append(pointwise)
    assert answers == [False, True, True, False, True]
    a, b = parse_inql("a"), parse_inql("b")
    assert teams.check_deduction_theorem(ctx4, [parse_inql("a \\/ b")], a, b)
    assert teams.check_disjunction_property(ctx4, a, inq_neg(a))


def test_table_agrees_with_definitional_recursion():
    pop = enumerate_inql(("p", "q"), 2)
    for phi in pop:
        table = teams.support_table(P2, phi)
        oracle = definitional_table(P2, phi)
        for s in P2.teams():
            assert bool((table >> s) & 1) == oracle[s], (phi, s)
    rng = random.Random(7)
    for _ in range(40):
        phi = rand_inql(rng, 3)
        ctx = Context.of("p,q,r")
        table = teams.support_table(ctx, phi)
        for s in random.Random(8).sample(range(ctx.n_teams), 40):
            assert bool((table >> s) & 1) == teams.support(ctx, s, phi)


def test_pointwise_shortcut_only_safe_on_flat_formulas():
    # agreement on flat formulas, cross-checked against the evaluator
    for text in ["p -> q", "~(p \\/ q)", "p /\\ q"]:
        phi = parse_inql(text)
        for s in P2.teams():
            assert teams.support(P2, s, phi) == support_pointwise(P2, s, phi)
    # the polar question separates the two routes on the full team
    phi = parse_inql("?p")
    assert support_pointwise(P1, P1.full_team, phi)
    assert not teams.support(P1, P1.full_team, phi)


def test_implication_into_flat_is_flat():
    rng = random.Random(9)
    count = 0
    while count < 60:
        phi, psi = rand_inql(rng, 3, ("p", "q")), rand_inql(rng, 3, ("p", "q"))
        if not teams.is_flat_semantic(P2, psi):
            continue
        assert teams.is_flat_semantic(P2, IImp(phi, psi))
        assert teams.is_flat_semantic(P2, inq_neg(phi))
        count += 1


def test_downward_closure_and_empty_team_small():
    rng = random.Random(10)
    for _ in range(40):
        phi = rand_inql(rng, 3, ("p", "q"))
        table = definitional_table(P2, phi)
        assert table[0]
        for s in P2.teams():
            if table[s]:
                for t in subteams(s):
                    assert table[t], (phi, s, t)


def test_modus_ponens_preserves_validity():
    rng = random.Random(11)
    for _ in range(80):
        assert check_modus_ponens(P2, rand_inql(rng, 3, ("p", "q")), rand_inql(rng, 3, ("p", "q")))


def test_support_decides_each_goal_once(monkeypatch):
    started = []
    for cls, clause in list(teams._CLAUSES.items()):
        def counted(f, s, clause=clause):
            started.append((f, s))
            return clause(f, s)

        monkeypatch.setitem(teams._CLAUSES, cls, counted)
    p, q = IVar("p"), IVar("q")
    phi = p
    for _ in range(4):  # valid at every level; as a tree it has 2^4 copies of p
        phi = IImp(IAnd(phi, q), IOr(phi, q))
    assert teams.support(P2, P2.full_team, phi)
    goals, distinct = len(started), len(set(started))
    assert goals == distinct and goals > 4 * 16


# ---------------------------------------------------------------------------
# The algebra's weak memo of support tables


def test_a_dropped_formula_leaves_the_table():
    # variables no other test uses, so no other live formula shares a node
    ctx = Context.of("m1,m2,m3,m4")
    alg = for_context(ctx)
    leaves = [IVar(v) for v in ctx.variables] + [IZERO]
    for leaf in leaves:
        teams.support_table(ctx, leaf)
    before = len(alg.tables)
    phi = parse_inql("(m1 -> m2 \\/ m3) /\\ ~(m4 -> (m1 \\/ ~m2))")
    table = teams.support_table(ctx, phi)
    assert len(alg.tables) == before + 7 and alg.tables[phi] == table
    del phi
    assert len(alg.tables) == before


def test_a_shared_subformula_is_computed_once(monkeypatch):
    # the double negation that `inqmt flat` compares a formula with
    phi = parse_inql("(p -> q \\/ r) /\\ ~(q -> (r \\/ ~p))")
    ctx = Context.of("p,q,r")
    table = teams.support_table(ctx, phi)
    calls = counting(monkeypatch, "heyting")
    nn = inq_neg(inq_neg(phi))
    nn_table = teams.support_table(ctx, nn)
    assert len(calls) == 2 and calls[0] == (table, 1)
    assert teams.support_table(ctx, nn) == nn_table and len(calls) == 2


def test_the_memo_changes_no_table():
    rng = random.Random(13)
    cases = [(P2, phi) for phi in enumerate_inql(("p", "q"), 2)]
    for names in (("p", "q", "r"), ("p", "q", "r", "s")):
        ctx = Context.of(",".join(names))
        cases += [(ctx, rand_inql(rng, 6, names)) for _ in range(40)]
    for ctx, phi in cases:
        fresh = fold(phi, teams.table_step(for_context(ctx)))
        for _ in range(2):  # the second call reads the memo
            assert teams.support_table(ctx, phi) == fresh, phi
        if ctx.n_vars <= 2:
            for s in ctx.teams():
                assert bool((fresh >> s) & 1) == teams.support(ctx, s, phi), (phi, s)

import random
from itertools import product

import pytest

from inqmt import algebra, selftest
from inqmt.contexts import Context, bit_column, subteams
from inqmt.denote import ANT, denote
from inqmt.errors import SizeCapError
from inqmt.formulas import Cap, Down, FImp, FVar, GOr, flat_join, flat_neg
from inqmt.parser import parse_general, parse_inql
from inqmt.teams import support_table

from helpers import BOT_A, counting, is_flat_algebraic, rand_flat

P1 = Context.of("p")
P2 = Context.of("p,q")
A1 = algebra.for_context(P1)
A2 = algebra.for_context(P2)


def test_downset_examples():
    assert A2.downset(0) == 1
    assert A2.downset(A2.full_team) == A2.full
    w = 1 << 2
    assert A2.downset(w) == 1 | (1 << w)


def test_f_examples():
    assert A2.f(1) == 0
    assert A2.f(A2.downset(0b0110)) == 0b0110


def test_f_star_example():
    team = 0b11
    assert A2.f_star(team) == 1 | (1 << 1) | (1 << 2)
    assert A2.f_star(0) == 1


def test_heyting_examples():
    assert A2.heyting(A2.downset(0b0011), A2.downset(0b0001)) == A2.downset(0b1101)
    assert A2.heyting(A2.full, 0b0111) == 0b0111


def test_coimp_examples():
    x = A1.downset(A1.full_team)
    assert A1.coimp(x, BOT_A) == x and A1.coimp(x, x) == BOT_A
    assert A1.coimp(A1.downset(0b01), A1.downset(0b10)) == A1.downset(0b01)


# Every law of selftest's law table, and the count of tuples it checks:
# teams and down-sets number 4 and 6 at |V|=1, 16 and 168 at |V|=2.
LAW_COUNTS = {
    1: {
        "f -| downset": 24,
        "f* -| f": 24,
        "bottom/top images": 4,
        "counit": 4,
        "downset and f* closed": 4,
        "downset of a meet": 16,
        "heyting image": 16,
        "negation": 24,
        "f* bound": 16,
        "f* join preservation": 16,
        "unit": 6,
        "f preservation": 36,
        "KP inclusion": 144,
        "heyting and coimp units": 6,
        "heyting, coimp, & and | closed": 36,
        "coimp residuation": 216,
    },
    2: {
        "f -| downset": 2688,
        "f* -| f": 2688,
        "bottom/top images": 16,
        "counit": 16,
        "downset and f* closed": 16,
        "downset of a meet": 256,
        "heyting image": 256,
        "negation": 2688,
        "f* bound": 256,
        "f* join preservation": 256,
        "unit": 168,
        "f preservation": 28224,
        "KP inclusion": 451584,
        "heyting and coimp units": 168,
        "heyting, coimp, & and | closed": 28224,
        "coimp residuation": 4741632,
    },
}


def check_law_table(ctx, only_teams=False):
    """The table's verdict at ctx: its laws over teams alone, or all."""
    laws = selftest._laws(ctx)
    return selftest._check_laws(
        law for law in laws if not only_teams or set(law[2]) == {ctx.teams}
    )


@pytest.mark.parametrize("n_vars", [1, 2])
def test_every_law_holds_on_all_its_tuples(n_vars):
    assert check_law_table(CONTEXTS[n_vars]) == (None, LAW_COUNTS[n_vars])


def test_the_laws_over_teams_hold_at_three_variables():
    """256 teams; the down-sets are never enumerated."""
    pairs = 256 * 256
    assert check_law_table(CONTEXTS[3], only_teams=True) == (None, {
        "bottom/top images": 256,
        "counit": 256,
        "downset and f* closed": 256,
        "downset of a meet": pairs,
        "heyting image": pairs,
        "f* bound": pairs,
        "f* join preservation": pairs,
    })


def test_a_loop_short_of_one_outer_value_fails_the_count(monkeypatch):
    """A loop that drops the last value of each law's outermost domain
    checks less, and no law fails: only the counts tell."""
    monkeypatch.setattr(selftest, "product", lambda *ds: product(*(d[:-1] for d in ds[:1]), *ds[1:]))
    assert check_law_table(CONTEXTS[1])[0] is None
    with pytest.raises(AssertionError):
        test_every_law_holds_on_all_its_tuples(1)


def test_kp_needs_principal_antecedent():
    # a non-principal down-set separates the two sides
    x = 0b111  # empty team and both singletons, not of the form downset(s)
    y, z = 0b011, 0b101
    assert A1.down_closure(x) == x and A1.downset(A1.f(x)) != x
    assert A1.heyting(x, y | z) & ~(A1.heyting(x, y) | A1.heyting(x, z))


def test_denotation_examples():
    assignment = A2.canonical_assignment()
    assert A2.denote_general(parse_general("dn(0)"), assignment) == 1
    rng = random.Random(13)
    for _ in range(80):
        a, b = rand_flat(rng, 2, ("p", "q")), rand_flat(rng, 2, ("p", "q"))
        da = denote(A2, a, ANT, assignment)
        db = denote(A2, b, ANT, assignment)
        assert denote(A2, flat_join(a, b), ANT, assignment) == da | db
        assert A2.denote_general(Down(Cap(a, b)), assignment) == A2.downset(da) & A2.downset(db)
        assert A2.denote_general(Down(FImp(a, b)), assignment) == A2.heyting(
            A2.downset(da), A2.downset(db)
        )
    assert A2.denote_general(Down(FVar("p")), assignment) == A2.downset(P2.var_team("p"))


def test_denote_unknown_variable():
    with pytest.raises(ValueError):
        denote(A2, FVar("zz"), ANT, A2.canonical_assignment())


def test_is_flat_algebraic():
    assignment = A1.canonical_assignment()
    rng = random.Random(14)
    for _ in range(50):
        assert is_flat_algebraic(A1, Down(rand_flat(rng, 3, ("p",))), assignment)
    split = GOr(Down(FVar("p")), Down(flat_neg(FVar("p"))))
    assert not is_flat_algebraic(A1, split, assignment)
    top = Down(FImp(FVar("p"), FVar("p")))
    assert A1.denote_general(top, assignment) == A1.full
    assert is_flat_algebraic(A1, top, assignment)


def test_downset_enumeration_caps():
    assert len(A1.all_downsets()) == 6
    assert len(A2.all_downsets()) == 168
    with pytest.raises(SizeCapError):
        algebra.for_context(Context.of("p,q,r")).all_downsets()


# ---------------------------------------------------------------------------
# The word-parallel kernels against their definitions.

CONTEXTS = {k: Context.of(",".join("pqrs"[:k])) for k in range(5)}


def ref_downset_product(team):
    """The product form: 2^T summed over T <= team is a product of (1 + 2^(2^b))."""
    mask = 1
    for b in range(team.bit_length()):
        if (team >> b) & 1:
            mask *= 1 + (1 << (1 << b))
    return mask


def ref_downset_subteams(team):
    return sum(1 << t for t in subteams(team))


def members(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def ref_f(x):
    """The member-team union loop."""
    union = 0
    for s in members(x):
        union |= s
    return union


def ref_down_closure(x):
    """Every subteam of a member."""
    out = 0
    for s in members(x):
        out |= ref_downset_product(s)
    return out


def ref_up_closure(alg, x):
    """Every superteam of a member: s joined with a subteam of its complement."""
    out = 0
    for s in members(x):
        out |= ref_downset_product(alg.full_team & ~s) << s
    return out


def seeded_masks(alg, rng, count, members_max):
    for _ in range(count):
        x = 0
        for _ in range(rng.randint(0, members_max)):
            x |= 1 << rng.randrange(alg.n_teams)
        yield x


def test_bit_columns_match_the_per_index_sums():
    for k, ctx in CONTEXTS.items():
        for i, v in enumerate(ctx.variables):
            expected = sum(1 << w for w in range(ctx.n_worlds) if (w >> i) & 1)
            assert ctx.var_team(v) == expected == bit_column(i, ctx.n_worlds)
        alg = algebra.for_context(ctx)
        for b in range(ctx.n_worlds):
            column = "".join(str((t >> b) & 1) for t in range(ctx.n_teams))
            assert format(alg._has[b], f"0{ctx.n_teams}b")[::-1] == column
        assert alg.canonical_assignment() == ctx.var_teams
        assert alg.canonical_assignment() is not ctx.var_teams
    with pytest.raises(ValueError):
        CONTEXTS[2].var_team("r")


def test_downset_matches_its_definitions():
    for k in range(4):
        alg = algebra.for_context(CONTEXTS[k])
        for s in alg.ctx.teams():
            assert alg.downset(s) == ref_downset_product(s) == ref_downset_subteams(s)
    alg = algebra.for_context(CONTEXTS[4])
    rng = random.Random(41)
    for s in [0, alg.full_team] + [rng.randrange(alg.n_teams) for _ in range(60)]:
        assert alg.downset(s) == ref_downset_product(s)
    for v in CONTEXTS[4].variables:
        assert alg.var_downset(v) == ref_downset_product(CONTEXTS[4].var_team(v))
    with pytest.raises(ValueError):
        alg.var_downset("t")


def test_f_and_closures_match_their_definitions():
    def same(alg, x):
        assert alg.f(x) == ref_f(x)
        assert alg.down_closure(x) == ref_down_closure(x)
        assert alg.up_closure(x) == ref_up_closure(alg, x)

    for k in (0, 1):  # every mask
        alg = algebra.for_context(CONTEXTS[k])
        for x in range(1 << alg.n_teams):
            same(alg, x)
    rng = random.Random(42)
    alg = algebra.for_context(CONTEXTS[2])
    for x in alg.all_downsets():  # every down-set, and seeded masks
        same(alg, x)
        same(alg, alg.full & ~x)
    for x in seeded_masks(alg, rng, 200, 16):
        same(alg, x)
    for k, count, members_max in ((3, 60, 40), (4, 12, 6)):
        alg = algebra.for_context(CONTEXTS[k])
        corners = [0, 1, 1 << alg.full_team, 1 | 1 << alg.full_team]
        for x in corners + list(seeded_masks(alg, rng, count, members_max)):
            same(alg, x)


def test_downsets_match_the_filter_enumeration():
    for k in (0, 1, 2):
        alg = algebra.for_context(CONTEXTS[k])
        filtered = tuple(x for x in range(1 << alg.n_teams) if alg.is_downward_closed(x))
        assert alg.all_downsets() == filtered


# ---------------------------------------------------------------------------
# Cost structure, pinned by counting calls.


def test_support_table_reads_variable_downsets_once_per_context(monkeypatch):
    ctx = CONTEXTS[4]
    algebra.for_context(ctx)
    calls = counting(monkeypatch, "downset")
    phi = parse_inql(" -> ".join(["(p /\\ q) \\/ (r -> s)"] * 10))
    table = support_table(ctx, phi)
    assert calls == []
    assert table & 1 and table == algebra.for_context(ctx).down_closure(table)
    with pytest.raises(ValueError):
        support_table(ctx, parse_inql("p -> t"))


def test_downset_enumeration_needs_no_closure(monkeypatch):
    calls = counting(monkeypatch, "down_closure")
    algebra._downsets_of.cache_clear()
    counts = [len(algebra._downsets_of(CONTEXTS[k])) for k in (0, 1, 2)]
    assert counts == [3, 6, 168] and calls == []

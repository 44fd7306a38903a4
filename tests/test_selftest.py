"""The selftest suites against planted faults: each fault is in a
function a suite reads, and that suite must fail on it without raising.
Names stay the same whether a suite passes or fails."""

import pytest

from inqmt import cutelim, selftest, translate
from inqmt.algebra import TeamAlgebra, for_context
from inqmt.contexts import Context
from inqmt.formulas import FZERO, GFALSUM, Down, GAnd, GOr, IImp, IOr

P1 = Context.of("p")
P2 = Context.of("p,q")
A2 = for_context(P2)


def drop_one_team(monkeypatch):
    """heyting loses the largest team of ~p's table."""
    heyting = TeamAlgebra.heyting
    target = (A2.var_downset("p"), 1)

    def planted(self, y, z):
        out = heyting(self, y, z)
        if self is A2 and (y, z) == target:
            out &= ~(1 << (out.bit_length() - 1))
        return out

    monkeypatch.setattr(TeamAlgebra, "heyting", planted)


def or_to_and(monkeypatch):
    """The translation maps inquisitive disjunction to conjunction."""
    image = translate._image

    def planted(t, done):
        out = image(t, done)
        return GAnd(out.left, out.right) if type(t) is IOr else out

    monkeypatch.setattr(translate, "_image", planted)


def drop_the_negation(monkeypatch):
    """Flattening rewrites l \\/ r into l -> r."""
    step = translate._flatten_step

    def planted(t, done):
        if type(t) is IOr:
            return IImp(done[t.left], done[t.right])
        return step(t, done)

    monkeypatch.setattr(translate, "_flatten_step", planted)


def f_off_on_one_downset(monkeypatch):
    """f adds a world to the union of one principal down-set."""
    f = TeamAlgebra.f
    target = A2.downset(0b0101)

    def planted(self, x):
        out = f(self, x)
        return out | 0b1000 if self is A2 and x == target else out

    monkeypatch.setattr(TeamAlgebra, "f", planted)


def f_star_off_on_one_team(monkeypatch):
    """f* adds a three-world team to the image of a two-world team."""
    f_star = TeamAlgebra.f_star

    def planted(self, team):
        out = f_star(self, team)
        return out | 1 << 0b0111 if self is A2 and team == 0b0011 else out

    monkeypatch.setattr(TeamAlgebra, "f_star", planted)


def downset_off_on_one_team(monkeypatch):
    """downset drops a two-world team from its own down-set."""
    downset = TeamAlgebra.downset

    def planted(self, team):
        out = downset(self, team)
        return out & ~(1 << team) if self is A2 and team == 0b0110 else out

    monkeypatch.setattr(TeamAlgebra, "downset", planted)


def heyting_off_on_one_principal_pair(monkeypatch):
    """heyting(top, y) gains the team {0, 1} at y = {{}, {0}, {1}}, the
    join of the down-sets of {0} and {1}, whose heyting(top, .) lack it."""
    heyting = TeamAlgebra.heyting

    def planted(self, y, z):
        out = heyting(self, y, z)
        return out | 1 << 0b0011 if self is A2 and (y, z) == (A2.full, 0b0111) else out

    monkeypatch.setattr(TeamAlgebra, "heyting", planted)


def a4_off_on_zero(monkeypatch):
    """A4 at alpha = 0 is replaced by dn(0), which is not valid."""
    a4 = translate.a4_instance
    monkeypatch.setattr(translate, "a4_instance", lambda a: Down(a) if a is FZERO else a4(a))


def keep_the_cut_on_or_falsum(monkeypatch):
    """A principal cut on A \\/ dn(0) is left as it is."""
    rewrite = cutelim._rewrite

    def planted(node, formula):
        if type(formula) is GOr and formula.right is GFALSUM:
            return node, ""
        return rewrite(node, formula)

    monkeypatch.setattr(cutelim, "_rewrite", planted)


PLANTED = [
    (drop_one_team, selftest._population_suite),
    (or_to_and, selftest._population_suite),
    (drop_the_negation, selftest._population_suite),
    (f_off_on_one_downset, lambda: selftest._law_suite(P2, "downset properties")),
    (f_star_off_on_one_team, lambda: selftest._law_suite(P2, "downset properties")),
    (downset_off_on_one_team, lambda: selftest._law_suite(P2, "adjunction")),
    (heyting_off_on_one_principal_pair, lambda: selftest._law_suite(P2, "KP inclusion")),
    (a4_off_on_zero, selftest._axiom_suite),
    (keep_the_cut_on_or_falsum, selftest._reduction_suite),
]


@pytest.mark.parametrize("plant, suite", PLANTED, ids=[p.__name__ for p, _ in PLANTED])
def test_a_planted_fault_fails_its_suite(monkeypatch, plant, suite):
    assert suite().ok
    plant(monkeypatch)
    result = suite()
    assert not result.ok, result


def test_a_failing_suite_keeps_its_name(monkeypatch):
    passes = [selftest._law_suite(P1, "coimp residuation"), selftest._rule_soundness_suite(P1)]
    assert all(r.ok for r in passes)
    coimp = TeamAlgebra.coimp
    # co-implications that are no longer down-sets: the empty team is dropped
    monkeypatch.setattr(TeamAlgebra, "coimp", lambda self, x, y: coimp(self, x, y) & ~1 | 2)
    monkeypatch.setattr(selftest, "check_rule_table_soundness", lambda ctx: ["planted"])
    fails = [selftest._law_suite(P1, "coimp residuation"), selftest._rule_soundness_suite(P1)]
    assert not any(r.ok for r in fails)
    assert [r.name for r in fails] == [r.name for r in passes]
    assert [r.name for r in passes] == ["coimp residuation |V|=1", "rule-table soundness |V|=1"]

import random

import pytest

from inqmt import algebra, teams, translate
from inqmt.contexts import Context
from inqmt.denote import ANT, denote
from inqmt.errors import NotClassicalError
from inqmt.formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    FlatFormula,
    GAnd,
    GImp,
    GOr,
    enumerate_inql,
    is_classical,
)
from inqmt.parser import parse_flat, parse_inql

from helpers import rand_flat, rand_general, rand_inql

P2 = Context.of("p,q")
A2 = algebra.for_context(P2)
PQ = ("p", "q")


def test_tau_c_examples():
    assert translate.tau_c(parse_inql("p -> 0")) == parse_flat("p ~> 0")
    assert translate.tau_c(parse_inql("p /\\ q")) == Cap(FVar("p"), FVar("q"))
    with pytest.raises(NotClassicalError):
        translate.tau_c(parse_inql("p \\/ q"))


def test_tau_i_examples():
    assert translate.tau_i(parse_inql("p \\/ q")) == GOr(Down(FVar("p")), Down(FVar("q")))
    assert translate.tau_i(parse_inql("p")) == Down(FVar("p"))
    # maximal classical subformulas go through tau_c in one piece
    assert translate.tau_i(parse_inql("(p /\\ q) \\/ p")) == GOr(
        Down(Cap(FVar("p"), FVar("q"))), Down(FVar("p"))
    )
    assert translate.tau_i(parse_inql("?p -> q")) == GImp(
        GOr(Down(FVar("p")), Down(FImp(FVar("p"), FZERO))), Down(FVar("q"))
    )


def test_flatten_examples():
    assert translate.flatten(parse_inql("p \\/ q")) == parse_inql("~p -> q")
    chi = parse_inql("p -> (q /\\ 0)")
    assert translate.flatten(chi) == chi
    assert translate.flatten(parse_inql("(p \\/ q) \\/ r")) == parse_inql("~(~p -> q) -> r")


def test_flatten_is_classical_and_characterizes_flatness():
    rng = random.Random(20)
    for _ in range(120):
        phi = rand_inql(rng, 3, PQ)
        fl = translate.flatten(phi)
        assert is_classical(fl)
        equal = teams.support_table(P2, phi) == teams.support_table(P2, fl)
        assert equal == teams.is_flat_semantic(P2, phi)


def test_collapse_examples():
    da, db = Down(FVar("a1")), Down(FVar("b1"))
    assert translate.collapse_to_flat(GAnd(da, db)) == Cap(FVar("a1"), FVar("b1"))
    assert translate.collapse_to_flat(GImp(da, db)) == FImp(FVar("a1"), FVar("b1"))
    assert translate.collapse_to_flat(GOr(da, db)) is None
    assert translate.collapse_to_flat(GAnd(GOr(da, db), da)) is None


def test_collapse_correctness():
    rng = random.Random(21)
    assignment = A2.canonical_assignment()
    count = 0
    while count < 80:
        a = rand_general(rng, 3, PQ)
        alpha = translate.collapse_to_flat(a)
        if alpha is None:
            continue
        assert A2.denote_general(a, assignment) == A2.denote_general(Down(alpha), assignment)
        count += 1


def test_translation_adequacy_bounded():
    assignment = A2.canonical_assignment()
    for phi in enumerate_inql(PQ, 2):
        assert teams.support_table(P2, phi) == A2.denote_general(
            translate.tau_i(phi), assignment
        )
    rng = random.Random(22)
    for _ in range(100):
        phi = rand_inql(rng, 4, PQ)
        assert teams.support_table(P2, phi) == A2.denote_general(
            translate.tau_i(phi), assignment
        )


def test_multi_type_axioms_sampled():
    rng = random.Random(23)
    assignment = A2.canonical_assignment()

    def top(t):
        """Whether t denotes the top of its sort."""
        full = A2.full_team if isinstance(t, FlatFormula) else A2.full
        return denote(A2, t, ANT, assignment) == full

    for _ in range(120):
        al, be, ga = (rand_flat(rng, 2, PQ) for _ in range(3))
        a, b, c = (rand_general(rng, 2, PQ) for _ in range(3))
        for inst in translate.a1_instances(al, be, ga):
            assert isinstance(inst, FlatFormula) and top(inst), inst
        for inst in translate.a2_instances(a, b, c):
            assert not isinstance(inst, FlatFormula) and top(inst), inst
        assert top(translate.a3_instance(al, a, b))
        assert top(translate.a4_instance(al))
        # modus ponens preserves the top in both sorts
        assert not (top(FImp(al, be)) and top(al)) or top(be)
        assert not (top(GImp(a, b)) and top(a)) or top(b)

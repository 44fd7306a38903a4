import random
import weakref

import pytest

from inqmt import formulas, metavars as mv, teams, translate
from inqmt.algebra import for_context
from inqmt.contexts import Context
from inqmt.formulas import (
    GFALSUM,
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    GAnd,
    GOr,
    IAnd,
    IImp,
    IOr,
    IVar,
    IZERO,
    enumerate_inql,
    formula_size,
    inq_dependence,
    inq_neg,
    inq_question,
    is_classical,
    iter_inql,
    subterms,
    variables,
)

from inqmt.parser import parse_flat, parse_general, parse_inql, parse_structure
from inqmt.structures import PHI, Comma, DownOf, FlatFml, Semi

from helpers import rand_flat_structure, rand_inql

p, q, r = IVar("p"), IVar("q"), IVar("r")


def test_is_classical_examples():
    assert is_classical(IImp(p, IAnd(q, IZERO)))
    assert not is_classical(IOr(p, q))
    # disjunction buried under an implication still disqualifies
    assert not is_classical(inq_neg(IOr(p, q)))


def test_sugar_constructors():
    assert inq_neg(p) == IImp(p, IZERO)
    assert inq_question(p) == IOr(p, inq_neg(p))
    assert inq_dependence([], q) == inq_question(q)
    assert inq_dependence([p], q) == IImp(inq_question(p), inq_question(q))
    two = inq_dependence([p, q], r)
    assert two == IImp(IAnd(inq_question(p), inq_question(q)), inq_question(r))


def test_enumerate_inql_counts():
    assert len(enumerate_inql(("p", "q"), 1)) == 3
    assert len(enumerate_inql(("p", "q"), 2)) == 30
    pop = enumerate_inql(("p", "q"), 3)
    assert len(pop) == 2703
    assert len(set(pop)) == 2703


def test_iter_inql_yields_parts_first():
    """The population suite keeps values for the formulas below the last
    level only; it relies on each formula's parts coming before it and
    lying below that level."""
    below = set(enumerate_inql(("p", "q"), 2))
    stream = iter_inql(("p", "q"), 3)
    seen = set()
    for phi in stream:
        assert all(k in seen and k in below for k in phi.parts), phi
        seen.add(phi)
    assert len(seen) == 2703
    assert tuple(iter_inql(("p",), 1)) == enumerate_inql(("p",), 1) == (IVar("p"), IZERO)


def test_variables_and_size():
    phi = IImp(IOr(p, q), IAnd(q, IZERO))
    assert variables(phi) == {"p", "q"}
    assert formula_size(phi) == 7
    assert formula_size(Down(Cap(FVar("p"), FZERO))) == 4


def test_subterm_crosses_down():
    a = Cap(FVar("p"), FVar("q"))
    g = GAnd(Down(a), Down(FVar("r")))
    assert Down(a) in subterms(g)
    assert Down(FVar("q")) not in subterms(g)
    assert FVar("q") in subterms(a)
    assert list(subterms(g)) == [g, Down(a), a, FVar("p"), FVar("q"), Down(FVar("r")), FVar("r")]


def test_structural_equality_is_hashable():
    rng = random.Random(0)
    for _ in range(50):
        f = rand_inql(rng, 3)
        assert hash(f) == hash(f)
        assert f == f


def test_printing_is_stable():
    phi = IOr(p, inq_neg(p))
    assert str(phi) == "p \\/ (p -> 0)"
    assert str(IImp(p, IImp(q, r))) == "p -> q -> r"
    assert str(IImp(IImp(p, q), r)) == "(p -> q) -> r"
    assert str(Cap(FVar("a1"), FImp(FVar("b"), FZERO))) == "a1 & (b ~> 0)"


def test_repr_is_the_constructor_call_at_any_depth():
    t = Cap(FVar("p"), FImp(FVar("q"), FZERO))
    assert repr(t) == "Cap(left=FVar(name='p'), right=FImp(left=FVar(name='q'), right=FZero()))"
    assert repr(mv.SMetaG("X")) == "SMetaG(name='X')"
    n = 10_000
    deep = FZERO
    for _ in range(n):
        deep = FImp(FVar("p"), deep)
    assert repr(deep) == "FImp(left=FVar(name='p'), right=" * n + "FZero()" + ")" * n


def test_equal_terms_are_one_object():
    assert parse_inql("p -> q") is IImp(p, q)
    assert parse_flat("a & ~b") is Cap(FVar("a"), FImp(FVar("b"), FZERO))
    assert parse_general("dn(a) \\/ dn(0)") is GOr(Down(FVar("a")), GFALSUM)
    assert parse_structure("p , Ph") is Comma(FlatFml(FVar("p")), PHI)
    pattern = Semi(DownOf(mv.SMetaF("G")), mv.SMetaG("X"))
    assert parse_structure("Dn(G) ; X", pattern_mode=True) is pattern
    assert mv.FMetaF("a") is not mv.PMeta("a") and IVar("p") is not FVar("p")
    rng = random.Random(3)
    for _ in range(50):
        phi, s = rand_inql(rng, 4), rand_flat_structure(rng, 3)
        assert parse_inql(str(phi)) is phi and parse_structure(str(s)) is s


def test_terms_refuse_attribute_assignment():
    t = Cap(FVar("p"), FZERO)
    with pytest.raises(AttributeError):
        t.left = FVar("q")
    with pytest.raises(AttributeError):
        del t.right
    with pytest.raises(AttributeError):
        FVar("p").name = "q"
    assert t.left is FVar("p") and FVar("p").name == "p"


def test_dropped_term_leaves_the_table():
    before = len(formulas._TABLE)
    t = IAnd(IVar("fresh_a"), IVar("fresh_b"))
    assert len(formulas._TABLE) == before + 3
    probe = weakref.ref(t)
    del t
    assert probe() is None and len(formulas._TABLE) == before


def test_deep_implication_without_recursion():
    n = 10_000
    phi = parse_inql("p -> (" * n + "p" + ")" * n)
    assert formula_size(phi) == 2 * n + 1 and hash(phi) == hash(IImp(p, phi.right))
    text = str(phi)
    assert text == " -> ".join(["p"] * (n + 1)) and parse_inql(text) is phi
    ctx = Context.of("p")
    assert teams.valid(ctx, phi)
    alg = for_context(ctx)
    assert alg.denote_general(translate.tau_i(phi), alg.canonical_assignment()) == alg.full

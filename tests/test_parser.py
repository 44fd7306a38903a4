import random

import pytest

from inqmt import corpus
from inqmt import metavars as mv
from inqmt.derivations import corpus_derivations
from inqmt.errors import MixedSortError, ParseError
from inqmt.formulas import (
    Down,
    FImp,
    FVar,
    IAnd,
    IImp,
    IOr,
    IVar,
    IZERO,
    flat_neg,
    gen_neg,
)
from inqmt.parser import (
    FLAT,
    GENERAL,
    derivation_to_sexp,
    parse_derivation,
    parse_flat,
    parse_general,
    parse_inql,
    parse_sequent,
    parse_structure,
    print_term,
)
from inqmt.structures import Comma, Derivation, FlatFml, GenFml, Semi, Sequent, Sort

from helpers import (
    rand_flat,
    rand_flat_structure,
    rand_general,
    rand_general_structure,
    rand_inql,
)

p, q = IVar("p"), IVar("q")


def test_parse_inql_examples():
    assert parse_inql("p \\/ ~p") == IOr(p, IImp(p, IZERO))
    assert parse_inql("0") == IZERO
    assert parse_inql("(p -> q) /\\ q") == IAnd(IImp(p, q), q)


def test_question_and_dependence_sugar():
    assert parse_inql("?p") == parse_inql("p \\/ ~p")
    assert parse_inql("=(p)") == parse_inql("?p")
    assert parse_inql("=(p,q)") == parse_inql("?p -> ?q")
    assert parse_inql("=(p,q,r)") == parse_inql("?p /\\ ?q -> ?r")


def test_flat_sugar():
    assert parse_flat("~a") == parse_flat("a ~> 0")
    assert parse_flat("a | b") == parse_flat("(a ~> 0) ~> b")
    assert parse_general("neg dn(a)") == parse_general("dn(a) => dn(0)")


def test_sugar_idempotence():
    for text in ["?p \\/ ~q", "~~p", "=(p,q)"]:
        once = parse_inql(text)
        again = parse_inql(print_term(once))
        assert once == again


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_inql("p -> ")
    assert e.value.pos == 5
    with pytest.raises(ParseError):
        parse_inql("p @ q")
    with pytest.raises(ParseError):
        parse_flat("Dn(p)")
    with pytest.raises(ParseError):
        parse_sequent("p |- q |- r")


def test_sequent_examples():
    s = parse_sequent("p |- p")
    assert s.sort is Sort.FLAT
    with pytest.raises(MixedSortError):
        parse_sequent("p |- dn(p)")
    s = parse_sequent("dn(a1) ; dn(b1) |- dn(a1) /\\ dn(b1)")
    assert s.sort is Sort.GENERAL


def test_sequent_accepts_iff_sorts_agree():
    rng = random.Random(4)
    for _ in range(60):
        flat = print_term(rand_flat_structure(rng, 2))
        gen = print_term(rand_general_structure(rng, 2))
        assert parse_sequent(f"{flat} |- {flat}").sort is Sort.FLAT
        assert parse_sequent(f"{gen} |- {gen}").sort is Sort.GENERAL
        with pytest.raises(MixedSortError):
            parse_sequent(f"{flat} |- {gen}")
        with pytest.raises(MixedSortError):
            parse_sequent(f"{gen} |- {flat}")


def test_roundtrip_formulas():
    rng = random.Random(1)
    for _ in range(300):
        phi = rand_inql(rng, 4)
        assert parse_inql(print_term(phi)) == phi
        alpha = rand_flat(rng, 4)
        assert parse_flat(print_term(alpha)) == alpha
        a = rand_general(rng, 3)
        assert parse_general(print_term(a)) == a


def test_roundtrip_structures():
    rng = random.Random(2)
    for _ in range(300):
        s = rand_flat_structure(rng, 3)
        assert parse_structure(print_term(s)) == s
        g = rand_general_structure(rng, 3)
        assert parse_structure(print_term(g)) == g


def test_roundtrip_sequents_and_scripts():
    rng = random.Random(3)
    for _ in range(100):
        s = rand_flat_structure(rng, 2)
        t = rand_flat_structure(rng, 2)
        seq = Sequent(s, t)
        assert parse_sequent(str(seq)) == seq
    d = Derivation(
        parse_sequent("p , q |- p & q"),
        "capR",
        (
            Derivation(parse_sequent("p |- p"), "Id"),
            Derivation(parse_sequent("q |- q"), "Id"),
        ),
    )
    assert parse_derivation(derivation_to_sexp(d)) == d


def test_corpus_scripts_roundtrip():
    for name in corpus.names():
        d = corpus.load(name)
        assert parse_derivation(derivation_to_sexp(d)) == d


def test_reserved_words_rejected_as_variables():
    with pytest.raises(ParseError):
        parse_inql("dn")
    with pytest.raises(ParseError):
        parse_flat("neg")


def test_corpus_files_are_the_builders_output():
    built = corpus_derivations()
    assert sorted(built) == sorted(corpus.names())
    for name, d in built.items():
        assert corpus.text(name) == derivation_to_sexp(d), name


def test_side_sort_is_read_through_parentheses():
    s = parse_sequent("((dn(p))) |- dn(p)")
    assert s.sort is Sort.GENERAL
    assert s.antecedent == s.succedent == GenFml(Down(FVar("p")))
    s = parse_sequent("((p , q)) |- p")
    assert s.sort is Sort.FLAT
    assert s.antecedent == Comma(FlatFml(FVar("p")), FlatFml(FVar("q")))
    with pytest.raises(MixedSortError):
        parse_sequent("((p)) |- ((dn(p)))")


def test_leading_tokens_name_one_sort():
    def leads(g):
        return {*g.atoms, *g.wrappers, *g.prefix, *g.metas}

    assert not leads(FLAT) & leads(GENERAL)


def test_formulas_bind_tighter_than_structure_operators():
    a, b, c = FVar("a"), FVar("b"), FVar("c")
    assert parse_structure("a ~> b , c") == Comma(FlatFml(FImp(a, b)), FlatFml(c))


def test_sugar_inside_structures():
    assert parse_structure("~p , q") == Comma(FlatFml(flat_neg(FVar("p"))), FlatFml(FVar("q")))
    assert parse_structure("neg A ; X", pattern_mode=True) == Semi(
        GenFml(gen_neg(mv.FMetaG("A"))), mv.SMetaG("X")
    )


def test_formula_connective_on_a_structure_is_an_error():
    for text, pos in (("Ph & p", 3), ("(p , q) & r", 8)):
        with pytest.raises(ParseError) as e:
            parse_structure(text)
        assert e.value.pos == pos
    with pytest.raises(ParseError) as e:
        parse_sequent("p |- Ph & p")
    assert e.value.pos == 8

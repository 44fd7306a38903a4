import random

import pytest

from inqmt import corpus, formulas
from inqmt.derivations import corpus_derivations
from inqmt.errors import MixedSortError
from inqmt.formulas import Cap, FVar, subterms, variables
from inqmt.parser import parse_sequent, parse_structure
from inqmt.structures import Derivation, Sequent, address, operational_terms

from helpers import (
    plant_leaf,
    rand_flat_structure,
    ref_nodes,
    shared_cut_example,
    weakening_chain,
)


def test_sequent_constructor_enforces_uniformity():
    with pytest.raises(MixedSortError):
        Sequent(parse_structure("p"), parse_structure("Dn(p)"))


def test_operational_terms_and_coverage():
    seq = parse_sequent("p & q , r |- p")
    terms = operational_terms(seq)
    assert Cap(FVar("p"), FVar("q")) in terms and FVar("r") in terms
    concl = operational_terms(parse_sequent("dn(p & q) |- dn(p)"))
    covered = set(subterms(*concl))
    assert Cap(FVar("p"), FVar("q")) in covered and FVar("q") in covered
    assert FVar("zz") not in covered


def test_sequent_variables():
    seq = parse_sequent("p & q |- r ~> 0")
    assert variables(seq.antecedent, seq.succedent) == {"p", "q", "r"}


def test_derivation_tree_utilities():
    leaf = Derivation(parse_sequent("p |- p"), "Id")
    tree = Derivation(
        parse_sequent("p , q |- p & q"),
        "capR",
        (leaf, Derivation(parse_sequent("q |- q"), "Id")),
    )
    assert tree.at((0,)) == leaf
    assert [address(link) for link, _ in tree.nodes()] == [(), (0,), (1,)]
    other = Derivation(parse_sequent("p |- p"), "Id")
    swapped = tree.replace((1,), other)
    assert swapped.premises[1] == other and swapped.premises[0] == leaf
    sides = [s for _, n in tree.nodes() for s in (n.conclusion.antecedent, n.conclusion.succedent)]
    assert variables(*sides) == {"p", "q"}


def test_nodes_of_a_deep_derivation():
    seq = parse_sequent("p |- p")
    d = Derivation(seq, "Id")
    for _ in range(4999):
        d = Derivation(seq, "W", (d,))
    assert [len(address(link)) for link, _ in d.nodes()] == list(range(5000))


def _rand_derivation(rng, depth):
    """A derivation tree of up to three premises a node, its rule names
    numbered so that every node differs from every other."""
    seq = Sequent(rand_flat_structure(rng, 2), rand_flat_structure(rng, 2))
    width = rng.randrange(4) if depth else 0
    premises = tuple(_rand_derivation(rng, depth - 1) for _ in range(width))
    return Derivation(seq, f"r{rng.randrange(10**6)}", premises)


def _ref_preorder(d, addr=()):
    yield addr, d
    for i, p in enumerate(d.premises):
        yield from _ref_preorder(p, addr + (i,))


def test_derivation_nodes_are_in_preorder():
    rng = random.Random(51)
    for _ in range(80):
        d = _rand_derivation(rng, 4)
        got = [(address(link), node) for link, node in d.nodes()]
        assert [addr for addr, _ in got] == [addr for addr, _ in _ref_preorder(d)]
        for addr, node in got:
            assert d.at(addr) is node


def test_the_occurrence_walk_matches_the_reference_walk():
    rng = random.Random(52)
    derivations = [corpus.load(name) for name in corpus.names()]
    derivations += corpus_derivations().values()
    for name in corpus.LEMMA52 + corpus.APPENDIX:
        derivations += [plant_leaf(corpus.load(name), rng) for _ in range(3)]
    derivations += [shared_cut_example(), weakening_chain(300)]
    for d in derivations:
        got = [(address(link), link[2], node) for link, node in d.nodes()]
        assert got == [(addr, len(addr), node) for addr, node in ref_nodes(d)]


def test_derivation_replace_round_trips():
    rng = random.Random(50)
    for _ in range(80):
        d = _rand_derivation(rng, 4)
        addrs = [address(link) for link, _ in d.nodes()][1:]
        if not addrs:
            continue
        addr = rng.choice(addrs)
        assert d.replace(addr, d.at(addr)) == d
        leaf = Derivation(parse_sequent("zz |- zz"), "Id")
        swapped = d.replace(addr, leaf)
        assert swapped.at(addr) is leaf
        # every node off the replaced one's path is shared, not remade
        for link, node in d.nodes():
            other = address(link)
            if other[:len(addr)] != addr and addr[:len(other)] != other:
                assert swapped.at(other) is node


def test_deep_derivations_compare_and_hash_without_recursion():
    a, b = weakening_chain(1000), weakening_chain(1000)
    assert a is b and a == b and hash(a) == hash(b)
    # the same chain but for the deepest leaf
    leaf = (0,) * 999
    other = b.replace(leaf, Derivation(parse_sequent("p |- p"), "Ax"))
    assert a != other and other.at(leaf).rule == "Ax"
    assert a != b.replace(leaf, Derivation(parse_sequent("q |- q"), "Id"))
    assert Derivation(a.conclusion, "W", a.premises + a.premises) != a


def test_derivation_repr_is_the_dataclass_form_at_any_depth():
    seq = parse_sequent("p |- p")
    leaf = Derivation(seq, "Id")
    pair = Derivation(seq, "capR", (leaf, leaf))
    side = "FlatFml(formula=FVar(name='p'))"
    text = f"Sequent(antecedent={side}, succedent={side})"
    leaf_text = f"Derivation(conclusion={text}, rule='Id', premises=())"
    assert repr(leaf) == leaf_text
    assert repr(pair) == (
        f"Derivation(conclusion={text}, rule='capR', premises=({leaf_text}, {leaf_text}))"
    )
    d = leaf
    for _ in range(9_999):
        d = Derivation(seq, "W", (d,))
    head = f"Derivation(conclusion={text}, rule='W', premises=("
    assert repr(d) == head * 9_999 + leaf_text + ",))" * 9_999


def test_equal_sequents_and_derivations_are_one_object():
    ant, suc = parse_structure("p , q"), parse_structure("p & q")
    seq = Sequent(ant, suc)
    assert Sequent(parse_structure("p , q"), parse_structure("p & q")) is seq
    assert parse_sequent("p , q |- p & q") is seq
    leaves = [Derivation(parse_sequent(f"{v} |- {v}"), "Id") for v in "pq"]
    d = Derivation(seq, "capR", leaves)
    assert Derivation(parse_sequent("p , q |- p & q"), "capR", tuple(leaves)) is d
    assert Derivation(seq, "capR", leaves[::-1]) is not d
    assert Derivation(seq, "capL", leaves) is not d


def test_a_dropped_chain_leaves_the_table():
    before = len(formulas._TABLE)
    d = weakening_chain(10_000)
    assert len(formulas._TABLE) > before + 10_000
    del d
    assert len(formulas._TABLE) == before


def test_mixed_sorts_raise_for_interned_sides():
    flat, general = parse_structure("p"), parse_structure("Dn(p)")
    assert parse_sequent("p |- p").antecedent is flat
    assert parse_sequent("Dn(p) |- Dn(p)").antecedent is general
    for ant, suc in ((flat, general), (general, flat)):
        with pytest.raises(MixedSortError):
            Sequent(ant, suc)


def test_derivation_stores_its_premises_as_a_tuple():
    leaf = Derivation(parse_sequent("p |- p"), "Id")
    assert leaf.premises == ()
    d = Derivation(parse_sequent("p , q |- p"), "W", [leaf])
    assert d.premises == (leaf,) and type(d.premises) is tuple
    assert Derivation(d.conclusion, "W", (leaf,)) is d


def test_subterms_and_variables_read_both_sides_of_a_sequent():
    seq = parse_sequent("p & q |- r ~> 0")
    assert variables(seq) == {"p", "q", "r"}
    assert list(subterms(seq)) == [seq, *subterms(seq.antecedent, seq.succedent)]

import random

import pytest

from inqmt.errors import MixedSortError
from inqmt.formulas import Cap, FVar, subterms, variables
from inqmt.parser import parse_sequent, parse_structure
from inqmt.structures import (
    PHI,
    Comma,
    Derivation,
    FlatFml,
    Sequent,
    iter_paths,
    operational_terms,
    replace_at,
    structure_at,
)

from helpers import rand_flat_structure, weakening_chain


def test_sequent_constructor_enforces_uniformity():
    with pytest.raises(MixedSortError):
        Sequent(parse_structure("p"), parse_structure("Dn(p)"))


def test_paths_address_every_occurrence():
    seq = parse_sequent("(p , q) |> r |- F(Dn(0))")
    found = dict(iter_paths(seq))
    assert found[("ant",)] == seq.antecedent
    assert found[("ant", 0, 1)] == FlatFml(FVar("q"))
    assert found[("suc", 0, 0)] == parse_structure("0")
    for path, sub in found.items():
        assert structure_at(seq, path) == sub


def test_paths_are_in_preorder():
    seq = parse_sequent("(p , q) |> r |- F(Dn(0))")
    assert [path for path, _ in iter_paths(seq)] == [
        ("ant",), ("ant", 0), ("ant", 0, 0), ("ant", 0, 1), ("ant", 1),
        ("suc",), ("suc", 0), ("suc", 0, 0),
    ]


def test_paths_of_a_deep_chain():
    s = FlatFml(FVar("p"))
    for _ in range(5000):
        s = Comma(s, FlatFml(FVar("q")))
    count, deepest = 0, ()
    for path, _ in iter_paths(Sequent(s, PHI)):
        count += 1
        if len(path) > len(deepest):
            deepest = path
    assert count == 2 * 5000 + 2
    assert deepest == ("ant",) + (0,) * 5000


def test_replace_at_round_trips():
    rng = random.Random(50)
    for _ in range(80):
        seq = Sequent(rand_flat_structure(rng, 3), rand_flat_structure(rng, 3))
        paths = list(iter_paths(seq))
        path, sub = paths[rng.randrange(len(paths))]
        unchanged = replace_at(seq, path, sub)
        assert unchanged == seq
        swapped = replace_at(seq, path, FlatFml(FVar("zz")))
        assert structure_at(swapped, path) == FlatFml(FVar("zz"))


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
    assert [addr for addr, _ in tree.nodes()] == [(), (0,), (1,)]
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
    assert [len(addr) for addr, _ in d.nodes()] == list(range(5000))


def test_deep_derivations_compare_and_hash_without_recursion():
    a, b = weakening_chain(1000), weakening_chain(1000)
    assert a is not b and a == b and hash(a) == hash(b)
    # the same chain but for the deepest leaf
    leaf = (0,) * 999
    other = b.replace(leaf, Derivation(parse_sequent("p |- p"), "Ax"))
    assert a != other and other.at(leaf).rule == "Ax"
    assert a != b.replace(leaf, Derivation(parse_sequent("q |- q"), "Id"))
    # the active path is not compared; shape is
    assert Derivation(a.conclusion, "W", a.premises, ("ant", 0)) == a
    assert Derivation(a.conclusion, "W", a.premises + a.premises) != a


def test_derivation_repr_is_the_dataclass_form_at_any_depth():
    seq = parse_sequent("p |- p")
    leaf = Derivation(seq, "Id")
    pair = Derivation(seq, "capR", (leaf, leaf), ("ant",))
    side = "FlatFml(formula=FVar(name='p'))"
    text = f"Sequent(antecedent={side}, succedent={side})"
    leaf_text = f"Derivation(conclusion={text}, rule='Id', premises=(), active=None)"
    assert repr(leaf) == leaf_text
    assert repr(pair) == (
        f"Derivation(conclusion={text}, rule='capR', premises=({leaf_text}, {leaf_text}),"
        " active=('ant',))"
    )
    d = leaf
    for _ in range(9_999):
        d = Derivation(seq, "W", (d,))
    head = f"Derivation(conclusion={text}, rule='W', premises=("
    assert repr(d) == head * 9_999 + leaf_text + ",), active=None)" * 9_999

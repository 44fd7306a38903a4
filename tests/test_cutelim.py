import random
import sys
import time

import pytest

from inqmt import corpus
from inqmt.calculus import check_derivation
from inqmt.cutelim import (
    cut_sizes,
    find_cut_sites,
    find_principal_cuts,
    multiset_decreased,
    reduce_all,
    reduce_principal_cut,
)
from inqmt.derivations import (
    identity,
    principal_cut_example,
)
from inqmt.errors import UnsupportedPatternError
from inqmt.formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZero,
    GAnd,
    GImp,
    GOr,
)

from helpers import parametric_cut_example, shared_cut_example, weakening_chain

p, q, r = FVar("p"), FVar("q"), FVar("r")

SHAPES = [
    FZero(),
    p,
    Cap(p, q),
    FImp(p, q),
    Down(p),
    GAnd(Down(p), Down(q)),
    GOr(Down(p), Down(q)),
    GImp(Down(p), Down(q)),
]


def test_find_principal_cuts_examples():
    d = principal_cut_example(FZero())
    (site,) = find_principal_cuts(d)
    assert site.formula == FZero() and site.addr == ()
    assert find_principal_cuts(identity(Cap(p, q))) == []
    d = principal_cut_example(Cap(p, q))
    (site,) = find_principal_cuts(d)
    assert site.formula == Cap(p, q)


def test_parametric_cut_not_principal():
    d = parametric_cut_example()
    (site,) = find_cut_sites(d)
    assert not site.principal
    assert find_principal_cuts(d) == []
    reduced, report = reduce_all(d)
    assert reduced == d
    assert not report.steps and report.remaining_cuts == 1
    with pytest.raises(UnsupportedPatternError):
        reduce_principal_cut(d, site)


def test_each_pattern_reduces():
    for formula in SHAPES:
        before = principal_cut_example(formula)
        assert check_derivation(before).ok
        (site,) = find_principal_cuts(before)
        after = reduce_principal_cut(before, site)
        assert check_derivation(after).ok, formula
        assert after.conclusion == before.conclusion
        assert multiset_decreased(cut_sizes(before), cut_sizes(after)), formula


def test_constant_case_drops_to_left_subderivation():
    before = principal_cut_example(FZero())
    (site,) = find_principal_cuts(before)
    after = reduce_principal_cut(before, site)
    assert after == before.premises[0].premises[0]
    assert cut_sizes(after) == []


def test_propvar_case_is_the_axiom():
    before = principal_cut_example(p)
    (site,) = find_principal_cuts(before)
    after = reduce_principal_cut(before, site)
    assert after.rule == "Id" and not after.premises
    assert after.conclusion == before.conclusion


def test_down_case_moves_cut_to_flat_body():
    before = principal_cut_example(Down(p))
    (site,) = find_principal_cuts(before)
    after = reduce_principal_cut(before, site)
    rules = [node.rule for _, node in after.nodes()]
    assert rules[0] == "d-f elim"
    assert "d adj" in rules and "Cut" in rules
    (new_site,) = find_cut_sites(after)
    assert new_site.formula == p


def test_cap_case_stays_flat():
    # the printed figure drifts into the General arrow; the implemented
    # rewrite keeps every sequent in the cut formula's own sort
    before = principal_cut_example(Cap(p, q))
    (site,) = find_principal_cuts(before)
    after = reduce_principal_cut(before, site)
    for _, node in after.nodes():
        assert node.conclusion.sort.value == "Flat"
    assert {s.formula for s in find_cut_sites(after)} == {p, q}


def test_reduce_all_on_nested_cut_formula():
    before = principal_cut_example(Cap(p, FImp(q, r)))
    after, report = reduce_all(before)
    assert check_derivation(after).ok
    assert after.conclusion == before.conclusion
    assert report.steps and not report.fuel_exhausted
    assert multiset_decreased(cut_sizes(before), cut_sizes(after))


def test_reduce_all_cut_free_is_identity():
    d = identity(Cap(p, q))
    reduced, report = reduce_all(d)
    assert reduced == d and not report.steps and report.remaining_cuts == 0


def test_fuel_exhaustion_reported():
    before = principal_cut_example(Cap(p, q))
    _, report = reduce_all(before, fuel=0)
    assert report.fuel_exhausted and not report.ok


def test_corpus_pairs_match_reduction():
    for before_name, after_name in corpus.REDUCTION_PAIRS:
        before = corpus.load(before_name)
        (site,) = find_principal_cuts(before)
        assert reduce_principal_cut(before, site) == corpus.load(after_name)


def test_randomized_reductions():
    rng = random.Random(30)

    def flat(depth):
        if depth == 0:
            return rng.choice([p, q, r, FZero()])
        return rng.choice((Cap, FImp))(flat(depth - 1), flat(rng.randrange(depth)))

    def gen(depth):
        if depth == 0:
            return Down(flat(1))
        return rng.choice((GAnd, GOr, GImp))(gen(depth - 1), gen(rng.randrange(depth)))

    for i in range(30):
        formula = flat(2) if i % 2 else gen(1)
        before = principal_cut_example(formula)
        (site,) = find_principal_cuts(before)
        after = reduce_principal_cut(before, site)
        assert check_derivation(after).ok
        assert after.conclusion == before.conclusion
        assert multiset_decreased(cut_sizes(before), cut_sizes(after))


def test_multiset_ordering():
    assert multiset_decreased([3], [1, 1])
    assert multiset_decreased([3, 5], [3, 4, 4, 1])
    assert not multiset_decreased([3], [3])
    assert not multiset_decreased([3], [4])
    assert multiset_decreased([2], [])


def test_a_shared_cut_is_reported_at_each_of_its_addresses():
    d = shared_cut_example()
    assert check_derivation(d).ok
    sites = [(s.addr, s.formula, s.principal) for s in find_cut_sites(d)]
    assert sites == [((0, 0), p, True), ((1, 0), p, True)]
    after, report = reduce_all(d)
    assert [s.addr for s in report.steps] == [(0, 0), (1, 0)]
    assert check_derivation(after).ok and not find_cut_sites(after)


def test_cut_sites_of_a_deep_chain_are_found_in_linear_time():
    # each node is one O(1) step of the walk; copying every node's address
    # would make this quadratic in the depth
    assert sys.getrecursionlimit() <= 1000
    d = weakening_chain(30_000)
    start = time.perf_counter()
    sites = find_cut_sites(d)
    assert time.perf_counter() - start < 0.5
    assert sites == []

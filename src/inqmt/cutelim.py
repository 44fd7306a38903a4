"""Principal-cut reduction rewrites.

A cut site is principal when both immediate subderivations end by
introducing the cut formula in display, by the introduction rules that
rules.INTRODUCTIONS names for its connective.  Each reduction rewrites
the cut node locally: the cut vanishes (constants, variables) or moves
to proper subformulas of the cut formula; for a cut on dn(alpha) the new
cut is a Flat cut on alpha placed under the structural Dn, eliminated
afterwards by the adjunction counit.

The conjunction-style reductions displayed here run the residuation
conversions inside the cut formula's own sort; &, /\\ and \\/ share one
figure, upside down for \\/.  Parametric cuts (those not principal on
both sides) are out of scope and are reported as unreduced.  A rewrite
builds plain derivations: the Flat cuts it places are read from their
sequents like any other node, their holes included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import cut_formula
from .errors import UnsupportedPatternError
from .formulas import Down, FImp, FVar, FZero, GImp, formula_size
from .rules import INTRODUCTIONS
from .structures import Comma, Derivation, DownOf, FOf, Gt, Semi, Sequent, Sup, address, lift


@dataclass(frozen=True)
class CutSite:
    addr: tuple[int, ...]
    formula: object
    principal: bool  # both premises introduce the cut formula in display


def find_cut_sites(d: Derivation) -> list[CutSite]:
    sites = []
    for link, node in d.nodes():
        formula = cut_formula(node)
        if formula is None:
            continue
        left, right = node.premises
        left_rule, right_rule, _ = INTRODUCTIONS[type(formula)]
        atom = lift(formula)
        principal = (
            left.rule == right_rule and left.conclusion.succedent == atom
            and right.rule == left_rule and right.conclusion.antecedent == atom
        )
        sites.append(CutSite(address(link), formula, principal))
    return sites


def find_principal_cuts(d: Derivation) -> list[CutSite]:
    return [s for s in find_cut_sites(d) if s.principal]


# ---------------------------------------------------------------------------
# The local rewrites


def _dd(rule, ant, suc, *prems):
    return Derivation(Sequent(ant, suc), rule, prems)


# the pair structure of a conjunction-like connective -> its sort's
# residuation rule, arrow structure and the reduction note
_RESIDUATION = {
    Comma: ("resF", Sup, "flat-residuation variant of the printed figure"),
    Semi: ("resG", Gt, "delegated case"),
}


def _pair_figure(node: Derivation, formula, pair) -> tuple[Derivation, str]:
    """The reduction of a cut on &, /\\ or \\/, whose introduction rules
    join the two parts with the structure pair.  The figure is written
    for a conjunction, whose two-premise rule is the right one; for \\/,
    whose two-premise rule is the left one, it is the same figure upside
    down: every sequent turned around and each cut's premises swapped."""
    res, arrow, note = _RESIDUATION[pair]
    flip = len(node.premises[1].premises) == 2
    two, one = node.premises[::-1] if flip else node.premises
    pi1, pi2 = two.premises
    (pi3,) = one.premises

    def sides(d: Derivation):
        s = d.conclusion
        return (s.succedent, s.antecedent) if flip else (s.antecedent, s.succedent)

    def step(rule, ant, suc, *prems):
        if flip:
            ant, suc, prems = suc, ant, prems[::-1]
        return _dd(rule, ant, suc, *prems)

    a, b = lift(formula.left), lift(formula.right)
    x, y, z = sides(pi1)[0], sides(pi2)[0], sides(pi3)[1]
    n = step(res, b, arrow(a, z), pi3)
    n = step("Cut", y, arrow(a, z), pi2, n)
    n = step(res, pair(a, y), z, n)
    n = step("E", pair(y, a), z, n)
    n = step(res, a, arrow(y, z), n)
    n = step("Cut", x, arrow(y, z), pi1, n)
    n = step(res, pair(y, x), z, n)
    return step("E", pair(x, y), z, n), note


def _rewrite(node: Derivation, formula) -> tuple[Derivation, str]:
    left, right = node.premises
    if isinstance(formula, FZero):
        return left.premises[0], ""
    if isinstance(formula, FVar):
        return Derivation(node.conclusion, "Id"), ""

    pair = INTRODUCTIONS[type(formula)][2]
    if pair in _RESIDUATION:
        return _pair_figure(node, formula, pair)

    if isinstance(formula, FImp):
        a, b = lift(formula.left), lift(formula.right)
        (pi1,) = left.premises
        pi2, pi3 = right.premises
        gamma = pi1.conclusion.antecedent
        sigma = pi2.conclusion.antecedent
        delta = pi3.conclusion.succedent
        n = _dd("resF", Comma(a, gamma), b, pi1)
        n = _dd("Cut", Comma(a, gamma), delta, n, pi3)
        n = _dd("Cut", Comma(sigma, gamma), delta, pi2, n)
        n = _dd("resF", gamma, Sup(sigma, delta), n)
        return n, "delegated case, flat-residuation template"

    if isinstance(formula, Down):
        a = lift(formula.body)
        (pi1,) = left.premises
        (pi2,) = right.premises
        x = pi1.conclusion.antecedent
        y = pi2.conclusion.succedent
        n = _dd("d adj", FOf(x), a, pi1)
        n = _dd("Cut", DownOf(FOf(x)), y, n, pi2)
        n = _dd("d-f elim", x, y, n)
        return n, "cut moves to the Flat body"

    if isinstance(formula, GImp):
        a, b = lift(formula.left), lift(formula.right)
        (pi1,) = left.premises
        pi2, pi3 = right.premises
        z = pi1.conclusion.antecedent
        x = pi2.conclusion.antecedent
        y = pi3.conclusion.succedent
        n = _dd("resG", Semi(a, z), b, pi1)
        n = _dd("Cut", Semi(a, z), y, n, pi3)
        n = _dd("E", Semi(z, a), y, n)
        n = _dd("resG", a, Gt(z, y), n)
        n = _dd("Cut", x, Gt(z, y), pi2, n)
        n = _dd("resG", Semi(z, x), y, n)
        n = _dd("E", Semi(x, z), y, n)
        n = _dd("resG", z, Gt(x, y), n)
        return n, "delegated case"

    raise UnsupportedPatternError(f"no reduction figure for cut formula {formula}")


def _rewrite_at(d: Derivation, site: CutSite) -> tuple[Derivation, str]:
    """d with the cut at site rewritten, and the rewrite's note; the cut
    node's endsequent must not move."""
    node = d.at(site.addr)
    new, note = _rewrite(node, site.formula)
    if new.conclusion != node.conclusion:
        raise AssertionError(
            f"rewrite changed the endsequent: {node.conclusion} -> {new.conclusion}"
        )
    return d.replace(site.addr, new), note


def reduce_principal_cut(d: Derivation, site: CutSite) -> Derivation:
    """Apply the local rewrite at a both-principal cut site."""
    if not site.principal:
        raise UnsupportedPatternError(f"cut at {site.addr} is not principal on both sides")
    return _rewrite_at(d, site)[0]


@dataclass
class ReduceStep:
    addr: tuple[int, ...]
    formula: str
    note: str


@dataclass
class ReduceReport:
    steps: list[ReduceStep] = field(default_factory=list)
    fuel_exhausted: bool = False
    remaining_cuts: int = 0
    remaining_principal: int = 0

    @property
    def ok(self) -> bool:
        return not self.fuel_exhausted


def reduce_all(d: Derivation, fuel: int = 100) -> tuple[Derivation, ReduceReport]:
    """Repeatedly rewrite the first principal-principal site until none
    matches or the fuel runs out; parametric cuts are left in place."""
    report = ReduceReport()
    while True:
        sites = find_cut_sites(d)
        principal = [s for s in sites if s.principal]
        if not principal:
            break
        if fuel <= 0:
            report.fuel_exhausted = True
            break
        site = principal[0]
        d, note = _rewrite_at(d, site)
        report.steps.append(ReduceStep(site.addr, str(site.formula), note))
        fuel -= 1
    report.remaining_cuts = len(sites)
    report.remaining_principal = len(principal)
    return d, report


def cut_sizes(d: Derivation) -> list[int]:
    """Sizes of all cut formulas in a derivation, as a sorted multiset."""
    return sorted(formula_size(s.formula) for s in find_cut_sites(d))


def multiset_decreased(old: list[int], new: list[int]) -> bool:
    """Dershowitz-Manna ordering for the two sorted size multisets."""
    old, new = list(old), list(new)
    for x in list(new):
        if x in old:
            old.remove(x)
            new.remove(x)
    if not old:
        return False
    return all(any(x < y for y in old) for x in new)

"""Principal-cut reduction rewrites.

A cut site is principal when both immediate subderivations end by
introducing the cut formula in display.  Each reduction rewrites the cut
node locally: the cut vanishes (constants, variables) or moves to proper
subformulas of the cut formula; for a cut on dn(alpha) the new cut is a
Flat cut on alpha placed under the structural Dn, eliminated afterwards
by the adjunction counit.

The conjunction-style reductions displayed here run the residuation
conversions inside the cut formula's own sort.  Parametric cuts (those
not principal on both sides) are out of scope and are reported as
unreduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import match_rule
from .errors import UnsupportedPatternError
from .formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZero,
    GAnd,
    GImp,
    GOr,
    formula_size,
)
from .rules import FAMILIES
from .structures import (
    Comma,
    Derivation,
    DownOf,
    FOf,
    FlatFml,
    GenFml,
    Gt,
    Semi,
    Sequent,
    Sup,
)

_RIGHT_INTRO = {
    FVar: "Id",
    FZero: "0R",
    Cap: "capR",
    FImp: "fimpR",
    Down: "dnR",
    GAnd: "andR",
    GOr: "orR",
    GImp: "impR",
}
_LEFT_INTRO = {
    FVar: "Id",
    FZero: "0L",
    Cap: "capL",
    FImp: "fimpL",
    Down: "dnL",
    GAnd: "andL",
    GOr: "orL",
    GImp: "impL",
}


@dataclass(frozen=True)
class CutSite:
    addr: tuple[int, ...]
    formula: object
    left_principal: bool
    right_principal: bool

    @property
    def principal(self) -> bool:
        return self.left_principal and self.right_principal


def _cut_formula(node: Derivation):
    premises = [p.conclusion for p in node.premises]
    for schema in FAMILIES["Cut"]:
        m = match_rule(schema, node.conclusion, premises)
        if m is not None and m.cut_formula is not None:
            return m.cut_formula
    return None


def find_cut_sites(d: Derivation) -> list[CutSite]:
    sites = []
    for addr, node in d.nodes():
        if node.rule != "Cut" or len(node.premises) != 2:
            continue
        formula = _cut_formula(node)
        if formula is None:
            continue
        left, right = node.premises
        wrap = GenFml if not isinstance(formula, (FVar, FZero, Cap, FImp)) else FlatFml
        left_principal = (
            left.rule == _RIGHT_INTRO[type(formula)]
            and left.conclusion.succedent == wrap(formula)
        )
        right_principal = (
            right.rule == _LEFT_INTRO[type(formula)]
            and right.conclusion.antecedent == wrap(formula)
        )
        sites.append(CutSite(addr, formula, left_principal, right_principal))
    return sites


def find_principal_cuts(d: Derivation) -> list[CutSite]:
    return [s for s in find_cut_sites(d) if s.principal]


# ---------------------------------------------------------------------------
# The local rewrites


def _dd(rule, ant, suc, *prems, active=None):
    return Derivation(Sequent(ant, suc), rule, tuple(prems), active)


def _rewrite(node: Derivation, formula) -> tuple[Derivation, str]:
    left, right = node.premises
    if isinstance(formula, FZero):
        return left.premises[0], ""
    if isinstance(formula, FVar):
        return Derivation(node.conclusion, "Id"), ""

    if isinstance(formula, Cap):
        a, b = FlatFml(formula.left), FlatFml(formula.right)
        pi1, pi2 = left.premises
        (pi3,) = right.premises
        lam = pi3.conclusion.succedent
        gamma = pi1.conclusion.antecedent
        delta = pi2.conclusion.antecedent
        n = _dd("resF", b, Sup(a, lam), pi3)
        n = _dd("Cut", delta, Sup(a, lam), pi2, n, active=("ant",))
        n = _dd("resF", Comma(a, delta), lam, n)
        n = _dd("E", Comma(delta, a), lam, n)
        n = _dd("resF", a, Sup(delta, lam), n)
        n = _dd("Cut", gamma, Sup(delta, lam), pi1, n, active=("ant",))
        n = _dd("resF", Comma(delta, gamma), lam, n)
        n = _dd("E", Comma(gamma, delta), lam, n)
        return n, "flat-residuation variant of the printed figure"

    if isinstance(formula, FImp):
        a, b = FlatFml(formula.left), FlatFml(formula.right)
        (pi1,) = left.premises
        pi2, pi3 = right.premises
        gamma = pi1.conclusion.antecedent
        sigma = pi2.conclusion.antecedent
        delta = pi3.conclusion.succedent
        n = _dd("resF", Comma(a, gamma), b, pi1)
        n = _dd("Cut", Comma(a, gamma), delta, n, pi3, active=("ant",))
        n = _dd("Cut", Comma(sigma, gamma), delta, pi2, n, active=("ant", 0))
        n = _dd("resF", gamma, Sup(sigma, delta), n)
        return n, "delegated case, flat-residuation template"

    if isinstance(formula, Down):
        a = FlatFml(formula.body)
        (pi1,) = left.premises
        (pi2,) = right.premises
        x = pi1.conclusion.antecedent
        y = pi2.conclusion.succedent
        n = _dd("d adj", FOf(x), a, pi1)
        n = _dd("Cut", DownOf(FOf(x)), y, n, pi2, active=("ant", 0))
        n = _dd("d-f elim", x, y, n)
        return n, "cut moves to the Flat body"

    if isinstance(formula, GAnd):
        a, b = GenFml(formula.left), GenFml(formula.right)
        pi1, pi2 = left.premises
        (pi3,) = right.premises
        z = pi3.conclusion.succedent
        x = pi1.conclusion.antecedent
        y = pi2.conclusion.antecedent
        n = _dd("resG", b, Gt(a, z), pi3)
        n = _dd("Cut", y, Gt(a, z), pi2, n)
        n = _dd("resG", Semi(a, y), z, n)
        n = _dd("E", Semi(y, a), z, n)
        n = _dd("resG", a, Gt(y, z), n)
        n = _dd("Cut", x, Gt(y, z), pi1, n)
        n = _dd("resG", Semi(y, x), z, n)
        n = _dd("E", Semi(x, y), z, n)
        return n, "delegated case"

    if isinstance(formula, GOr):
        a, b = GenFml(formula.left), GenFml(formula.right)
        (pi1,) = left.premises
        pi2, pi3 = right.premises
        z = pi1.conclusion.antecedent
        x = pi2.conclusion.succedent
        y = pi3.conclusion.succedent
        n = _dd("resG", Gt(a, z), b, pi1)
        n = _dd("Cut", Gt(a, z), y, n, pi3)
        n = _dd("resG", z, Semi(a, y), n)
        n = _dd("E", z, Semi(y, a), n)
        n = _dd("resG", Gt(y, z), a, n)
        n = _dd("Cut", Gt(y, z), x, n, pi2)
        n = _dd("resG", z, Semi(y, x), n)
        n = _dd("E", z, Semi(x, y), n)
        return n, "delegated case"

    if isinstance(formula, GImp):
        a, b = GenFml(formula.left), GenFml(formula.right)
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
        sites = find_principal_cuts(d)
        if not sites:
            break
        if fuel <= 0:
            report.fuel_exhausted = True
            break
        site = sites[0]
        d, note = _rewrite_at(d, site)
        report.steps.append(ReduceStep(site.addr, str(site.formula), note))
        fuel -= 1
    remaining = find_cut_sites(d)
    report.remaining_cuts = len(remaining)
    report.remaining_principal = len([s for s in remaining if s.principal])
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

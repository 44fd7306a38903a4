"""Formula ASTs for the three sorts used throughout the package.

InqL formulas are the source language: a classical core (variables, 0,
conjunction, implication) extended with inquisitive disjunction.  The
classical layer is not a separate AST sort; it is recoverable through
``is_classical``.  Flat and General formulas form the two-sorted target
language, where every General leaf wraps a Flat formula.

All nodes are frozen dataclasses: formulas compare and hash structurally
and are safe to share between concurrent readers.  Negation-style sugar
is expanded by the constructors below (and by the parser), never stored;
the parser module prints every sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable


def term_text(term) -> str:
    """The printed form of a formula or structure (the __str__ of both)."""
    from .parser import print_term  # deferred: the parser imports this module

    return print_term(term)


# ---------------------------------------------------------------------------
# InqL formulas


@dataclass(frozen=True)
class InqFormula:
    __str__ = term_text


@dataclass(frozen=True)
class IVar(InqFormula):
    name: str


@dataclass(frozen=True)
class IZero(InqFormula):
    pass


@dataclass(frozen=True)
class IAnd(InqFormula):
    left: InqFormula
    right: InqFormula


@dataclass(frozen=True)
class IImp(InqFormula):
    left: InqFormula
    right: InqFormula


@dataclass(frozen=True)
class IOr(InqFormula):
    left: InqFormula
    right: InqFormula


IZERO = IZero()


def inq_neg(phi: InqFormula) -> InqFormula:
    """~phi, stored as phi -> 0."""
    return IImp(phi, IZERO)


def inq_question(phi: InqFormula) -> InqFormula:
    """?phi, the polar question phi \\/ ~phi."""
    return IOr(phi, inq_neg(phi))


def inq_dependence(determiners: Iterable[InqFormula], determined: InqFormula) -> InqFormula:
    """=(p1,...,pn,q) sugar: ?p1 /\\ ... /\\ ?pn -> ?q (just ?q when n = 0)."""
    determiners = list(determiners)
    target = inq_question(determined)
    if not determiners:
        return target
    antecedent = inq_question(determiners[0])
    for d in determiners[1:]:
        antecedent = IAnd(antecedent, inq_question(d))
    return IImp(antecedent, target)


def is_classical(phi: InqFormula) -> bool:
    """True iff no inquisitive disjunction occurs anywhere in the formula."""
    if isinstance(phi, (IVar, IZero)):
        return True
    if isinstance(phi, (IAnd, IImp)):
        return is_classical(phi.left) and is_classical(phi.right)
    if isinstance(phi, IOr):
        return False
    raise TypeError(f"not an InqL formula: {phi!r}")


def inq_variables(phi: InqFormula) -> frozenset[str]:
    if isinstance(phi, IVar):
        return frozenset((phi.name,))
    if isinstance(phi, IZero):
        return frozenset()
    return inq_variables(phi.left) | inq_variables(phi.right)


# ---------------------------------------------------------------------------
# Flat formulas


@dataclass(frozen=True)
class FlatFormula:
    __str__ = term_text


@dataclass(frozen=True)
class FVar(FlatFormula):
    name: str


@dataclass(frozen=True)
class FZero(FlatFormula):
    pass


@dataclass(frozen=True)
class Cap(FlatFormula):
    left: FlatFormula
    right: FlatFormula


@dataclass(frozen=True)
class FImp(FlatFormula):
    left: FlatFormula
    right: FlatFormula


FZERO = FZero()


def flat_neg(alpha: FlatFormula) -> FlatFormula:
    """~alpha, stored as alpha ~> 0."""
    return FImp(alpha, FZERO)


def flat_join(alpha: FlatFormula, beta: FlatFormula) -> FlatFormula:
    """alpha | beta, stored as ~alpha ~> beta."""
    return FImp(flat_neg(alpha), beta)


def flat_variables(alpha: FlatFormula) -> frozenset[str]:
    if isinstance(alpha, FVar):
        return frozenset((alpha.name,))
    if isinstance(alpha, FZero):
        return frozenset()
    return flat_variables(alpha.left) | flat_variables(alpha.right)


# ---------------------------------------------------------------------------
# General formulas


@dataclass(frozen=True)
class GeneralFormula:
    __str__ = term_text


@dataclass(frozen=True)
class Down(GeneralFormula):
    body: FlatFormula


@dataclass(frozen=True)
class GAnd(GeneralFormula):
    left: GeneralFormula
    right: GeneralFormula


@dataclass(frozen=True)
class GOr(GeneralFormula):
    left: GeneralFormula
    right: GeneralFormula


@dataclass(frozen=True)
class GImp(GeneralFormula):
    left: GeneralFormula
    right: GeneralFormula


GFALSUM = Down(FZERO)


def gen_neg(a: GeneralFormula) -> GeneralFormula:
    """neg A, stored as A => dn(0)."""
    return GImp(a, GFALSUM)


def gen_variables(a: GeneralFormula) -> frozenset[str]:
    if isinstance(a, Down):
        return flat_variables(a.body)
    return gen_variables(a.left) | gen_variables(a.right)


Formula = InqFormula | FlatFormula | GeneralFormula


def formula_size(f: Formula) -> int:
    """Node count; Down counts as one node above its Flat body."""
    if isinstance(f, (IVar, IZero, FVar, FZero)):
        return 1
    if isinstance(f, Down):
        return 1 + formula_size(f.body)
    return 1 + formula_size(f.left) + formula_size(f.right)


def subformulas(f: Formula):
    """All subterms of f, crossing from General into Flat through dn."""
    yield f
    if isinstance(f, Down):
        yield from subformulas(f.body)
    elif isinstance(f, (IAnd, IImp, IOr, Cap, FImp, GAnd, GOr, GImp)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def is_subterm(needle: Formula, hay: Formula) -> bool:
    return any(needle == sub for sub in subformulas(hay))


# ---------------------------------------------------------------------------
# Bounded enumeration of the InqL formula population used by the
# exhaustive semantic suites.  Height counts atoms as 1.


@lru_cache(maxsize=None)
def enumerate_inql(variables: tuple[str, ...], max_height: int) -> tuple[InqFormula, ...]:
    atoms: tuple[InqFormula, ...] = tuple(IVar(v) for v in variables) + (IZERO,)
    levels: list[tuple[InqFormula, ...]] = [atoms]
    for height in range(2, max_height + 1):
        below = tuple(f for level in levels for f in level)
        prev = set(levels[-1])
        fresh = []
        for op in (IAnd, IImp, IOr):
            for l in below:
                for r in below:
                    if l in prev or r in prev:
                        fresh.append(op(l, r))
        levels.append(tuple(fresh))
    return tuple(f for level in levels for f in level)

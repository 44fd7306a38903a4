"""Structural terms, sequents, and derivation trees of the two-sorted calculus.

Flat structures are built from Phi, comma, the right-residual arrow, and F
applied to a General structure; General structures from Dn and Fs applied
to Flat structures, semicolon, and the General arrow.  Operational
formulas of either sort are admitted as atomic structures.

Occurrences inside a sequent are addressed by paths: a tuple starting with
"ant" or "suc" followed by child indices (0 = left / only child, 1 =
right).  Formula interiors are not addressable; a path stops at the
structure level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Union

from .errors import MixedSortError
from .formulas import (
    FlatFormula,
    GeneralFormula,
    flat_variables,
    gen_variables,
    is_subterm,
    term_text,
)


class Sort(Enum):
    FLAT = "Flat"
    GENERAL = "General"


# ---------------------------------------------------------------------------
# Flat structures


@dataclass(frozen=True)
class FlatStructure:
    __str__ = term_text


@dataclass(frozen=True)
class Phi(FlatStructure):
    pass


@dataclass(frozen=True)
class FlatFml(FlatStructure):
    formula: FlatFormula


@dataclass(frozen=True)
class Comma(FlatStructure):
    left: FlatStructure
    right: FlatStructure


@dataclass(frozen=True)
class Sup(FlatStructure):
    left: FlatStructure
    right: FlatStructure


@dataclass(frozen=True)
class FOf(FlatStructure):
    body: "GeneralStructure"


PHI = Phi()


# ---------------------------------------------------------------------------
# General structures


@dataclass(frozen=True)
class GeneralStructure:
    __str__ = term_text


@dataclass(frozen=True)
class DownOf(GeneralStructure):
    body: FlatStructure


@dataclass(frozen=True)
class FStarOf(GeneralStructure):
    body: FlatStructure


@dataclass(frozen=True)
class GenFml(GeneralStructure):
    formula: GeneralFormula


@dataclass(frozen=True)
class Semi(GeneralStructure):
    left: GeneralStructure
    right: GeneralStructure


@dataclass(frozen=True)
class Gt(GeneralStructure):
    left: GeneralStructure
    right: GeneralStructure


Structure = Union[FlatStructure, GeneralStructure]


def structure_sort(s: Structure) -> Sort:
    if isinstance(s, FlatStructure):
        return Sort.FLAT
    if isinstance(s, GeneralStructure):
        return Sort.GENERAL
    raise TypeError(f"not a structure: {s!r}")


def children(s: Structure) -> tuple[Structure, ...]:
    if isinstance(s, (Comma, Sup, Semi, Gt)):
        return (s.left, s.right)
    if isinstance(s, (FOf, DownOf, FStarOf)):
        return (s.body,)
    return ()


def with_children(s: Structure, kids: tuple[Structure, ...]) -> Structure:
    if isinstance(s, (Comma, Sup, Semi, Gt)):
        return type(s)(kids[0], kids[1])
    if isinstance(s, (FOf, DownOf, FStarOf)):
        return type(s)(kids[0])
    if kids:
        raise ValueError(f"{s!r} has no children")
    return s


# ---------------------------------------------------------------------------
# Sequents


@dataclass(frozen=True)
class Sequent:
    antecedent: Structure
    succedent: Structure

    def __post_init__(self):
        if structure_sort(self.antecedent) is not structure_sort(self.succedent):
            raise MixedSortError(
                f"sequent mixes sorts: {self.antecedent} |- {self.succedent}"
            )

    @property
    def sort(self) -> Sort:
        return structure_sort(self.antecedent)

    def __str__(self) -> str:
        return f"{self.antecedent} |- {self.succedent}"


Path = tuple


def side_structure(seq: Sequent, side: str) -> Structure:
    return seq.antecedent if side == "ant" else seq.succedent


def structure_at(seq: Sequent, path: Path) -> Structure:
    s = side_structure(seq, path[0])
    for step in path[1:]:
        s = children(s)[step]
    return s


def replace_at(seq: Sequent, path: Path, replacement: Structure) -> Sequent:
    def rebuild(s: Structure, steps) -> Structure:
        if not steps:
            return replacement
        kids = list(children(s))
        kids[steps[0]] = rebuild(kids[steps[0]], steps[1:])
        return with_children(s, tuple(kids))

    side = rebuild(side_structure(seq, path[0]), path[1:])
    if path[0] == "ant":
        return Sequent(side, seq.succedent)
    return Sequent(seq.antecedent, side)


def preorder(root, kids, prefix: tuple = ()) -> Iterator[tuple[tuple, object]]:
    """(address, node) for root and everything below it, parents before
    their children and children in order; an address is prefix followed
    by child indices.  The walk keeps an explicit stack and one mutable
    address, so a step costs the copy of its address at any depth."""
    yield prefix, root
    addr = list(prefix)
    stack = [enumerate(kids(root))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if stack:
                addr.pop()
            continue
        i, node = step
        addr.append(i)
        yield tuple(addr), node
        stack.append(enumerate(kids(node)))


def iter_paths(seq: Sequent) -> Iterator[tuple[Path, Structure]]:
    """All substructure occurrences of both sides, outermost first."""
    yield from preorder(seq.antecedent, children, ("ant",))
    yield from preorder(seq.succedent, children, ("suc",))


def operational_terms(seq: Sequent) -> list[FlatFormula | GeneralFormula]:
    """The formulas embedded in a sequent as atomic structures."""
    out = []
    for _, s in iter_paths(seq):
        if isinstance(s, (FlatFml, GenFml)):
            out.append(s.formula)
    return out


def term_is_covered(term, conclusion_terms) -> bool:
    """C1-style check: term is a subterm of some conclusion-side term.

    Flat terms count as subterms of General terms through dn.
    """
    return any(is_subterm(term, u) for u in conclusion_terms)


def structure_variables(s: Structure) -> frozenset[str]:
    if isinstance(s, FlatFml):
        return flat_variables(s.formula)
    if isinstance(s, GenFml):
        return gen_variables(s.formula)
    out: frozenset[str] = frozenset()
    for kid in children(s):
        out |= structure_variables(kid)
    return out


def sequent_variables(seq: Sequent) -> frozenset[str]:
    return structure_variables(seq.antecedent) | structure_variables(seq.succedent)


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True)
class Derivation:
    conclusion: Sequent
    rule: str
    premises: tuple["Derivation", ...] = ()
    active: Path | None = field(default=None, compare=False)

    def nodes(self) -> Iterator[tuple[tuple[int, ...], "Derivation"]]:
        """All nodes with their tree addresses, root first."""
        yield from preorder(self, lambda d: d.premises)

    def at(self, addr: tuple[int, ...]) -> "Derivation":
        d = self
        for i in addr:
            d = d.premises[i]
        return d

    def replace(self, addr: tuple[int, ...], sub: "Derivation") -> "Derivation":
        if not addr:
            return sub
        kids = list(self.premises)
        kids[addr[0]] = kids[addr[0]].replace(addr[1:], sub)
        return Derivation(self.conclusion, self.rule, tuple(kids), self.active)

    def variables(self) -> frozenset[str]:
        out = sequent_variables(self.conclusion)
        for p in self.premises:
            out |= p.variables()
        return out

"""Structural terms, sequents, and derivation trees of the two-sorted calculus.

Flat structures are built from Phi, comma, the right-residual arrow, and F
applied to a General structure; General structures from Dn and Fs applied
to Flat structures, semicolon, and the General arrow.  Operational
formulas of either sort are admitted as atomic structures.

Sequents and derivations are interned terms too (see formulas), so equal
ones are one object.  A sequent's parts are its two sides; a sequent
mixing the sorts cannot be built.  A derivation is a tree of sequents
labelled with rule names, and nothing more: a rule instance is read from
its sequents alone (the surgical cut's hole among them, see calculus).
A derivation's parts are its premises, so subterms and fold visit each
distinct node once, and never its sequents.  Derivation.nodes walks
every occurrence instead, each with a link to its parent, from which
address builds the occurrence's tuple of premise indices from the root.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Union

from .errors import MixedSortError
from .formulas import FlatFormula, GeneralFormula, Term, subterms


class Sort(Enum):
    FLAT = "Flat"
    GENERAL = "General"


# ---------------------------------------------------------------------------
# Flat structures


class FlatStructure(Term):
    __slots__ = ()


class Phi(FlatStructure):
    __slots__ = ()


class FlatFml(FlatStructure):
    __slots__ = ("formula",)


class Comma(FlatStructure):
    __slots__ = ("left", "right")


class Sup(FlatStructure):
    __slots__ = ("left", "right")


class FOf(FlatStructure):
    __slots__ = ("body",)  # a General structure


PHI = Phi()


# ---------------------------------------------------------------------------
# General structures


class GeneralStructure(Term):
    __slots__ = ()


class DownOf(GeneralStructure):
    __slots__ = ("body",)


class FStarOf(GeneralStructure):
    __slots__ = ("body",)


class GenFml(GeneralStructure):
    __slots__ = ("formula",)


class Semi(GeneralStructure):
    __slots__ = ("left", "right")


class Gt(GeneralStructure):
    __slots__ = ("left", "right")


Structure = Union[FlatStructure, GeneralStructure]
_LIFTS = (FlatFml, GenFml)  # a formula as an atomic structure


def lift(t) -> Structure:
    """A formula as an atomic structure of its own sort; a structure
    is returned as it is."""
    if isinstance(t, FlatFormula):
        return FlatFml(t)
    return GenFml(t) if isinstance(t, GeneralFormula) else t


def structure_sort(s: Structure) -> Sort:
    if isinstance(s, FlatStructure):
        return Sort.FLAT
    if isinstance(s, GeneralStructure):
        return Sort.GENERAL
    raise TypeError(f"not a structure: {s!r}")


def children(s: Structure) -> tuple[Structure, ...]:
    """The parts of a structure that are structures: all of them, except
    for a formula lifted to an atomic structure, which has none."""
    return () if type(s) in _LIFTS else s.parts


# ---------------------------------------------------------------------------
# Sequents


class Sequent(Term):
    __slots__ = ("antecedent", "succedent")

    def __new__(cls, antecedent: Structure, succedent: Structure):
        if structure_sort(antecedent) is not structure_sort(succedent):
            raise MixedSortError(f"sequent mixes sorts: {antecedent} |- {succedent}")
        return Term.__new__(cls, antecedent, succedent)

    @property
    def sort(self) -> Sort:
        return structure_sort(self.antecedent)

    def __str__(self) -> str:
        return f"{self.antecedent} |- {self.succedent}"


def operational_terms(seq: Sequent) -> list[FlatFormula | GeneralFormula]:
    """The distinct formulas embedded in a sequent as atomic structures,
    in pre-order."""
    return [t.formula for t in subterms(seq) if type(t) in _LIFTS]


# ---------------------------------------------------------------------------
# Derivations


class Derivation(Term):
    """Equal derivations, the same tree of conclusions and rules, are one
    object.  Its parts are its premises (see Term)."""

    __slots__ = ("conclusion", "rule", "premises")

    def __new__(cls, conclusion: Sequent, rule: str, premises=()):
        d = Term.__new__(cls, conclusion, rule, tuple(premises))
        # built just now, with all three fields as parts; every holder of d
        # got it from this constructor, so none reads those parts
        if d.parts is not d.premises:
            object.__setattr__(d, "parts", d.premises)
        return d

    __str__ = Term.__repr__

    def nodes(self) -> Iterator[tuple[tuple, "Derivation"]]:
        """Every occurrence of a node, root first, parents before their
        premises and premises in order, each with its link: (the parent's
        link, premise index, depth), or (None, None, 0) at the root.  A
        step costs O(1) at any depth; address(link) builds the address."""
        todo: list = [((None, None, 0), self)]
        while todo:
            link, d = todo.pop()
            yield link, d
            depth = link[2] + 1
            for i in range(len(d.premises) - 1, -1, -1):
                todo.append(((link, i, depth), d.premises[i]))

    def at(self, addr: tuple[int, ...]) -> "Derivation":
        d = self
        for i in addr:
            d = d.premises[i]
        return d

    def replace(self, addr: tuple[int, ...], sub: "Derivation") -> "Derivation":
        """This derivation with the node at addr replaced by sub: the
        nodes on the way down are remade bottom-up."""
        spine = [self]
        for i in addr[:-1]:
            spine.append(spine[-1].premises[i])
        for d, i in zip(reversed(spine), reversed(addr)):
            kids = list(d.premises)
            kids[i] = sub
            sub = Derivation(d.conclusion, d.rule, kids)
        return sub


def address(link: tuple) -> tuple[int, ...]:
    """The premise indices from the root to the occurrence that link, from
    Derivation.nodes, leads to."""
    parent, i, depth = link
    addr = [0] * depth
    while depth:
        addr[depth - 1] = i
        parent, i, depth = parent
    return tuple(addr)

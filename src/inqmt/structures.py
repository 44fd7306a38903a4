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

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .errors import MixedSortError
from .formulas import FlatFormula, GeneralFormula, Term, render, subterms


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


def _rebuild(root, steps, replacement, kids, remake):
    """root with the node that the child indices steps lead to replaced:
    the nodes on the way down are kept on a list and remade bottom-up,
    remake(node, new kids) building each."""
    spine = []
    for i in steps:
        spine.append(root)
        root = kids(root)[i]
    for node, i in zip(reversed(spine), reversed(steps)):
        new = list(kids(node))
        new[i] = replacement
        replacement = remake(node, tuple(new))
    return replacement


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
    side = side_structure(seq, path[0])
    side = _rebuild(side, path[1:], replacement, children, lambda s, kids: type(s)(*kids))
    if path[0] == "ant":
        return Sequent(side, seq.succedent)
    return Sequent(seq.antecedent, side)


def preorder(root, kids, prefix: tuple = ()) -> Iterator[tuple[tuple, object]]:
    """(address, node) for root and everything below it, parents before
    their children and children in order; an address is prefix followed
    by child indices.  The walk keeps an explicit stack and one mutable
    address, but hands out a copy of it at every step, so a step costs
    O(depth); a walk that needs no address uses formulas.subterms."""
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
    """The distinct formulas embedded in a sequent as atomic structures,
    in pre-order."""
    return [t.formula for t in subterms(seq.antecedent, seq.succedent) if type(t) in _LIFTS]


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True, eq=False)
class Derivation:
    """Two derivations are equal when their trees have the same shape
    and the same conclusion and rule at every node; the active path is
    not compared.  Equality and hashing walk an explicit stack, so no
    depth makes them recurse."""

    conclusion: Sequent
    rule: str
    premises: tuple["Derivation", ...] = ()
    active: Path | None = None

    def _shapes(self) -> Iterator[tuple[Sequent, str, int]]:
        """(conclusion, rule, premise count) of every node, in pre-order;
        the counts make the sequence determine the tree."""
        todo = [self]
        while todo:
            d = todo.pop()
            yield d.conclusion, d.rule, len(d.premises)
            todo.extend(reversed(d.premises))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self is other or all(a == b for a, b in zip(self._shapes(), other._shapes()))

    def __hash__(self) -> int:
        return hash(tuple(self._shapes()))

    def __repr__(self) -> str:
        """The dataclass form, rendered without recursion."""
        return render(self, _derivation_pieces)

    def nodes(self) -> Iterator[tuple[tuple[int, ...], "Derivation"]]:
        """All nodes with their tree addresses, root first."""
        yield from preorder(self, lambda d: d.premises)

    def at(self, addr: tuple[int, ...]) -> "Derivation":
        d = self
        for i in addr:
            d = d.premises[i]
        return d

    def replace(self, addr: tuple[int, ...], sub: "Derivation") -> "Derivation":
        return _rebuild(
            self, addr, sub, lambda d: d.premises,
            lambda d, kids: Derivation(d.conclusion, d.rule, kids, d.active),
        )


def _derivation_pieces(d: Derivation) -> list:
    pieces: list = [f"Derivation(conclusion={d.conclusion!r}, rule={d.rule!r}, premises=("]
    for i, p in enumerate(d.premises):
        pieces += (", ", p) if i else (p,)
    pieces.append(f"{',' if len(d.premises) == 1 else ''}), active={d.active!r})")
    return pieces

"""Metavariable nodes for rule patterns.

Patterns are ordinary structure/formula trees whose leaves may be the
placeholder nodes below.  A fixed spelling convention keeps the rule
table readable as text:

    G D S P L   Flat structure metavariables
    X Y Z W V   General structure metavariables
    a b c       Flat formula metavariables
    A B C       General formula metavariables
    p           propositional-variable metavariable (matches bare variables)
"""

from __future__ import annotations

from .formulas import FlatFormula, GeneralFormula
from .structures import FlatStructure, GeneralStructure


class SMetaF(FlatStructure):
    __slots__ = ("name",)


class SMetaG(GeneralStructure):
    __slots__ = ("name",)


class FMetaF(FlatFormula):
    __slots__ = ("name",)


class FMetaG(GeneralFormula):
    __slots__ = ("name",)


class PMeta(FlatFormula):
    __slots__ = ("name",)


FLAT_SMETA_NAMES = frozenset("GDSPL")
GEN_SMETA_NAMES = frozenset("XYZWV")
FLAT_FMETA_NAMES = frozenset("abc")
GEN_FMETA_NAMES = frozenset("ABC")
PMETA_NAMES = frozenset("p")

META_TYPES = (SMetaF, SMetaG, FMetaF, FMetaG, PMeta)


def is_meta(node) -> bool:
    return isinstance(node, META_TYPES)

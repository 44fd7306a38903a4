"""The rule table of the two-sorted structural sequent calculus.

Every schema is written in the concrete pattern syntax (see metavars for
the metavariable spelling).  A rule name groups the schemas that share a
label; double-line schemas match in either direction under the same name.
The two residuation families are extensions flagged as display
postulates: they are not part of the printed rule set but the bundled
completeness derivations are not checkable without them.

The surgical Flat cut replaces an antecedent-part occurrence of the cut
formula inside an arbitrary sequent of either sort, the one where its
consumer premise and its conclusion differ; it is matched by dedicated
code in the calculus module, and its single listed premise pattern
covers only the formula-providing premise.  INTRODUCTIONS names
each connective's two introduction rules, for the derivation builders
and cut reduction.

The table is validated when this module is imported: the conditions a
checked node must meet beyond its shape, C1 among them, are proved once
per schema (_validate_table).
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Cap, Down, FImp, FVar, FZero, GAnd, GImp, GOr, subterms
from .metavars import is_meta
from .parser import parse_sequent
from .structures import Comma, Gt, Semi, Sequent, Sup, operational_terms


@dataclass(frozen=True)
class RuleSchema:
    name: str
    variant: str
    premises: tuple[Sequent, ...]
    conclusion: Sequent
    bidirectional: bool = False
    extension: bool = False
    surgical: bool = False

    @property
    def n_premises(self) -> int:
        return 2 if self.surgical else len(self.premises)

    @property
    def directions(self) -> tuple[tuple[tuple[Sequent, ...], Sequent], ...]:
        """(premises, conclusion) per direction the schema matches in: its
        own, then, for a double-line schema, its conclusion over its
        first premise."""
        forward = (self.premises, self.conclusion)
        if self.bidirectional:
            return forward, ((self.conclusion,), self.premises[0])
        return (forward,)


def pseq(text: str) -> Sequent:
    return parse_sequent(text, pattern_mode=True)


def schema(
    name: str,
    variant: str,
    premises: list[str],
    conclusion: str,
    bidirectional: bool = False,
    extension: bool = False,
) -> RuleSchema:
    return RuleSchema(
        name,
        variant,
        tuple(pseq(p) for p in premises),
        pseq(conclusion),
        bidirectional=bidirectional,
        extension=extension,
    )


def _build_table() -> tuple[RuleSchema, ...]:
    t: list[RuleSchema] = []
    r = lambda *a, **k: t.append(schema(*a, **k))

    # cuts: the Flat cut is surgical, the General cut displayed
    t.append(
        RuleSchema("Cut", "Cut(Gen)", (pseq("X |- A"), pseq("A |- Y")), pseq("X |- Y"))
    )
    t.append(
        RuleSchema("Cut", "Cut(Flat)", (pseq("G |- a"),), pseq("G |- a"), surgical=True)
    )

    # structural rules common to both sorts
    r("Phi", "Phi-L", ["G |- D"], "Ph , G |- D", bidirectional=True)
    r("Phi", "Phi-R", ["G |- D"], "G |- Ph , D", bidirectional=True)
    r("W", "W-L(Flat)", ["G |- D"], "G , S |- D")
    r("W", "W-R(Flat)", ["G |- D"], "G |- D , S")
    r("C", "C-L(Flat)", ["G , G |- D"], "G |- D")
    r("C", "C-R(Flat)", ["G |- D , D"], "G |- D")
    r("E", "E-L(Flat)", ["G , D |- S"], "D , G |- S")
    r("E", "E-R(Flat)", ["G |- D , S"], "G |- S , D")
    r("A", "A-L(Flat)", ["G , (D , S) |- P"], "(G , D) , S |- P")
    r("A", "A-R(Flat)", ["G |- (D , S) , P"], "G |- D , (S , P)")
    r("G", "G-L(Flat)", ["(G |> D) , S |- P"], "G |> (D , S) |- P")
    r("G", "G-R(Flat)", ["P |- (G |> D) , S"], "P |- G |> (D , S)")

    r("DnPhi", "DnPhi-L", ["X |- Y"], "Dn(Ph) ; X |- Y", bidirectional=True)
    r("DnPhi", "DnPhi-R", ["X |- Y"], "X |- Dn(Ph) ; Y", bidirectional=True)
    r("W", "W-L(Gen)", ["X |- Y"], "X ; Z |- Y")
    r("W", "W-R(Gen)", ["X |- Y"], "X |- Y ; Z")
    r("C", "C-L(Gen)", ["X ; X |- Y"], "X |- Y")
    r("C", "C-R(Gen)", ["X |- Y ; Y"], "X |- Y")
    r("E", "E-L(Gen)", ["X ; Y |- Z"], "Y ; X |- Z")
    r("E", "E-R(Gen)", ["X |- Y ; Z"], "X |- Z ; Y")
    r("A", "A-L(Gen)", ["X ; (Y ; Z) |- W"], "(X ; Y) ; Z |- W")
    r("A", "A-R(Gen)", ["X |- (Y ; Z) ; W"], "X |- Y ; (Z ; W)")
    r("G", "G-L(Gen)", ["(X > Y) ; Z |- W"], "X > (Y ; Z) |- W")
    r("G", "G-R(Gen)", ["W |- (X > Y) ; Z"], "W |- X > (Y ; Z)")

    # Flat-specific rules
    r("Id", "Id", [], "p |- p")
    r("CG", "CG", ["P |- G |> (D , S)"], "P |- (G |> D) , S")

    # interaction rules
    r("bal", "bal", ["G |- D"], "Fs(G) |- Dn(D)")
    r("d mon", "d mon", ["G |- D"], "Dn(G) |- Dn(D)")
    r("f mon", "f mon", ["X |- Y"], "F(X) |- F(Y)")
    r("f adj", "f adj", ["Fs(G) |- X"], "G |- F(X)", bidirectional=True)
    r("d adj", "d adj", ["F(X) |- G"], "X |- Dn(G)", bidirectional=True)
    r("d-f elim", "d-f elim", ["Dn(F(X)) |- Y"], "X |- Y")
    r("d dis", "d dis", ["X |- Dn(G |> D)"], "X |- Dn(G) > Dn(D)", bidirectional=True)
    r("f dis", "f dis", ["F(X) , F(Y) |- G"], "F(X ; Y) |- G", bidirectional=True)
    r("KP", "KP", ["X |- Dn(G) > (Y ; Z)"], "X |- (Dn(G) > Y) ; (Dn(G) > Z)")

    # introduction rules
    r("0L", "0L", [], "0 |- Ph")
    r("0R", "0R", ["G |- Ph"], "G |- 0")
    r("capL", "capL", ["a , b |- G"], "a & b |- G")
    r("capR", "capR", ["G |- a", "D |- b"], "G , D |- a & b")
    r("fimpL", "fimpL", ["G |- a", "b |- D"], "a ~> b |- G |> D")
    r("fimpR", "fimpR", ["G |- a |> b"], "G |- a ~> b")
    r("orL", "orL", ["A |- X", "B |- Y"], "A \\/ B |- X ; Y")
    r("orR", "orR", ["Z |- A ; B"], "Z |- A \\/ B")
    r("andL", "andL", ["A ; B |- Z"], "A /\\ B |- Z")
    r("andR", "andR", ["X |- A", "Y |- B"], "X ; Y |- A /\\ B")
    r("impL", "impL", ["X |- A", "B |- Y"], "A => B |- X > Y")
    r("impR", "impR", ["Z |- A > B"], "Z |- A => B")
    r("dnL", "dnL", ["Dn(a) |- X"], "dn(a) |- X")
    r("dnR", "dnR", ["X |- Dn(a)"], "X |- dn(a)")

    # residuation postulates (extension: display postulate)
    r("resF", "resF-1", ["G , D |- S"], "D |- G |> S", bidirectional=True, extension=True)
    r("resF", "resF-2", ["G |- D , S"], "D |> G |- S", bidirectional=True, extension=True)
    r("resG", "resG-1", ["X ; Y |- Z"], "Y |- X > Z", bidirectional=True, extension=True)
    r("resG", "resG-2", ["X |- Y ; Z"], "Y > X |- Z", bidirectional=True, extension=True)

    return tuple(t)


# connective -> (its left rule, its right rule, the structure its
# two-premise rule builds on the other side of the sequent, or None)
INTRODUCTIONS = {
    FVar: ("Id", "Id", None),
    FZero: ("0L", "0R", None),
    Cap: ("capL", "capR", Comma),
    FImp: ("fimpL", "fimpR", Sup),
    Down: ("dnL", "dnR", None),
    GAnd: ("andL", "andR", Semi),
    GOr: ("orL", "orR", Semi),
    GImp: ("impL", "impR", Gt),
}

_TABLE = _build_table()


def rule_table() -> tuple[RuleSchema, ...]:
    return _TABLE


FAMILIES: dict[str, tuple[RuleSchema, ...]] = {}
for _s in _TABLE:
    FAMILIES[_s.name] = FAMILIES.get(_s.name, ()) + (_s,)


def lookup(name: str) -> tuple[RuleSchema, ...]:
    return FAMILIES.get(name, ())


def _validate_table(table: tuple[RuleSchema, ...] = _TABLE):
    """Prove per schema what every node matching it then meets (Belnap,
    "Display Logic", 1982): each metavariable of a premise pattern occurs
    in the conclusion pattern, and each formula lifted to a structure in
    a premise pattern is a subterm of it (C1), in both directions of a
    double-line schema.  A match substitutes terms for metavariables, so
    every operational term of a matched node's premises is a subterm of
    its conclusion.

    A cut's cut formula, the formula of its first premise's succedent, is
    the one exception.  The surgical Flat cut lists only its provider
    premise; its consumer equals the conclusion off the structural path
    to the hole and holds the cut formula in the hole, so it meets C1 too.
    """
    for s in table:
        cut = (s.premises[0].succedent.formula,) if s.name == "Cut" else ()
        for reverse, (premises, conclusion) in enumerate(s.directions):
            label = "reverse direction: " if reverse else ""
            covered = set(subterms(conclusion, *cut))
            for p in premises:
                metas = [t for t in subterms(p) if is_meta(t)]
                lost = [t for t in metas + operational_terms(p) if t not in covered]
                if lost:
                    raise AssertionError(
                        f"{s.variant}: {label}{lost[0]} of premise {p} is not in the conclusion"
                    )


_validate_table()

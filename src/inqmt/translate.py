"""Translations between InqL and the two-sorted language.

``tau_c`` maps classical formulas into the Flat sort, ``tau_i`` maps any
InqL formula into the General sort, routing maximal classical subformulas
through ``tau_c`` under a single dn.  ``flatten`` is the classical
rewrite of inquisitive disjunction, and ``collapse_to_flat`` inverts dn
on the disjunction-free General fragment.

The multi-type Hilbert axioms are provided as shape builders; the full
selftest checks that their instances denote the top of their sort.
There is no Hilbert proof object here, the calculus is the proof system
of this package.
"""

from __future__ import annotations

from .errors import NotClassicalError
from .formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    FlatFormula,
    GAnd,
    GFALSUM,
    GImp,
    GOr,
    GeneralFormula,
    IAnd,
    IImp,
    IOr,
    IVar,
    IZero,
    InqFormula,
    flat_neg,
    fold,
    gen_neg,
    inq_neg,
    subterms,
)

# the binary InqL connectives and their images
_TAU_C = {IAnd: Cap, IImp: FImp}
_TAU_I = {IAnd: GAnd, IImp: GImp, IOr: GOr}


def _image(t: InqFormula, done: dict):
    """The translation at one node, given the images of its parts: the
    Flat image (tau_c) while the subformula is classical, else the
    General one, each classical part going under one dn."""
    cls = type(t)
    if cls is IVar:
        return FVar(t.name)
    if cls is IZero:
        return FZERO
    if cls not in _TAU_I:
        raise TypeError(f"not an InqL formula: {t!r}")
    left, right = done[t.left], done[t.right]
    if cls is not IOr and isinstance(left, FlatFormula) and isinstance(right, FlatFormula):
        return _TAU_C[cls](left, right)
    return _TAU_I[cls](*[Down(k) if isinstance(k, FlatFormula) else k for k in (left, right)])


def tau_c(chi: InqFormula) -> FlatFormula:
    """Translate a classical formula into the Flat sort."""
    for t in subterms(chi):
        if type(t) is IOr:
            raise NotClassicalError(f"tau_c needs a classical formula, got {t}")
    return fold(chi, _image)


def tau_i(phi: InqFormula) -> GeneralFormula:
    """Translate any InqL formula into the General sort.

    Maximal classical subformulas go through tau_c under one dn, so the
    result is the smallest General formula the translation tables allow.
    """
    image = fold(phi, _image)
    return Down(image) if isinstance(image, FlatFormula) else image


def _flatten_step(t: InqFormula, done: dict) -> InqFormula:
    cls = type(t)
    if cls is IVar or cls is IZero:
        return t
    if cls not in _TAU_I:
        raise TypeError(f"not an InqL formula: {t!r}")
    left, right = done[t.left], done[t.right]
    return IImp(inq_neg(left), right) if cls is IOr else cls(left, right)


def flatten(phi: InqFormula) -> InqFormula:
    """The classical flattening: rewrite every l \\/ r into ~l -> r, bottom-up."""
    return fold(phi, _flatten_step)


_COLLAPSE = {GAnd: Cap, GImp: FImp}


def collapse_to_flat(a: GeneralFormula) -> FlatFormula | None:
    """Collapse a disjunction-free General formula to a Flat equivalent.

    Within the fragment dn(alpha) | A /\\ A | A => A the result alpha
    satisfies dn(alpha) -||- A; conjunction collapses to &, implication
    to ~>.  Returns None when the formula falls outside the fragment.
    """
    if not isinstance(a, GeneralFormula):
        raise TypeError(f"not a General formula: {a!r}")

    def collapse(t, done):
        if type(t) is Down:
            return t.body
        build = _COLLAPSE.get(type(t))  # None at \/ and inside a dn body
        if build is None or done[t.left] is None or done[t.right] is None:
            return None
        return build(done[t.left], done[t.right])

    return fold(a, collapse)


# ---------------------------------------------------------------------------
# Multi-type Hilbert axioms.  A1 instantiates classical schemata in the
# Flat sort, A2 intuitionistic schemata in the General sort (with dn(0)
# as the falsum), A3 and A4 are the two mixed axioms.


def a1_instances(a: FlatFormula, b: FlatFormula, c: FlatFormula) -> list[FlatFormula]:
    return [
        FImp(a, FImp(b, a)),
        FImp(FImp(a, FImp(b, c)), FImp(FImp(a, b), FImp(a, c))),
        FImp(FImp(flat_neg(a), flat_neg(b)), FImp(b, a)),
    ]


def a2_instances(a: GeneralFormula, b: GeneralFormula, c: GeneralFormula) -> list[GeneralFormula]:
    return [
        GImp(a, GImp(b, a)),
        GImp(GImp(a, GImp(b, c)), GImp(GImp(a, b), GImp(a, c))),
        GImp(GAnd(a, b), a),
        GImp(GAnd(a, b), b),
        GImp(a, GImp(b, GAnd(a, b))),
        GImp(a, GOr(a, b)),
        GImp(b, GOr(a, b)),
        GImp(GImp(a, c), GImp(GImp(b, c), GImp(GOr(a, b), c))),
        GImp(GFALSUM, a),
    ]


def a3_instance(alpha: FlatFormula, a: GeneralFormula, b: GeneralFormula) -> GeneralFormula:
    """(dn(alpha) => (A \\/ B)) => (dn(alpha) => A) \\/ (dn(alpha) => B)."""
    d = Down(alpha)
    return GImp(GImp(d, GOr(a, b)), GOr(GImp(d, a), GImp(d, b)))


def a4_instance(alpha: FlatFormula) -> GeneralFormula:
    """neg neg dn(alpha) => dn(alpha)."""
    d = Down(alpha)
    return GImp(gen_neg(gen_neg(d)), d)

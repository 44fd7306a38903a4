"""Programmatic derivation builders.

Identity derivations exist for every formula of either sort and are the
building blocks for everything else here: the flat-collapse derivations,
the two completeness derivations, and the principal-cut examples that
feed the cut-reduction machinery.  A connective's identity applies its
two introduction rules, read from rules.INTRODUCTIONS; its principal cut
joins those two steps, the one ending in the right rule as provider.
The bundled script corpus is exactly the output of these builders
(tests pin that equality).  A built derivation carries only sequents and
rule names, as a script does, so the two check alike.
"""

from __future__ import annotations

from .cutelim import find_principal_cuts, reduce_principal_cut
from .formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZero,
    FlatFormula,
    GAnd,
    GImp,
    GOr,
    GeneralFormula,
    gen_neg,
)
from .rules import INTRODUCTIONS, lookup
from .structures import Comma, Derivation, DownOf, FOf, Gt, PHI, Semi, Sequent, Sup, lift


def _d(rule: str, ant, suc, *prems) -> Derivation:
    return Derivation(Sequent(lift(ant), lift(suc)), rule, prems)


# ---------------------------------------------------------------------------
# Identity derivations


def identity(f) -> Derivation:
    """f |- f for a formula of either sort: a binary connective's
    two-premise rule over the identities of its parts, then its other
    introduction rule (rules.INTRODUCTIONS)."""
    if isinstance(f, FVar):
        return _d("Id", f, f)
    if isinstance(f, FZero):
        return _d("0R", f, f, _d("0L", f, PHI))
    if isinstance(f, Down):
        return _d("dnR", f, f, _dn_pair(f.body)[1])
    left, right, pair = INTRODUCTIONS[type(f)]
    parts = [identity(x) for x in f.parts]
    built = pair(*map(lift, f.parts))
    if len(lookup(right)[0].premises) == 2:
        return _d(left, f, f, _d(right, built, f, *parts))
    return _d(right, f, f, _d(left, f, built, *parts))


def _dn_pair(alpha: FlatFormula) -> tuple[Derivation, Derivation]:
    """Dn(alpha) |- dn(alpha) by dnR and dn(alpha) |- Dn(alpha) by dnL,
    both over Dn(alpha) |- Dn(alpha)."""
    body = DownOf(lift(alpha))
    mon = _d("d mon", body, body, identity(alpha))
    return _d("dnR", body, Down(alpha), mon), _d("dnL", Down(alpha), body, mon)


# ---------------------------------------------------------------------------
# The flat-collapse derivations (one per direction of each inductive case,
# plus the base case).


def lemma_base(alpha: FlatFormula) -> Derivation:
    """dn(alpha) |- dn(alpha)."""
    return identity(Down(alpha))


def lemma_cap_elim(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha & beta) |- dn(alpha) /\\ dn(beta)."""
    cap = Cap(alpha, beta)

    def project(keep: FlatFormula, weaken_left: bool) -> Derivation:
        base = identity(keep)
        if weaken_left:
            pair = _d("W", Comma(lift(alpha), lift(beta)), keep, base)
        else:
            w = _d("W", Comma(lift(beta), lift(alpha)), keep, base)
            pair = _d("E", Comma(lift(alpha), lift(beta)), keep, w)
        packed = _d("capL", cap, keep, pair)
        mon = _d("d mon", DownOf(lift(cap)), DownOf(lift(keep)), packed)
        return _d("dnR", DownOf(lift(cap)), Down(keep), mon)

    both = _d(
        "andR",
        Semi(DownOf(lift(cap)), DownOf(lift(cap))),
        GAnd(Down(alpha), Down(beta)),
        project(alpha, True),
        project(beta, False),
    )
    contracted = _d("C", DownOf(lift(cap)), GAnd(Down(alpha), Down(beta)), both)
    return _d("dnL", Down(cap), GAnd(Down(alpha), Down(beta)), contracted)


def _dn_unpack(alpha: FlatFormula) -> Derivation:
    """F(dn(alpha)) |- alpha, the adjoint unpacking of an embedded formula."""
    return _d("d adj", FOf(lift(Down(alpha))), alpha, _dn_pair(alpha)[1])


def lemma_cap_intro(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha) /\\ dn(beta) |- dn(alpha & beta)."""
    cap = Cap(alpha, beta)
    da, db = Down(alpha), Down(beta)
    both = _d("capR", Comma(FOf(lift(da)), FOf(lift(db))), cap, _dn_unpack(alpha), _dn_unpack(beta))
    fused = _d("f dis", FOf(Semi(lift(da), lift(db))), cap, both)
    adjoint = _d("d adj", Semi(lift(da), lift(db)), DownOf(lift(cap)), fused)
    named = _d("dnR", Semi(lift(da), lift(db)), Down(cap), adjoint)
    return _d("andL", GAnd(da, db), Down(cap), named)


def lemma_imp_elim(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha ~> beta) |- dn(alpha) => dn(beta)."""
    imp = FImp(alpha, beta)
    da, di = Down(alpha), Down(imp)
    split = _d("fimpL", imp, Sup(FOf(lift(da)), lift(beta)), _dn_unpack(alpha), identity(beta))
    mon = _d("d mon", DownOf(lift(imp)), DownOf(Sup(FOf(lift(da)), lift(beta))), split)
    named = _d("dnL", di, DownOf(Sup(FOf(lift(da)), lift(beta))), mon)
    adjoint = _d("d adj", FOf(lift(di)), Sup(FOf(lift(da)), lift(beta)), named)
    res = _d("resF", Comma(FOf(lift(da)), FOf(lift(di))), beta, adjoint)
    fused = _d("f dis", FOf(Semi(lift(da), lift(di))), beta, res)
    back = _d("d adj", Semi(lift(da), lift(di)), DownOf(lift(beta)), fused)
    named2 = _d("dnR", Semi(lift(da), lift(di)), Down(beta), back)
    res2 = _d("resG", lift(di), Gt(lift(da), lift(Down(beta))), named2)
    return _d("impR", di, GImp(da, Down(beta)), res2)


def lemma_imp_intro(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha) => dn(beta) |- dn(alpha ~> beta)."""
    imp = FImp(alpha, beta)
    da, db = Down(alpha), Down(beta)
    gi = GImp(da, db)
    named_a, _ = _dn_pair(alpha)
    _, named_b = _dn_pair(beta)
    split = _d("impL", gi, Gt(DownOf(lift(alpha)), DownOf(lift(beta))), named_a, named_b)
    packed = _d("d dis", gi, DownOf(Sup(lift(alpha), lift(beta))), split)
    adjoint = _d("d adj", FOf(lift(gi)), Sup(lift(alpha), lift(beta)), packed)
    arrow = _d("fimpR", FOf(lift(gi)), imp, adjoint)
    back = _d("d adj", gi, DownOf(lift(imp)), arrow)
    return _d("dnR", gi, Down(imp), back)


# ---------------------------------------------------------------------------
# The two completeness derivations.


def completeness_dne(alpha: FlatFormula) -> Derivation:
    """neg neg dn(alpha) |- dn(alpha)."""
    da = Down(alpha)
    neg1 = gen_neg(da)
    neg2 = gen_neg(neg1)
    zero = FZero()
    d0 = Down(zero)
    a, ph, z = lift(alpha), PHI, lift(zero)
    sup_a_ph = Sup(a, ph)

    t = _d("Id", alpha, alpha)
    t = _d("W", a, Comma(a, z), t)
    t = _d("E", a, Comma(z, a), t)
    t = _d("Phi", Comma(ph, a), Comma(z, a), t)
    t = _d("E", Comma(a, ph), Comma(z, a), t)
    t = _d("resF", ph, Sup(a, Comma(z, a)), t)
    t = _d("CG", ph, Comma(Sup(a, z), a), t)
    t = _d("E", ph, Comma(a, Sup(a, z)), t)
    t = _d("resF", sup_a_ph, Sup(a, z), t)
    t = _d("d mon", DownOf(sup_a_ph), DownOf(Sup(a, z)), t)
    t = _d("d dis", DownOf(sup_a_ph), Gt(DownOf(a), DownOf(z)), t)
    t = _d("resG", Semi(DownOf(a), DownOf(sup_a_ph)), DownOf(z), t)
    t = _d("dnR", Semi(DownOf(a), DownOf(sup_a_ph)), d0, t)
    t = _d("E", Semi(DownOf(sup_a_ph), DownOf(a)), lift(d0), t)
    t = _d("resG", DownOf(a), Gt(DownOf(sup_a_ph), lift(d0)), t)
    t = _d("dnL", da, Gt(DownOf(sup_a_ph), lift(d0)), t)
    t = _d("resG", Semi(DownOf(sup_a_ph), lift(da)), lift(d0), t)
    t = _d("E", Semi(lift(da), DownOf(sup_a_ph)), lift(d0), t)
    t = _d("resG", DownOf(sup_a_ph), Gt(lift(da), lift(d0)), t)
    left = _d("impR", DownOf(sup_a_ph), neg1, t)

    r = _d("0L", zero, ph)
    r = _d("d mon", DownOf(z), DownOf(ph), r)
    right = _d("dnL", d0, DownOf(ph), r)

    m = _d("impL", neg2, Gt(DownOf(sup_a_ph), DownOf(ph)), left, right)
    m = _d("d dis", neg2, DownOf(Sup(sup_a_ph, ph)), m)
    m = _d("d adj", FOf(lift(neg2)), Sup(sup_a_ph, ph), m)
    m = _d("resF", Comma(sup_a_ph, FOf(lift(neg2))), ph, m)
    m = _d("G", Sup(a, Comma(ph, FOf(lift(neg2)))), ph, m)
    m = _d("resF", Comma(ph, FOf(lift(neg2))), Comma(a, ph), m)
    m = _d("Phi", FOf(lift(neg2)), Comma(a, ph), m)
    m = _d("E", FOf(lift(neg2)), Comma(ph, a), m)
    m = _d("Phi", FOf(lift(neg2)), a, m)
    m = _d("d adj", lift(neg2), DownOf(a), m)
    return _d("dnR", neg2, da, m)


def completeness_kp(alpha: FlatFormula, b: GeneralFormula, c: GeneralFormula) -> Derivation:
    """dn(alpha) => (B \\/ C) |- (dn(alpha) => B) \\/ (dn(alpha) => C)."""
    da = Down(alpha)
    a = lift(alpha)
    lhs = GImp(da, GOr(b, c))
    ib, ic = GImp(da, b), GImp(da, c)
    t_ = lift(lhs)
    dna = DownOf(a)
    db_ = Gt(dna, lift(b))
    dc_ = Gt(dna, lift(c))

    p = _d("Id", alpha, alpha)
    p = _d("d mon", dna, dna, p)
    p = _d("dnR", dna, da, p)
    union = _d("orL", GOr(b, c), Semi(lift(b), lift(c)), identity(b), identity(c))
    premise = _d("impL", lhs, Gt(dna, Semi(lift(b), lift(c))), p, union)
    k = _d("KP", lhs, Semi(db_, dc_), premise)

    s = _d("resG", Gt(db_, t_), dc_, k)
    s = _d("resG", Semi(dna, Gt(db_, t_)), lift(c), s)
    s = _d("E", Semi(Gt(db_, t_), dna), lift(c), s)
    s = _d("resG", dna, Gt(Gt(db_, t_), lift(c)), s)
    s = _d("dnL", da, Gt(Gt(db_, t_), lift(c)), s)
    s = _d("resG", Semi(Gt(db_, t_), lift(da)), lift(c), s)
    s = _d("E", Semi(lift(da), Gt(db_, t_)), lift(c), s)
    s = _d("resG", Gt(db_, t_), Gt(lift(da), lift(c)), s)
    s = _d("impR", Gt(db_, t_), ic, s)
    s = _d("resG", t_, Semi(db_, lift(ic)), s)
    s = _d("E", t_, Semi(lift(ic), db_), s)
    s = _d("resG", Gt(lift(ic), t_), db_, s)
    s = _d("resG", Semi(dna, Gt(lift(ic), t_)), lift(b), s)
    s = _d("E", Semi(Gt(lift(ic), t_), dna), lift(b), s)
    s = _d("resG", dna, Gt(Gt(lift(ic), t_), lift(b)), s)
    s = _d("dnL", da, Gt(Gt(lift(ic), t_), lift(b)), s)
    s = _d("resG", Semi(Gt(lift(ic), t_), lift(da)), lift(b), s)
    s = _d("E", Semi(lift(da), Gt(lift(ic), t_)), lift(b), s)
    s = _d("resG", Gt(lift(ic), t_), Gt(lift(da), lift(b)), s)
    s = _d("impR", Gt(lift(ic), t_), ib, s)
    s = _d("resG", t_, Semi(lift(ic), lift(ib)), s)
    s = _d("E", t_, Semi(lift(ib), lift(ic)), s)
    return _d("orR", lhs, GOr(ib, ic), s)


# ---------------------------------------------------------------------------
# Principal-cut examples, one per reducible introduction shape.


def principal_cut_example(formula) -> Derivation:
    """A derivation whose last step is a cut, principal on both sides, on
    the given formula.  The provider is the step of the formula's
    identity derivation that ends in its right rule, the consumer the
    other one; a cut on dn(alpha) has a pair of its own."""
    if isinstance(formula, Down):
        provider, consumer = _dn_pair(formula.body)
    else:
        whole = identity(formula)
        steps = (whole, whole.premises[0] if whole.premises else whole)
        provider, consumer = steps if whole.rule == INTRODUCTIONS[type(formula)][1] else steps[::-1]
    ant, suc = provider.conclusion.antecedent, consumer.conclusion.succedent
    return _d("Cut", ant, suc, provider, consumer)


def corpus_derivations() -> dict[str, Derivation]:
    """The builders' output for every bundled corpus script, by name."""
    p, q, r = FVar("p"), FVar("q"), FVar("r")
    scripts = {
        "lemma52_base": lemma_base(p),
        "lemma52_cap_elim": lemma_cap_elim(p, q),
        "lemma52_cap_intro": lemma_cap_intro(p, q),
        "lemma52_imp_elim": lemma_imp_elim(p, q),
        "lemma52_imp_intro": lemma_imp_intro(p, q),
        "appendix_dne": completeness_dne(p),
        "appendix_kp": completeness_kp(p, Down(q), Down(r)),
    }
    for stem, formula in (
        ("cut_constant", FZero()),
        ("cut_propvar", p),
        ("cut_cap", Cap(p, q)),
        ("cut_down", Down(p)),
        ("cut_fimp", FImp(p, q)),
        ("cut_gand", GAnd(Down(p), Down(q))),
        ("cut_gor", GOr(Down(p), Down(q))),
        ("cut_gimp", GImp(Down(p), Down(q))),
    ):
        before = principal_cut_example(formula)
        (site,) = find_principal_cuts(before)
        scripts[f"{stem}_before"] = before
        scripts[f"{stem}_after"] = reduce_principal_cut(before, site)
    return scripts

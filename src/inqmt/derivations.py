"""Programmatic derivation builders.

Identity derivations exist for every formula of either sort and are the
building blocks for everything else here: the flat-collapse derivations,
the two completeness derivations, and the principal-cut examples that
feed the cut-reduction machinery.  The bundled script corpus is exactly
the output of these builders (tests pin that equality).
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
from .structures import (
    Comma,
    Derivation,
    DownOf,
    FOf,
    FlatFml,
    FlatStructure,
    GenFml,
    GeneralStructure,
    Gt,
    PHI,
    Semi,
    Sequent,
    Sup,
)


def fs(x) -> FlatStructure:
    return FlatFml(x) if isinstance(x, FlatFormula) else x


def gs(x) -> GeneralStructure:
    return GenFml(x) if isinstance(x, GeneralFormula) else x


def _d(rule: str, ant, suc, *prems, active=None) -> Derivation:
    ant = fs(ant) if isinstance(ant, FlatFormula) else gs(ant)
    suc = fs(suc) if isinstance(suc, FlatFormula) else gs(suc)
    return Derivation(Sequent(ant, suc), rule, tuple(prems), active)


# ---------------------------------------------------------------------------
# Identity derivations


def id_flat(alpha: FlatFormula) -> Derivation:
    if isinstance(alpha, FVar):
        return _d("Id", alpha, alpha)
    if isinstance(alpha, FZero):
        return _d("0R", alpha, alpha, _d("0L", alpha, PHI))
    if isinstance(alpha, Cap):
        l, r = id_flat(alpha.left), id_flat(alpha.right)
        both = _d("capR", Comma(fs(alpha.left), fs(alpha.right)), alpha, l, r)
        return _d("capL", alpha, alpha, both)
    if isinstance(alpha, FImp):
        l, r = id_flat(alpha.left), id_flat(alpha.right)
        split = _d("fimpL", alpha, Sup(fs(alpha.left), fs(alpha.right)), l, r)
        return _d("fimpR", alpha, alpha, split)
    raise TypeError(f"not a Flat formula: {alpha!r}")


def id_general(a: GeneralFormula) -> Derivation:
    if isinstance(a, Down):
        base = id_flat(a.body)
        mon = _d("d mon", DownOf(fs(a.body)), DownOf(fs(a.body)), base)
        left = _d("dnL", a, DownOf(fs(a.body)), mon)
        return _d("dnR", a, a, left)
    if isinstance(a, GAnd):
        l, r = id_general(a.left), id_general(a.right)
        both = _d("andR", Semi(gs(a.left), gs(a.right)), a, l, r)
        return _d("andL", a, a, both)
    if isinstance(a, GOr):
        l, r = id_general(a.left), id_general(a.right)
        split = _d("orL", a, Semi(gs(a.left), gs(a.right)), l, r)
        return _d("orR", a, a, split)
    if isinstance(a, GImp):
        l, r = id_general(a.left), id_general(a.right)
        split = _d("impL", a, Gt(gs(a.left), gs(a.right)), l, r)
        return _d("impR", a, a, split)
    raise TypeError(f"not a General formula: {a!r}")


# ---------------------------------------------------------------------------
# The flat-collapse derivations (one per direction of each inductive case,
# plus the base case).


def lemma_base(alpha: FlatFormula) -> Derivation:
    """dn(alpha) |- dn(alpha)."""
    return id_general(Down(alpha))


def lemma_cap_elim(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha & beta) |- dn(alpha) /\\ dn(beta)."""
    cap = Cap(alpha, beta)

    def project(keep: FlatFormula, weaken_left: bool) -> Derivation:
        base = id_flat(keep)
        if weaken_left:
            pair = _d("W", Comma(fs(alpha), fs(beta)), keep, base)
        else:
            w = _d("W", Comma(fs(beta), fs(alpha)), keep, base)
            pair = _d("E", Comma(fs(alpha), fs(beta)), keep, w)
        packed = _d("capL", cap, keep, pair)
        mon = _d("d mon", DownOf(fs(cap)), DownOf(fs(keep)), packed)
        return _d("dnR", DownOf(fs(cap)), Down(keep), mon)

    both = _d(
        "andR",
        Semi(DownOf(fs(cap)), DownOf(fs(cap))),
        GAnd(Down(alpha), Down(beta)),
        project(alpha, True),
        project(beta, False),
    )
    contracted = _d("C", DownOf(fs(cap)), GAnd(Down(alpha), Down(beta)), both)
    return _d("dnL", Down(cap), GAnd(Down(alpha), Down(beta)), contracted)


def _dn_unpack(alpha: FlatFormula) -> Derivation:
    """F(dn(alpha)) |- alpha, the adjoint unpacking of an embedded formula."""
    base = id_flat(alpha)
    mon = _d("d mon", DownOf(fs(alpha)), DownOf(fs(alpha)), base)
    left = _d("dnL", Down(alpha), DownOf(fs(alpha)), mon)
    return _d("d adj", FOf(gs(Down(alpha))), alpha, left)


def lemma_cap_intro(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha) /\\ dn(beta) |- dn(alpha & beta)."""
    cap = Cap(alpha, beta)
    da, db = Down(alpha), Down(beta)
    both = _d("capR", Comma(FOf(gs(da)), FOf(gs(db))), cap, _dn_unpack(alpha), _dn_unpack(beta))
    fused = _d("f dis", FOf(Semi(gs(da), gs(db))), cap, both)
    adjoint = _d("d adj", Semi(gs(da), gs(db)), DownOf(fs(cap)), fused)
    named = _d("dnR", Semi(gs(da), gs(db)), Down(cap), adjoint)
    return _d("andL", GAnd(da, db), Down(cap), named)


def lemma_imp_elim(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha ~> beta) |- dn(alpha) => dn(beta)."""
    imp = FImp(alpha, beta)
    da, di = Down(alpha), Down(imp)
    split = _d("fimpL", imp, Sup(FOf(gs(da)), fs(beta)), _dn_unpack(alpha), id_flat(beta))
    mon = _d("d mon", DownOf(fs(imp)), DownOf(Sup(FOf(gs(da)), fs(beta))), split)
    named = _d("dnL", di, DownOf(Sup(FOf(gs(da)), fs(beta))), mon)
    adjoint = _d("d adj", FOf(gs(di)), Sup(FOf(gs(da)), fs(beta)), named)
    res = _d("resF", Comma(FOf(gs(da)), FOf(gs(di))), beta, adjoint)
    fused = _d("f dis", FOf(Semi(gs(da), gs(di))), beta, res)
    back = _d("d adj", Semi(gs(da), gs(di)), DownOf(fs(beta)), fused)
    named2 = _d("dnR", Semi(gs(da), gs(di)), Down(beta), back)
    res2 = _d("resG", gs(di), Gt(gs(da), gs(Down(beta))), named2)
    return _d("impR", di, GImp(da, Down(beta)), res2)


def lemma_imp_intro(alpha: FlatFormula, beta: FlatFormula) -> Derivation:
    """dn(alpha) => dn(beta) |- dn(alpha ~> beta)."""
    imp = FImp(alpha, beta)
    da, db = Down(alpha), Down(beta)
    gi = GImp(da, db)

    base_a = id_flat(alpha)
    mon_a = _d("d mon", DownOf(fs(alpha)), DownOf(fs(alpha)), base_a)
    named_a = _d("dnR", DownOf(fs(alpha)), da, mon_a)

    base_b = id_flat(beta)
    mon_b = _d("d mon", DownOf(fs(beta)), DownOf(fs(beta)), base_b)
    named_b = _d("dnL", db, DownOf(fs(beta)), mon_b)

    split = _d("impL", gi, Gt(DownOf(fs(alpha)), DownOf(fs(beta))), named_a, named_b)
    packed = _d("d dis", gi, DownOf(Sup(fs(alpha), fs(beta))), split)
    adjoint = _d("d adj", FOf(gs(gi)), Sup(fs(alpha), fs(beta)), packed)
    arrow = _d("fimpR", FOf(gs(gi)), imp, adjoint)
    back = _d("d adj", gi, DownOf(fs(imp)), arrow)
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
    a, ph, z = fs(alpha), PHI, fs(zero)
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
    t = _d("E", Semi(DownOf(sup_a_ph), DownOf(a)), gs(d0), t)
    t = _d("resG", DownOf(a), Gt(DownOf(sup_a_ph), gs(d0)), t)
    t = _d("dnL", da, Gt(DownOf(sup_a_ph), gs(d0)), t)
    t = _d("resG", Semi(DownOf(sup_a_ph), gs(da)), gs(d0), t)
    t = _d("E", Semi(gs(da), DownOf(sup_a_ph)), gs(d0), t)
    t = _d("resG", DownOf(sup_a_ph), Gt(gs(da), gs(d0)), t)
    left = _d("impR", DownOf(sup_a_ph), neg1, t)

    r = _d("0L", zero, ph)
    r = _d("d mon", DownOf(z), DownOf(ph), r)
    right = _d("dnL", d0, DownOf(ph), r)

    m = _d("impL", neg2, Gt(DownOf(sup_a_ph), DownOf(ph)), left, right)
    m = _d("d dis", neg2, DownOf(Sup(sup_a_ph, ph)), m)
    m = _d("d adj", FOf(gs(neg2)), Sup(sup_a_ph, ph), m)
    m = _d("resF", Comma(sup_a_ph, FOf(gs(neg2))), ph, m)
    m = _d("G", Sup(a, Comma(ph, FOf(gs(neg2)))), ph, m)
    m = _d("resF", Comma(ph, FOf(gs(neg2))), Comma(a, ph), m)
    m = _d("Phi", FOf(gs(neg2)), Comma(a, ph), m)
    m = _d("E", FOf(gs(neg2)), Comma(ph, a), m)
    m = _d("Phi", FOf(gs(neg2)), a, m)
    m = _d("d adj", gs(neg2), DownOf(a), m)
    return _d("dnR", neg2, da, m)


def completeness_kp(alpha: FlatFormula, b: GeneralFormula, c: GeneralFormula) -> Derivation:
    """dn(alpha) => (B \\/ C) |- (dn(alpha) => B) \\/ (dn(alpha) => C)."""
    da = Down(alpha)
    a = fs(alpha)
    lhs = GImp(da, GOr(b, c))
    ib, ic = GImp(da, b), GImp(da, c)
    t_ = gs(lhs)
    dna = DownOf(a)
    db_ = Gt(dna, gs(b))
    dc_ = Gt(dna, gs(c))

    p = _d("Id", alpha, alpha)
    p = _d("d mon", dna, dna, p)
    p = _d("dnR", dna, da, p)
    union = _d("orL", GOr(b, c), Semi(gs(b), gs(c)), id_general(b), id_general(c))
    premise = _d("impL", lhs, Gt(dna, Semi(gs(b), gs(c))), p, union)
    k = _d("KP", lhs, Semi(db_, dc_), premise)

    s = _d("resG", Gt(db_, t_), dc_, k)
    s = _d("resG", Semi(dna, Gt(db_, t_)), gs(c), s)
    s = _d("E", Semi(Gt(db_, t_), dna), gs(c), s)
    s = _d("resG", dna, Gt(Gt(db_, t_), gs(c)), s)
    s = _d("dnL", da, Gt(Gt(db_, t_), gs(c)), s)
    s = _d("resG", Semi(Gt(db_, t_), gs(da)), gs(c), s)
    s = _d("E", Semi(gs(da), Gt(db_, t_)), gs(c), s)
    s = _d("resG", Gt(db_, t_), Gt(gs(da), gs(c)), s)
    s = _d("impR", Gt(db_, t_), ic, s)
    s = _d("resG", t_, Semi(db_, gs(ic)), s)
    s = _d("E", t_, Semi(gs(ic), db_), s)
    s = _d("resG", Gt(gs(ic), t_), db_, s)
    s = _d("resG", Semi(dna, Gt(gs(ic), t_)), gs(b), s)
    s = _d("E", Semi(Gt(gs(ic), t_), dna), gs(b), s)
    s = _d("resG", dna, Gt(Gt(gs(ic), t_), gs(b)), s)
    s = _d("dnL", da, Gt(Gt(gs(ic), t_), gs(b)), s)
    s = _d("resG", Semi(Gt(gs(ic), t_), gs(da)), gs(b), s)
    s = _d("E", Semi(gs(da), Gt(gs(ic), t_)), gs(b), s)
    s = _d("resG", Gt(gs(ic), t_), Gt(gs(da), gs(b)), s)
    s = _d("impR", Gt(gs(ic), t_), ib, s)
    s = _d("resG", t_, Semi(gs(ic), gs(ib)), s)
    s = _d("E", t_, Semi(gs(ib), gs(ic)), s)
    return _d("orR", lhs, GOr(ib, ic), s)


# ---------------------------------------------------------------------------
# Principal-cut examples, one per reducible introduction shape.


def principal_cut_example(formula) -> Derivation:
    """A derivation whose last step is a cut, principal on both sides, on
    the given formula."""
    if isinstance(formula, FVar):
        left = _d("Id", formula, formula)
        right = _d("Id", formula, formula)
        return _d("Cut", formula, formula, left, right, active=("ant",))
    if isinstance(formula, FZero):
        left = _d("0R", formula, formula, _d("0L", formula, PHI))
        right = _d("0L", formula, PHI)
        return _d("Cut", formula, PHI, left, right, active=("ant",))
    if isinstance(formula, Cap):
        a, b = formula.left, formula.right
        pair = Comma(fs(a), fs(b))
        provider = _d("capR", pair, formula, id_flat(a), id_flat(b))
        inner = _d("capR", pair, formula, id_flat(a), id_flat(b))
        consumer = _d("capL", formula, formula, inner)
        return _d("Cut", pair, formula, provider, consumer, active=("ant",))
    if isinstance(formula, FImp):
        a, b = formula.left, formula.right
        split = _d("fimpL", formula, Sup(fs(a), fs(b)), id_flat(a), id_flat(b))
        provider = _d("fimpR", formula, formula, split)
        consumer = _d("fimpL", formula, Sup(fs(a), fs(b)), id_flat(a), id_flat(b))
        return _d("Cut", formula, Sup(fs(a), fs(b)), provider, consumer, active=("ant",))
    if isinstance(formula, Down):
        al = formula.body
        mon1 = _d("d mon", DownOf(fs(al)), DownOf(fs(al)), id_flat(al))
        provider = _d("dnR", DownOf(fs(al)), formula, mon1)
        mon2 = _d("d mon", DownOf(fs(al)), DownOf(fs(al)), id_flat(al))
        consumer = _d("dnL", formula, DownOf(fs(al)), mon2)
        return _d("Cut", DownOf(fs(al)), DownOf(fs(al)), provider, consumer)
    if isinstance(formula, GAnd):
        a, b = formula.left, formula.right
        pair = Semi(gs(a), gs(b))
        provider = _d("andR", pair, formula, id_general(a), id_general(b))
        inner = _d("andR", pair, formula, id_general(a), id_general(b))
        consumer = _d("andL", formula, formula, inner)
        return _d("Cut", pair, formula, provider, consumer)
    if isinstance(formula, GOr):
        a, b = formula.left, formula.right
        pair = Semi(gs(a), gs(b))
        split = _d("orL", formula, pair, id_general(a), id_general(b))
        provider = _d("orR", formula, formula, split)
        consumer = _d("orL", formula, pair, id_general(a), id_general(b))
        return _d("Cut", formula, pair, provider, consumer)
    if isinstance(formula, GImp):
        a, b = formula.left, formula.right
        arrow = Gt(gs(a), gs(b))
        split = _d("impL", formula, arrow, id_general(a), id_general(b))
        provider = _d("impR", formula, formula, split)
        consumer = _d("impL", formula, arrow, id_general(a), id_general(b))
        return _d("Cut", formula, arrow, provider, consumer)
    raise TypeError(f"no principal-cut example for {formula!r}")


def parametric_cut_example() -> Derivation:
    """A cut that is not left-principal: weakening above the provider."""
    p, q = FVar("p"), FVar("q")
    provider = _d("W", Comma(fs(p), fs(q)), p, _d("Id", p, p))
    consumer = _d("Id", p, p)
    return _d("Cut", Comma(fs(p), fs(q)), p, provider, consumer, active=("ant",))


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
    ):
        before = principal_cut_example(formula)
        (site,) = find_principal_cuts(before)
        scripts[f"{stem}_before"] = before
        scripts[f"{stem}_after"] = reduce_principal_cut(before, site)
    return scripts

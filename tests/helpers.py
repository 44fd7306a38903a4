"""Bounded random generators shared across the test modules, and a
recursive reference evaluator for denotations."""

from inqmt import metavars as mv
from inqmt.calculus import Polarity
from inqmt.errors import InqmtError
from inqmt.formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    FZero,
    GAnd,
    GImp,
    GOr,
    IAnd,
    IImp,
    IOr,
    IVar,
    IZERO,
)
from inqmt.structures import (
    Comma,
    Derivation,
    DownOf,
    FOf,
    FStarOf,
    FlatFml,
    GenFml,
    Gt,
    PHI,
    Phi,
    Semi,
    Sequent,
    Sup,
)

VARS = ("p", "q", "r")


def rand_inql(rng, depth, names=VARS):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([IVar(v) for v in names] + [IZERO])
    op = rng.choice((IAnd, IImp, IOr))
    return op(rand_inql(rng, depth - 1, names), rand_inql(rng, rng.randrange(depth), names))


def rand_flat(rng, depth, names=VARS):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([FVar(v) for v in names] + [FZERO])
    op = rng.choice((Cap, FImp))
    return op(rand_flat(rng, depth - 1, names), rand_flat(rng, rng.randrange(depth), names))


def rand_general(rng, depth, names=VARS):
    if depth <= 0 or rng.random() < 0.3:
        return Down(rand_flat(rng, 1, names))
    op = rng.choice((GAnd, GOr, GImp))
    return op(rand_general(rng, depth - 1, names), rand_general(rng, rng.randrange(depth), names))


def rand_flat_structure(rng, depth):
    if depth <= 0:
        return rng.choice((PHI, FlatFml(rand_flat(rng, 1))))
    k = rng.randrange(5)
    if k == 0:
        return Comma(rand_flat_structure(rng, depth - 1), rand_flat_structure(rng, depth - 1))
    if k == 1:
        return Sup(rand_flat_structure(rng, depth - 1), rand_flat_structure(rng, depth - 1))
    if k == 2:
        return FOf(rand_general_structure(rng, depth - 1))
    if k == 3:
        return FlatFml(rand_flat(rng, 2))
    return PHI


def rand_general_structure(rng, depth):
    if depth <= 0:
        return rng.choice((DownOf(PHI), GenFml(rand_general(rng, 1))))
    k = rng.randrange(5)
    if k == 0:
        return Semi(rand_general_structure(rng, depth - 1), rand_general_structure(rng, depth - 1))
    if k == 1:
        return Gt(rand_general_structure(rng, depth - 1), rand_general_structure(rng, depth - 1))
    if k == 2:
        return DownOf(rand_flat_structure(rng, depth - 1))
    if k == 3:
        return FStarOf(rand_flat_structure(rng, depth - 1))
    return GenFml(rand_general(rng, 2))


def weakening_chain(nodes):
    """Id p |- p under nodes - 1 left weakenings by q, built in memory."""
    p, q = FlatFml(FVar("p")), FlatFml(FVar("q"))
    d = Derivation(Sequent(p, p), "Id")
    ant = p
    for _ in range(nodes - 1):
        ant = Comma(ant, q)
        d = Derivation(Sequent(ant, p), "W", (d,))
    return d


# ---------------------------------------------------------------------------
# Reference denotations: a direct recursive transcription of the reading
# of formulas and structures, one clause per connective.  The environment
# maps variable names, and metavariables of patterns, to values.


def ref_formula(f, alg, env):
    if mv.is_meta(f):
        return env[f]
    if isinstance(f, FVar):
        if f.name not in env:
            raise ValueError(f"unknown variable {f.name!r} in assignment")
        return env[f.name]
    if isinstance(f, FZero):
        return 0
    if isinstance(f, Cap):
        return ref_formula(f.left, alg, env) & ref_formula(f.right, alg, env)
    if isinstance(f, FImp):
        a = ref_formula(f.left, alg, env)
        b = ref_formula(f.right, alg, env)
        return alg.complement_team(a) | b
    if isinstance(f, Down):
        return alg.downset(ref_formula(f.body, alg, env))
    if isinstance(f, GAnd):
        return ref_formula(f.left, alg, env) & ref_formula(f.right, alg, env)
    if isinstance(f, GOr):
        return ref_formula(f.left, alg, env) | ref_formula(f.right, alg, env)
    if isinstance(f, GImp):
        return alg.heyting(ref_formula(f.left, alg, env), ref_formula(f.right, alg, env))
    raise TypeError(f"cannot denote formula {f!r}")


def ref_structure(s, pol, alg, env):
    ANT, SUC = Polarity.ANT, Polarity.SUC
    if mv.is_meta(s):
        return env[s]
    if isinstance(s, Phi):
        return alg.full_team if pol is ANT else 0
    if isinstance(s, (Comma, Semi)):
        l, r = ref_structure(s.left, pol, alg, env), ref_structure(s.right, pol, alg, env)
        return l & r if pol is ANT else l | r
    if isinstance(s, Sup):
        if pol is ANT:
            return alg.complement_team(ref_structure(s.left, SUC, alg, env)) & ref_structure(
                s.right, ANT, alg, env
            )
        return alg.complement_team(ref_structure(s.left, ANT, alg, env)) | ref_structure(
            s.right, SUC, alg, env
        )
    if isinstance(s, FOf):
        return alg.f(ref_structure(s.body, pol, alg, env))
    if isinstance(s, DownOf):
        return alg.downset(ref_structure(s.body, pol, alg, env))
    if isinstance(s, FStarOf):
        if pol is SUC:
            raise InqmtError("Fs has no succedent-part reading")
        return alg.f_star(ref_structure(s.body, ANT, alg, env))
    if isinstance(s, Gt):
        if pol is SUC:
            return alg.heyting(
                ref_structure(s.left, ANT, alg, env), ref_structure(s.right, SUC, alg, env)
            )
        return alg.coimp(
            ref_structure(s.right, ANT, alg, env), ref_structure(s.left, SUC, alg, env)
        )
    if isinstance(s, (FlatFml, GenFml)):
        return ref_formula(s.formula, alg, env)
    raise TypeError(f"cannot denote {s!r}")


def ref_sequent_holds(seq, alg, env):
    a = ref_structure(seq.antecedent, Polarity.ANT, alg, env)
    s = ref_structure(seq.succedent, Polarity.SUC, alg, env)
    return a & ~s == 0

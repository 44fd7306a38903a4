"""Brute-force team semantics for InqL over a finite variable context.

``support`` is the reference evaluator: a direct transcription of the
support clauses, with the implication clause walking every subteam; its
goals wait on an explicit stack, so deep formulas need no recursion.  The
table evaluator computes the full set of supporting teams bottom-up with
exact mask arithmetic; the implication case quantifies over subteams
through an up-closure sweep, not through any flatness shortcut.  Each
context's algebra keeps the tables of the formulas still held anywhere
(TeamAlgebra.tables), so a subformula met again is read, not computed,
until it is dropped.  The two routes are cross-checked against each
other by the test suite; validity, entailment, flatness and the
deduction-theorem and disjunction-property checks all run on tables, at
any context size the context allows (four variables).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import algebra
from .contexts import Context, subteams
from .formulas import (
    IAnd,
    IImp,
    IOr,
    IVar,
    IZero,
    InqFormula,
    fold,
)


def support(ctx: Context, team: int, phi: InqFormula) -> bool:
    """S |= phi by the support clauses, one generator per connective.

    A clause yields the (formula, team) goals it needs, in order, and is
    sent back their truth values; it stops at the first goal that
    settles it.  The goals wait on an explicit stack, so nesting depth
    costs memory, not recursion, and each goal is decided once (memo).
    """
    memo: dict[tuple[InqFormula, int], bool] = {}
    waiting: list = []  # (goal, its running clause), innermost last
    goal = (phi, team)
    while True:
        value = memo.get(goal)
        if value is None:
            f, s = goal
            cls = type(f)
            if cls is IVar:
                value = memo[goal] = s & ~ctx.var_team(f.name) == 0
            elif cls is IZero:
                value = memo[goal] = s == 0
            elif cls in _CLAUSES:
                waiting.append((goal, _CLAUSES[cls](f, s)))
            else:
                raise TypeError(f"not an InqL formula: {f!r}")
        while waiting:
            top, clause = waiting[-1]
            try:
                goal = clause.send(value)
                break
            except StopIteration as done:
                waiting.pop()
                value = memo[top] = done.value
        else:
            return value


def _and_clause(f: IAnd, s: int):
    return (yield f.left, s) and (yield f.right, s)


def _or_clause(f: IOr, s: int):
    return (yield f.left, s) or (yield f.right, s)


def _imp_clause(f: IImp, s: int):
    for sub in subteams(s):
        if (yield f.left, sub) and not (yield f.right, sub):
            return False
    return True


_CLAUSES = {IAnd: _and_clause, IOr: _or_clause, IImp: _imp_clause}


def support_table(ctx: Context, phi: InqFormula) -> int:
    """Mask over all teams: bit S set iff S |= phi.  Every subformula's
    table goes into the algebra's weak memo, and one already there is
    read back, not computed or walked again."""
    alg = algebra.for_context(ctx)
    return fold(phi, table_step(alg), alg.tables)


def table_step(alg: algebra.TeamAlgebra):
    """The node step of support_table: a node's table from its parts'."""
    binary = {IAnd: int.__and__, IOr: int.__or__, IImp: alg.heyting}

    def table(f: InqFormula, done: dict) -> int:
        cls = type(f)
        if cls is IVar:
            return alg.var_downset(f.name)
        if cls is IZero:
            return 1
        if cls not in binary:
            raise TypeError(f"not an InqL formula: {f!r}")
        return binary[cls](done[f.left], done[f.right])

    return table


def valid(ctx: Context, phi: InqFormula) -> bool:
    """Supported by every team over the context."""
    alg = algebra.for_context(ctx)
    return support_table(ctx, phi) == alg.full


def entails(ctx: Context, premises: Iterable[InqFormula], phi: InqFormula) -> bool:
    """Every team supporting all premises supports phi."""
    alg = algebra.for_context(ctx)
    holds = alg.full
    for g in premises:
        holds &= support_table(ctx, g)
    return holds & ~support_table(ctx, phi) == 0


def is_flat_semantic(ctx: Context, phi: InqFormula) -> bool:
    """Support determined pointwise: S |= phi iff {v} |= phi for all v in S."""
    return is_flat_table(ctx, support_table(ctx, phi))


def is_flat_table(ctx: Context, table: int) -> bool:
    """Whether a support table is pointwise: it holds exactly the teams
    all of whose singletons it holds."""
    good = 0
    for w in ctx.worlds():
        if (table >> (1 << w)) & 1:
            good |= 1 << w
    return table == algebra.for_context(ctx).downset(good)


def check_deduction_theorem(
    ctx: Context, premises: Sequence[InqFormula], phi: InqFormula, psi: InqFormula
) -> bool:
    """Whether  premises, phi |= psi  iff  premises |= phi -> psi  holds."""
    left = entails(ctx, list(premises) + [phi], psi)
    right = entails(ctx, premises, IImp(phi, psi))
    return left == right


def check_disjunction_property(ctx: Context, phi: InqFormula, psi: InqFormula) -> bool:
    """Whether validity of phi \\/ psi forces validity of a disjunct."""
    if not valid(ctx, IOr(phi, psi)):
        return True
    return valid(ctx, phi) or valid(ctx, psi)

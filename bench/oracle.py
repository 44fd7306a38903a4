"""Answers the benchmark computes apart from the package.

Support is evaluated straight from the clauses of the team semantics,
quantifying over subteams by enumeration.  Worlds and teams use the
encoding the package documents for its contexts: bit i of a world is the
value of the i-th declared variable, and bit w of a team is set when
world w belongs to it, so a table of supporting teams is a mask over
team numbers.
"""

from __future__ import annotations

from gen import VARS
from terms import atoms, nodes, size


def subteams(team: int):
    sub = team
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & team


def support_table(phi, k: int) -> int:
    """Mask of the teams over VARS[:k] that support the InqL term phi."""
    n_worlds = 1 << k
    n_teams = 1 << n_worlds
    names = VARS[:k]

    def worlds_where(i):
        return sum(1 << w for w in range(n_worlds) if (w >> i) & 1)

    def table(f) -> int:
        if isinstance(f, str):
            if f == "0":
                return 1  # only the empty team
            allowed = worlds_where(names.index(f))
            return sum(1 << s for s in range(n_teams) if s & ~allowed == 0)
        if f[0] == "~":
            return table(("->", f[1], "0"))
        if f[0] == "?":
            return table(("\\/", f[1], ("~", f[1])))
        op, left, right = f
        a, b = table(left), table(right)
        if op == "/\\":
            return a & b
        if op == "\\/":
            return a | b
        out = 0
        for s in range(n_teams):
            if all(not (a >> t) & 1 or (b >> t) & 1 for t in subteams(s)):
                out |= 1 << s
        return out

    return table(phi)


def all_teams(k: int) -> int:
    return (1 << (1 << (1 << k))) - 1


def is_flat(table: int, k: int) -> bool:
    """Support determined pointwise: S supports iff each {w} in S does."""
    n_worlds = 1 << k
    good = [(table >> (1 << w)) & 1 for w in range(n_worlds)]
    for s in range(1 << n_worlds):
        pointwise = all(good[w] for w in range(n_worlds) if (s >> w) & 1)
        if pointwise != bool((table >> s) & 1):
            return False
    return True


_WITH_WORLD: dict[tuple[int, int], int] = {}


def down_closed(table: int, k: int) -> bool:
    """Every team in the table keeps all its subteams in it; checked one
    world at a time, since removing world w from team s gives s - 2^w."""
    n_teams = 1 << (1 << k)
    for w in range(1 << k):
        if (k, w) not in _WITH_WORLD:
            _WITH_WORLD[k, w] = sum(1 << s for s in range(n_teams) if (s >> w) & 1)
        if ((table & _WITH_WORLD[k, w]) >> (1 << w)) & ~table:
            return False
    return True


# ---------------------------------------------------------------------------
# Derivations, read back with terms.read_script


def cut_sizes(d) -> list[int]:
    """Sorted sizes of the cut formulas: the cut formula of either cut is
    the succedent of its first premise."""
    return sorted(size(node[3][0][2]) for _, node in nodes(d) if node[0] == "Cut")


def multiset_decreased(old: list[int], new: list[int]) -> bool:
    """new is below old in the multiset extension of < on sizes."""
    old, new = list(old), list(new)
    for x in list(new):
        if x in old:
            old.remove(x)
            new.remove(x)
    return bool(old) and all(any(x < y for y in old) for x in new)


def leaf_refuted(left: str, right: str, assignment: dict) -> bool:
    """Whether the Flat leaf  left |- right  fails: left's team leaves
    right's (the team of 0 is empty)."""
    return assignment[left] & ~(0 if right == "0" else assignment[right]) != 0


def exhaustive_assignments(d, n_teams: int) -> int:
    """Assignments an exhaustive audit checks: per node, every map from
    the variables of its conclusion and premises to teams."""
    total = 0
    for _, (rule, ant, suc, premises) in nodes(d):
        names = atoms(ant) | atoms(suc)
        for p in premises:
            names |= atoms(p[1]) | atoms(p[2])
        total += n_teams ** len(names - {"0", "Ph"})
    return total

"""Seeded generators for the benchmark's inputs, on its own term tuples.

Nothing here imports the package: the inputs of a seed are the same
texts whichever version of the package reads them.

Formula generators take two random sources.  ``shape`` fixes the tree:
an exact node count split near the middle, the sizes of leaves and,
for InqL, where each connective and each piece of sugar sits.  ``fill``
picks the atoms and, for Flat and General formulas, the connectives.
The workloads draw each operation's shape from a source fixed by the
operation's place in the list and the fill from the run's seed, so every
seed gives new formulas whose cost stays close to that of the same
operation on any other seed.
"""

from __future__ import annotations

VARS = ("p", "q", "r", "s")
FRESH = "z"  # never produced by the generators; planted defects use it

FLAT_OPS = ("&", "~>")
GEN_OPS = ("/\\", "\\/", "=>")
INQ_OPS = ("/\\", "\\/", "->")

FLAT_STRUCT = frozenset((",", "|>", "F", "Ph", "&", "~>"))


def _split(rng, n: int, low: int) -> int:
    """Size of the left part when n nodes split into two parts of at least low."""
    lo = max(low, int(n * 0.4))
    hi = min(n - low, int(n * 0.6))
    return rng.randint(lo, hi) if lo <= hi else n // 2


def flat(shape, fill, n: int, names=VARS):
    """A Flat formula of exactly n nodes (n odd; even n gets one node less)."""
    if n <= 2:
        return fill.choice(names + ("0",)) if fill.random() < 0.15 else fill.choice(names)
    n -= 1
    left = _split(shape, n, 1) | 1  # binary trees have odd sizes
    return (fill.choice(FLAT_OPS), flat(shape, fill, left, names), flat(shape, fill, n - left, names))


def general(shape, fill, n: int, names=VARS):
    """A General formula of about n nodes; leaves are dn(small Flat formula)."""
    if n <= 6:
        return ("dn", flat(shape, fill, max(1, n - 1), names))
    n -= 1
    left = _split(shape, n, 2)
    return (
        fill.choice(GEN_OPS),
        general(shape, fill, left, names),
        general(shape, fill, n - left, names),
    )


def _tree(rng, n: int):
    """A binary tree of n nodes (n odd), split near the middle; None is a leaf."""
    if n <= 1:
        return None
    n -= 1
    left = _split(rng, n, 1) | 1
    return (_tree(rng, left), _tree(rng, n - left))


def inql(shape, fill, n: int, names=VARS):
    """An InqL formula of n binary-tree nodes (n odd) plus its sugar.

    The connectives are a multiset holding the three binary connectives
    in equal shares, one leaf in eight is 0, and one leaf in four carries
    ~ or ? (alternately); shape places them all, fill picks the variables."""
    tree = _tree(shape, n | 1)
    internal = (n | 1) // 2
    leaves = internal + 1
    ops = [INQ_OPS[i % 3] for i in range(internal)]
    zero = [True] * (leaves // 8) + [False] * (leaves - leaves // 8)
    sugar = ["~?"[i % 2] for i in range(leaves // 4)] + [""] * (leaves - leaves // 4)
    for pool in (ops, zero, sugar):
        shape.shuffle(pool)

    def build(node):
        if node is None:
            t = "0" if zero.pop() else fill.choice(names)
            mark = sugar.pop()
            return (mark, t) if mark else t
        return (ops.pop(), build(node[0]), build(node[1]))

    return build(tree)


def rename(t, k: int):
    """Map the i-th variable to the (i mod k)-th, so the term lives over k variables."""
    if isinstance(t, str):
        return VARS[VARS.index(t) % k] if t in VARS else t
    return (t[0],) + tuple(rename(c, k) for c in t[1:])


def is_flat_sort(t) -> bool:
    if isinstance(t, str):
        return True  # variables, 0 and Ph
    return t[0] in FLAT_STRUCT


# ---------------------------------------------------------------------------
# Derivations: (rule, antecedent, succedent, premises)


def _d(rule, ant, suc, *premises):
    return (rule, ant, suc, tuple(premises))


def id_flat(a):
    if isinstance(a, str):
        if a == "0":
            return _d("0R", a, a, _d("0L", a, "Ph"))
        return _d("Id", a, a)
    op, l, r = a
    if op == "&":
        return _d("capL", a, a, _d("capR", (",", l, r), a, id_flat(l), id_flat(r)))
    return _d("fimpR", a, a, _d("fimpL", a, ("|>", l, r), id_flat(l), id_flat(r)))


def id_general(a):
    if a[0] == "dn":
        body = a[1]
        mon = _d("d mon", ("Dn", body), ("Dn", body), id_flat(body))
        return _d("dnR", a, a, _d("dnL", a, ("Dn", body), mon))
    op, l, r = a
    if op == "/\\":
        return _d("andL", a, a, _d("andR", (";", l, r), a, id_general(l), id_general(r)))
    if op == "\\/":
        return _d("orR", a, a, _d("orL", a, (";", l, r), id_general(l), id_general(r)))
    return _d("impR", a, a, _d("impL", a, (">", l, r), id_general(l), id_general(r)))


def principal_cut(f):
    """A derivation ending in a cut on f, principal on both sides."""
    if isinstance(f, str):
        if f == "0":
            return _d("Cut", f, "Ph", id_flat(f), _d("0L", f, "Ph"))
        return _d("Cut", f, f, _d("Id", f, f), _d("Id", f, f))
    op = f[0]
    if op == "dn":
        body = f[1]
        down = ("Dn", body)
        provider = _d("dnR", down, f, _d("d mon", down, down, id_flat(body)))
        consumer = _d("dnL", f, down, _d("d mon", down, down, id_flat(body)))
        return _d("Cut", down, down, provider, consumer)
    _, a, b = f
    if op in ("&", "/\\"):
        pair, ident, left, right = (
            ((",", a, b), id_flat, "capR", "capL")
            if op == "&"
            else ((";", a, b), id_general, "andR", "andL")
        )
        provider = _d(left, pair, f, ident(a), ident(b))
        consumer = _d(right, f, f, _d(left, pair, f, ident(a), ident(b)))
        return _d("Cut", pair, f, provider, consumer)
    if op == "\\/":
        pair = (";", a, b)
        provider = _d("orR", f, f, _d("orL", f, pair, id_general(a), id_general(b)))
        consumer = _d("orL", f, pair, id_general(a), id_general(b))
        return _d("Cut", f, pair, provider, consumer)
    arrow, ident, left, right = (
        (("|>", a, b), id_flat, "fimpR", "fimpL")
        if op == "~>"
        else ((">", a, b), id_general, "impR", "impL")
    )
    provider = _d(left, f, f, _d(right, f, arrow, ident(a), ident(b)))
    consumer = _d(right, f, arrow, ident(a), ident(b))
    return _d("Cut", f, arrow, provider, consumer)


def weakening_chain(atoms):
    """Id p |- p followed by one left weakening per atom, built bottom-up."""
    d = _d("Id", "p", "p")
    ant = "p"
    for atom in atoms:
        ant = (",", ant, atom)
        d = _d("W", ant, "p", d)
    return d


def plant_break(d, addr):
    """Replace the succedent of the node at addr by a fresh formula.

    Every rule that occurs in an identity derivation binds its
    conclusion's succedent to its premises (or fixes it), so the node no
    longer matches; the first failing node is it or its parent."""
    def rebuild(node, rest):
        rule, ant, suc, premises = node
        if not rest:
            return (rule, ant, FRESH if is_flat_sort(suc) else ("dn", FRESH), premises)
        i = rest[0]
        kids = list(premises)
        kids[i] = rebuild(kids[i], rest[1:])
        return (rule, ant, suc, tuple(kids))

    return rebuild(d, addr)


def plant_leaf(d, addr, left: str, right: str):
    """Replace the node at addr by the leaf  left |- right, which no
    assignment with left's team outside right's team satisfies."""
    if not addr:
        return _d("Id", left, right)
    rule, ant, suc, premises = d
    kids = list(premises)
    kids[addr[0]] = plant_leaf(kids[addr[0]], addr[1:], left, right)
    return (rule, ant, suc, tuple(kids))

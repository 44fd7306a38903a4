"""The interned term layer, and formula ASTs for the three sorts.

Every formula, structure, metavariable, sequent and derivation is a
``Term``: an immutable node whose fields are its constructor arguments.
Terms are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): building a term returns the one live object with
that class and those fields, so equal terms are the same object, ``==``
is identity and hashing costs O(1) at any depth.  The table holds its
terms weakly, so a term nobody holds leaves it.  Terms are safe to share
between concurrent readers.

Trees are read through explicit-stack walks, so no depth of nesting
costs interpreter frames: ``subterms`` yields every distinct subterm
once, parents first, ``fold`` computes a value bottom-up from the
values of each node's parts, and ``render`` writes a tree's text, as
``repr`` of terms does.

InqL formulas are the source language: a classical core (variables, 0,
conjunction, implication) extended with inquisitive disjunction.  The
classical layer is not a separate AST sort; it is recoverable through
``is_classical``.  Flat and General formulas form the two-sorted target
language, where every General leaf wraps a Flat formula.  Negation-style
sugar is expanded by the constructors below (and by the parser), never
stored; the parser module prints every sort.
"""

from __future__ import annotations

from typing import Iterable
from weakref import ref

from _weakref import _remove_dead_weakref  # the dict step of WeakValueDictionary

# (class, fields) -> a weak reference to the live term with those fields.
# Every change to it is one dict operation, atomic under the interpreter
# lock, so threads may build terms concurrently.
_TABLE: dict = {}


class _Entry(ref):
    """A table entry: a weak reference to a term that knows its key."""

    __slots__ = ("key",)


def _forget(entry: _Entry):
    """Drop a dead term's entry, unless a live term already took its key."""
    _remove_dead_weakref(_TABLE, entry.key)


class Term:
    """An interned node.  A subclass lists its fields in __slots__; every
    field holds a term, except the single name field of a named leaf
    (variables and metavariables), and a derivation's rule (a name) and
    premises (a tuple of derivations).  ``parts`` is the tuple of the
    terms below a node, which subterms and fold walk: a node's fields, in
    order, none for a named leaf, and a derivation's premises, so a walk
    over a derivation visits its distinct nodes and not their sequents."""

    __slots__ = ("parts", "__weakref__")

    def __new__(cls, *args):
        key = (cls, args)
        entry = _TABLE.get(key)
        if entry is not None:
            term = entry()
            if term is not None:
                return term
        fields = cls.__slots__
        if len(args) != len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        term = object.__new__(cls)
        for name, value in zip(fields, args):
            object.__setattr__(term, name, value)
        object.__setattr__(term, "parts", () if fields == ("name",) else args)
        new = _Entry(term, _forget)
        new.key = key
        term = _TABLE.setdefault(key, new)()
        if term is not None:  # ours, or one another thread built meanwhile
            return term
        _remove_dead_weakref(_TABLE, key)  # a dead term whose entry is still to go
        return cls(*args)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign or delete {name!r} of an interned term")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return render(self, _call_pieces)

    def __str__(self) -> str:
        from .parser import print_term  # deferred: the parser imports this module

        return print_term(self)


def _call_pieces(t: Term) -> list:
    """The constructor call of t, e.g. FVar(name='p'), with its parts,
    and the members of a tuple field, left as terms."""
    pieces: list = [f"{type(t).__name__}("]
    for i, f in enumerate(t.__slots__):
        value = getattr(t, f)
        pieces.append(f"{', ' if i else ''}{f}=")
        if type(value) is tuple:
            pieces.append("(")
            for j, member in enumerate(value):
                pieces += (", ", member) if j else (member,)
            pieces.append(",)" if len(value) == 1 else ")")
        else:
            pieces.append(value if isinstance(value, Term) else repr(value))
    pieces.append(")")
    return pieces


def render(root, pieces) -> str:
    """The text of root, written with an explicit stack so that no depth
    recurses: pieces(node) lists the node's text as strings and as nodes
    rendered in their place."""
    out: list[str] = []
    todo = [root]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        else:
            todo += reversed(pieces(item))
    return "".join(out)


def subterms(*roots: Term):
    """Every distinct subterm of the roots, each once, in pre-order: a
    node before its parts, parts left to right, the roots in order.  It
    crosses from General into Flat through dn."""
    seen = set()
    todo = list(reversed(roots))
    while todo:
        t = todo.pop()
        if t not in seen:
            seen.add(t)
            yield t
            todo.extend(reversed(t.parts))


def fold(root: Term, visit, done=None):
    """visit(t, done) at every distinct subterm t of root, parts before
    their node and the left before the right, done mapping every subterm
    visited so far (t's parts among them) to its value.  Returns the
    value at root.  A done passed in is read and extended in place: a
    subterm already in it is neither visited again nor walked into."""
    if done is None:
        done = {}
    todo: list = [root]
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # (node,): its parts are done
            t = t[0]
            done[t] = visit(t, done)
        elif t not in done:
            todo.append((t,))
            todo.extend(reversed(t.parts))
    return done[root]


def variables(*roots: Term) -> frozenset[str]:
    """The propositional variables occurring in the roots."""
    return frozenset(t.name for t in subterms(*roots) if type(t) in (IVar, FVar))


def formula_size(f: Term) -> int:
    """Node count; Down counts as one node above its Flat body."""
    return fold(f, lambda t, done: 1 + sum(done[k] for k in t.parts))


# ---------------------------------------------------------------------------
# InqL formulas


class InqFormula(Term):
    __slots__ = ()


class IVar(InqFormula):
    __slots__ = ("name",)


class IZero(InqFormula):
    __slots__ = ()


class IAnd(InqFormula):
    __slots__ = ("left", "right")


class IImp(InqFormula):
    __slots__ = ("left", "right")


class IOr(InqFormula):
    __slots__ = ("left", "right")


IZERO = IZero()


def inq_neg(phi: InqFormula) -> InqFormula:
    """~phi, stored as phi -> 0."""
    return IImp(phi, IZERO)


def inq_question(phi: InqFormula) -> InqFormula:
    """?phi, the polar question phi \\/ ~phi."""
    return IOr(phi, inq_neg(phi))


def inq_dependence(determiners: Iterable[InqFormula], determined: InqFormula) -> InqFormula:
    """=(p1,...,pn,q) sugar: ?p1 /\\ ... /\\ ?pn -> ?q (just ?q when n = 0)."""
    determiners = list(determiners)
    target = inq_question(determined)
    if not determiners:
        return target
    antecedent = inq_question(determiners[0])
    for d in determiners[1:]:
        antecedent = IAnd(antecedent, inq_question(d))
    return IImp(antecedent, target)


def is_classical(phi: InqFormula) -> bool:
    """True iff no inquisitive disjunction occurs anywhere in the formula."""
    if not isinstance(phi, InqFormula):
        raise TypeError(f"not an InqL formula: {phi!r}")
    return not any(type(t) is IOr for t in subterms(phi))


# ---------------------------------------------------------------------------
# Flat formulas


class FlatFormula(Term):
    __slots__ = ()


class FVar(FlatFormula):
    __slots__ = ("name",)


class FZero(FlatFormula):
    __slots__ = ()


class Cap(FlatFormula):
    __slots__ = ("left", "right")


class FImp(FlatFormula):
    __slots__ = ("left", "right")


FZERO = FZero()


def flat_neg(alpha: FlatFormula) -> FlatFormula:
    """~alpha, stored as alpha ~> 0."""
    return FImp(alpha, FZERO)


def flat_join(alpha: FlatFormula, beta: FlatFormula) -> FlatFormula:
    """alpha | beta, stored as ~alpha ~> beta."""
    return FImp(flat_neg(alpha), beta)


# ---------------------------------------------------------------------------
# General formulas


class GeneralFormula(Term):
    __slots__ = ()


class Down(GeneralFormula):
    __slots__ = ("body",)


class GAnd(GeneralFormula):
    __slots__ = ("left", "right")


class GOr(GeneralFormula):
    __slots__ = ("left", "right")


class GImp(GeneralFormula):
    __slots__ = ("left", "right")


GFALSUM = Down(FZERO)


def gen_neg(a: GeneralFormula) -> GeneralFormula:
    """neg A, stored as A => dn(0)."""
    return GImp(a, GFALSUM)


# ---------------------------------------------------------------------------
# Bounded enumeration: the InqL population of the semantic suites and the
# cut formulas of the reduction suite.  Height counts atoms as 1.


def iter_terms(atoms: Iterable[Term], connectives: tuple, max_height: int):
    """The terms of height at most max_height over the atoms and the
    binary connectives, one level after the next: the atoms, then each
    connective over two terms below the level, one of them at least from
    the level just before, connectives and operands in the order given.
    Only the levels below the last are held; the last is built as read."""
    level: Iterable[Term] = tuple(atoms)
    below: tuple[Term, ...] = ()
    for height in range(2, max_height + 1):
        yield from level
        below += level
        prev = frozenset(level)
        level = (
            op(l, r) for op in connectives for l in below for r in below if l in prev or r in prev
        )
        if height < max_height:
            level = tuple(level)
    yield from level


def iter_inql(variables: tuple[str, ...], max_height: int):
    """iter_terms over the variables and 0, with /\\, -> and \\/."""
    return iter_terms((*(IVar(v) for v in variables), IZERO), (IAnd, IImp, IOr), max_height)


def enumerate_inql(variables: tuple[str, ...], max_height: int) -> tuple[InqFormula, ...]:
    return tuple(iter_inql(variables, max_height))

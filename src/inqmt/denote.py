"""The one denotation compiler of the package.

Every denotation runs through here: Flat and General formulas, structures
at a polarity, the sequents of a derivation node and the pattern
sequents of the rule table.  ``Compiler`` turns a list of roots (terms
or sequents) into a ``Program``, a straight-line list of operations over
numbered slots.  Slots are shared by value numbering: an operation is
keyed by its opcode and the slots of its operands, so a subterm that
occurs in several roots, read at the same polarity, is computed once per
assignment.  Leaves are propositional variables (keyed by name) and
metavariables (keyed by themselves); they take the first slots, in an
order the caller chooses, and the constants follow them.

Structures are read as before: Phi as the unit of its position (all
worlds in antecedent position, no worlds in succedent position); comma
and semicolon as meet/join by position; the Flat arrow as Boolean
difference in antecedent position and material implication in succedent
position; the General arrow as co-implication and relative
pseudo-complement; F, F*, Dn as the three maps, F* having no succedent
reading.  A program reaching F* in succedent position raises when it
runs, so a sequent that is never evaluated never raises.

``Machine`` runs programs over one algebra.  It memoises the costly maps
(downset, f, f*, heyting, co-implication) for its own lifetime, which is one public
call: nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import metavars as mv
from .errors import InqmtError
from .formulas import Cap, Down, FImp, FVar, FZero, GAnd, GImp, GOr
from .structures import Comma, DownOf, FOf, FStarOf, FlatFml, GenFml, Gt, Phi, Semi, Sequent, Sup


class Polarity(Enum):
    ANT = "antecedent-part"
    SUC = "succedent-part"


ANT, SUC = Polarity.ANT, Polarity.SUC

# Opcodes, the commonest first: the machine tests them in this order.
# Each operation reads slots x = s[a] and y = s[b] (b = a when unary).
AND, OR, DOWN, HEY, IMP, DIFF, F, COIMP, FSTAR, FAIL = range(10)

# class -> (opcode in antecedent position, opcode in succedent position,
# whether the left operand is read at the opposite polarity).  Formulas
# carry the polarity of their enclosing structure, which matters only
# for the polarities recorded at leaves.
_BINARY = {
    Cap: (AND, AND, False),
    FImp: (IMP, IMP, False),
    GAnd: (AND, AND, False),
    GOr: (OR, OR, False),
    GImp: (HEY, HEY, False),
    Comma: (AND, OR, False),
    Semi: (AND, OR, False),
    # X |> Y: complement(X) meets Y in antecedent position, joins it in
    # succedent position
    Sup: (DIFF, IMP, True),
    # X > Y: coimp(Y, X) in antecedent position, heyting(X, Y) in succedent
    Gt: (COIMP, HEY, True),
}
# class -> (opcode in antecedent position, opcode in succedent position)
# of the classes with the one operand body
_UNARY = {
    Down: (DOWN, DOWN),
    FOf: (F, F),
    DownOf: (DOWN, DOWN),
    FStarOf: (FSTAR, FAIL),
}
_OTHER = {ANT: SUC, SUC: ANT}
# markers of pending operations on the compiler's work stack
_MAKE1, _MAKE2 = object(), object()


@dataclass(frozen=True)
class Program:
    """leaves: the keys of the input slots, in slot order.  consts: the
    values of the slots that follow them.  segments: per root, the
    operations it adds, as (opcode, slot, slot); each writes the next
    free slot.  results: per root, its slot, or (antecedent slot,
    succedent slot) for a sequent."""

    leaves: tuple
    consts: tuple
    segments: tuple
    results: tuple


class Compiler:
    def __init__(self, top: int):
        self.top = top  # the team of all worlds: Phi in antecedent position
        self._nodes: list[tuple] = []  # ("leaf", key) | ("const", v) | (opcode, a, b)
        self._index: dict = {}  # constant or operation node -> node id
        self._leaf_ids: dict = {}  # leaf key -> node id, in order of first occurrence
        self._occurrences: set = set()  # (leaf key, polarity)
        self._roots: list[tuple] = []  # (node count before the root, result node ids)

    def _walk(self, root, pol: Polarity) -> int:
        """The node computing root at pol; an explicit stack, no recursion."""
        nodes, index, leaf_ids = self._nodes, self._index, self._leaf_ids
        occurrences = self._occurrences
        todo: list = [(root, pol)]
        push, pop = todo.append, todo.pop
        done: list[int] = []
        while todo:
            t, p = pop()
            if t is _MAKE2:
                b = done.pop()
                node = (p, done.pop(), b)
            elif t is _MAKE1:
                a = done.pop()
                node = (p, a, a)
            else:
                cls = type(t)
                shape = _BINARY.get(cls)
                if shape is not None:
                    push((_MAKE2, shape[0] if p is ANT else shape[1]))
                    push((t.right, p))
                    push((t.left, _OTHER[p] if shape[2] else p))
                    continue
                shape = _UNARY.get(cls)
                if shape is not None:
                    push((_MAKE1, shape[0] if p is ANT else shape[1]))
                    push((t.body, p))
                    continue
                if cls is FlatFml or cls is GenFml:
                    push((t.formula, p))
                    continue
                if cls is FVar or isinstance(t, mv.META_TYPES):
                    key = t.name if cls is FVar else t
                    occurrences.add((key, p))
                    i = leaf_ids.get(key)
                    if i is None:
                        i = leaf_ids[key] = len(nodes)
                        nodes.append(("leaf", key))
                    done.append(i)
                    continue
                if cls is FZero:
                    node = ("const", 0)
                elif cls is Phi:
                    node = ("const", self.top if p is ANT else 0)
                else:
                    raise TypeError(f"cannot denote {t!r}")
            i = index.get(node)
            if i is None:
                i = index[node] = len(nodes)
                nodes.append(node)
            done.append(i)
        return done[0]

    def add_term(self, term, pol: Polarity) -> "Compiler":
        start = len(self._nodes)
        self._roots.append((start, self._walk(term, pol)))
        return self

    def add_sequent(self, seq: Sequent) -> "Compiler":
        start = len(self._nodes)
        ant = self._walk(seq.antecedent, ANT)
        self._roots.append((start, (ant, self._walk(seq.succedent, SUC))))
        return self

    @property
    def leaf_keys(self) -> list:
        """Leaf keys in order of first occurrence."""
        return list(self._leaf_ids)

    @property
    def polarities(self) -> dict:
        """Per leaf key, the polarities of its occurrences."""
        out: dict = {}
        for key, pol in self._occurrences:
            out.setdefault(key, set()).add(pol)
        return out

    def program(self, leaf_order=None) -> Program:
        """Number the slots: leaves in leaf_order (default: first
        occurrence), which must name every leaf and may name more, then
        the constants, then the operations in the order they were made."""
        leaves = tuple(self._leaf_ids if leaf_order is None else leaf_order)
        missing = set(self._leaf_ids) - set(leaves)
        if missing:
            raise ValueError(f"no input slot for {sorted(map(str, missing))}")
        slot = {self._leaf_ids[k]: i for i, k in enumerate(leaves) if k in self._leaf_ids}
        consts = []
        for i, node in enumerate(self._nodes):
            if len(node) == 2 and node[0] == "const":
                slot[i] = len(leaves) + len(consts)
                consts.append(node[1])
        next_slot = len(leaves) + len(consts)
        segments = []
        bounds = [start for start, _ in self._roots[1:]] + [len(self._nodes)]
        for (start, _), end in zip(self._roots, bounds):
            ops = []
            for i in range(start, end):
                node = self._nodes[i]
                if len(node) == 2:  # a leaf or a constant
                    continue
                code, a, b = node
                ops.append((code, slot[a], slot[b]))
                slot[i] = next_slot
                next_slot += 1
            segments.append(tuple(ops))
        results = tuple(
            tuple(slot[i] for i in r) if isinstance(r, tuple) else slot[r]
            for _, r in self._roots
        )
        return Program(leaves, tuple(consts), tuple(segments), results)


class Machine:
    """Runs programs over one algebra.  The memo tables live as long as
    the machine; make one per public call."""

    def __init__(self, alg):
        top = alg.full_team
        downset, f, f_star, heyting, coimp = alg.downset, alg.f, alg.f_star, alg.heyting, alg.coimp
        downs: dict = {}
        unions: dict = {}
        stars: dict = {}
        heys: dict = {}
        coimps: dict = {}

        def run(ops, s):
            push = s.append
            for code, a, b in ops:
                x = s[a]
                if code == AND:
                    push(x & s[b])
                elif code == OR:
                    push(x | s[b])
                elif code == DOWN:
                    y = downs.get(x)
                    if y is None:
                        y = downs[x] = downset(x)
                    push(y)
                elif code == HEY:
                    k = (x, s[b])
                    y = heys.get(k)
                    if y is None:
                        y = heys[k] = heyting(x, s[b])
                    push(y)
                elif code == IMP:
                    push(top & ~x | s[b])
                elif code == DIFF:
                    push(top & ~x & s[b])
                elif code == F:
                    y = unions.get(x)
                    if y is None:
                        y = unions[x] = f(x)
                    push(y)
                elif code == COIMP:
                    k = (s[b], x)
                    y = coimps.get(k)
                    if y is None:
                        y = coimps[k] = coimp(s[b], x)
                    push(y)
                elif code == FSTAR:
                    y = stars.get(x)
                    if y is None:
                        y = stars[x] = f_star(x)
                    push(y)
                else:
                    raise InqmtError("Fs has no succedent-part reading")

        def fails(prog: Program, values) -> bool:
            """Whether every sequent root but the last holds and the last
            does not; roots after the first failing one are not run."""
            s = [*values, *prog.consts]
            last = len(prog.segments) - 1
            for i, ops in enumerate(prog.segments):
                run(ops, s)
                a, c = prog.results[i]
                if s[a] & ~s[c]:
                    return i == last
            return False

        def slots(prog: Program, values) -> list:
            s = [*values, *prog.consts]
            for ops in prog.segments:
                run(ops, s)
            return s

        self.fails = fails
        self.slots = slots


def bind(prog: Program, assignment: dict) -> list:
    """Leaf values in slot order, read from an assignment keyed by
    variable name or by metavariable."""
    values = []
    for key in prog.leaves:
        if key not in assignment:
            raise ValueError(f"unknown variable {key!r} in assignment")
        values.append(assignment[key])
    return values


def denote(alg, term, pol: Polarity, assignment: dict) -> int:
    """The denotation of one formula or structure at a polarity."""
    prog = Compiler(alg.full_team).add_term(term, pol).program()
    return Machine(alg).slots(prog, bind(prog, assignment))[prog.results[0]]

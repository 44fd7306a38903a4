"""The one denotation compiler of the package.

Every denotation runs through here: Flat and General formulas, structures
at a polarity, the sequents of derivation nodes and the pattern sequents
of the rule table.  ``Compiler`` turns a list of roots (terms or
sequents) into a ``Program``, a straight-line list of operations over
numbered slots, each writing its own slot.  Slots are shared by value
numbering: an operation is keyed by its opcode and the slots of its
operands, so a subterm that occurs in several roots, read at the same
polarity, is computed once per assignment.  Terms are interned, so the
compiler keeps, per polarity, the node of every term it has read there:
a term met again at that polarity is looked up and not walked, and
compiling costs the distinct (term, polarity) pairs of its roots, not
their tree size.  Leaves are propositional variables (keyed by name) and
metavariables (keyed by themselves), and a leaf's occurrence is recorded
once per polarity it is read at; leaves take the first slots, in an
order the caller chooses, and the constants follow them.

Structures are read as before: Phi as the unit of its position (all
worlds in antecedent position, no worlds in succedent position); comma
and semicolon as meet/join by position; the Flat arrow as Boolean
difference in antecedent position and material implication in succedent
position; the General arrow as co-implication and relative
pseudo-complement; F, F*, Dn as the three maps, F* having no succedent
reading.  A program reaching F* in succedent position raises when it
runs, so a sequent that is never evaluated never raises; the staged
search raises where a root-by-root run would, and nowhere else.

``Machine`` runs programs over one algebra, under one assignment (fails,
slots) or over a whole product of input domains in one staged search
(search), where an operation runs once per value of the last input it
reads rather than once per assignment.  It memoises the costly maps
(downset, f, f*, heyting, co-implication) for its own lifetime, which is
one public call: nothing is cached across calls.  A run of fails, and
search at each value of its outermost input, first empties the tables
once they hold more than MEMO_BITS bits of values, so neither the
independent draws of a sampled audit nor an exhaustive search at four
variables holds more than that.
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
# fails and search empty the machine's memo tables beyond this many bits
# of values: 2,048 entries at four variables (16 MB), never reached at three
MEMO_BITS = 1 << 27
# markers of pending operations on the compiler's work stack
_MAKE1, _MAKE2 = object(), object()


@dataclass(frozen=True)
class Program:
    """leaves: the keys of the input slots, in slot order.  consts: the
    values of the slots that follow them.  segments: per root, the
    operations it adds, as (opcode, destination slot, slot, slot).
    results: per root, its slot, or (antecedent slot, succedent slot) for
    a sequent.  size: the number of slots."""

    leaves: tuple
    consts: tuple
    segments: tuple
    results: tuple
    size: int


class Compiler:
    """Compiles roots into one Program.  Each distinct (term, polarity)
    pair of the roots is walked once, over the compiler's lifetime: its
    node is kept in that polarity's memo and reused at every later
    occurrence.  Node order and value numbering are those of a walk over
    the trees; the polarities of a leaf are recorded once each."""

    def __init__(self, top: int):
        self.top = top  # the team of all worlds: Phi in antecedent position
        self._nodes: list[tuple] = []  # ("leaf", key) | ("const", v) | (opcode, a, b)
        self._index: dict = {}  # constant or operation node -> node id
        self._leaf_ids: dict = {}  # leaf key -> node id, in order of first occurrence
        self._occurrences: set = set()  # (leaf key, polarity)
        self._roots: list[tuple] = []  # (node count before the root, result node ids)
        # per polarity, interned term -> node id: two dicts, as hashing a
        # (term, Polarity) pair would call the Enum's __hash__, in Python
        self._ant_ids: dict = {}
        self._suc_ids: dict = {}

    def _walk(self, root, pol: Polarity) -> int:
        """The node computing root at pol; an explicit stack, no recursion."""
        nodes, index, leaf_ids = self._nodes, self._index, self._leaf_ids
        occurrences, ant_ids, suc_ids = self._occurrences, self._ant_ids, self._suc_ids
        todo: list = [(root, pol)]
        push, pop = todo.append, todo.pop
        done: list[int] = []
        while todo:
            t, p = pop()
            if t is _MAKE2:
                code, t, ids = p
                b = done.pop()
                node = (code, done.pop(), b)
            elif t is _MAKE1:
                code, t, ids = p
                a = done.pop()
                node = (code, a, a)
            else:
                cls = type(t)
                if cls is FlatFml or cls is GenFml:  # a lifted formula: its formula's node
                    t = t.formula
                    cls = type(t)
                ids = ant_ids if p is ANT else suc_ids
                i = ids.get(t)
                if i is not None:
                    done.append(i)
                    continue
                shape = _BINARY.get(cls)
                if shape is not None:
                    push((_MAKE2, (shape[0] if p is ANT else shape[1], t, ids)))
                    push((t.right, p))
                    push((t.left, _OTHER[p] if shape[2] else p))
                    continue
                shape = _UNARY.get(cls)
                if shape is not None:
                    push((_MAKE1, (shape[0] if p is ANT else shape[1], t, ids)))
                    push((t.body, p))
                    continue
                if cls is FVar or isinstance(t, mv.META_TYPES):
                    key = t.name if cls is FVar else t
                    occurrences.add((key, p))
                    i = leaf_ids.get(key)
                    if i is None:
                        i = leaf_ids[key] = len(nodes)
                        nodes.append(("leaf", key))
                    ids[t] = i
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
            ids[t] = i
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
                slot[i] = next_slot
                ops.append((code, next_slot, slot[a], slot[b]))
                next_slot += 1
            segments.append(tuple(ops))
        results = tuple(
            tuple(slot[i] for i in r) if isinstance(r, tuple) else slot[r]
            for _, r in self._roots
        )
        return Program(leaves, tuple(consts), tuple(segments), results, next_slot)


class Machine:
    """Runs programs over one algebra.  The memo tables live as long as
    the machine, emptied beyond MEMO_BITS (trim); make one per public
    call.

    fails and slots run a program root by root under one assignment.
    search runs it over a whole product of input domains in one staged
    loop nest, input 0 outermost: each operation runs in the loop of the
    last input it reads, each sequent root is tested in the loop where
    both its sides are known, and an instance settled for a whole subtree
    (a premise fails there, or its conclusion holds there) leaves it,
    together with the operations and roots only it needs."""

    def __init__(self, alg):
        top = alg.full_team
        downset, f, f_star, heyting, coimp = alg.downset, alg.f, alg.f_star, alg.heyting, alg.coimp
        memos = downs, unions, stars, heys, coimps = {}, {}, {}, {}, {}
        most = MEMO_BITS // alg.n_teams

        def run(ops, s):
            for code, d, a, b in ops:
                x = s[a]
                if code == AND:
                    s[d] = x & s[b]
                elif code == OR:
                    s[d] = x | s[b]
                elif code == DOWN:
                    y = downs.get(x)
                    if y is None:
                        y = downs[x] = downset(x)
                    s[d] = y
                elif code == HEY:
                    k = (x, s[b])
                    y = heys.get(k)
                    if y is None:
                        y = heys[k] = heyting(x, s[b])
                    s[d] = y
                elif code == IMP:
                    s[d] = top & ~x | s[b]
                elif code == DIFF:
                    s[d] = top & ~x & s[b]
                elif code == F:
                    y = unions.get(x)
                    if y is None:
                        y = unions[x] = f(x)
                    s[d] = y
                elif code == COIMP:
                    k = (s[b], x)
                    y = coimps.get(k)
                    if y is None:
                        y = coimps[k] = coimp(s[b], x)
                    s[d] = y
                elif code == FSTAR:
                    y = stars.get(x)
                    if y is None:
                        y = stars[x] = f_star(x)
                    s[d] = y
                else:
                    raise InqmtError("Fs has no succedent-part reading")

        def start(prog: Program, values) -> list:
            s = [*values, *prog.consts]
            s += [0] * (prog.size - len(s))
            return s

        def trim() -> None:
            """Empty the memo tables once they hold more than MEMO_BITS
            bits of values."""
            if len(downs) + len(unions) + len(stars) + len(heys) + len(coimps) > most:
                for memo in memos:
                    memo.clear()

        def fails(prog: Program, values) -> bool:
            """Whether every sequent root but the last holds and the last
            does not; roots after the first failing one are not run."""
            trim()
            s = start(prog, values)
            last = len(prog.segments) - 1
            for i, ops in enumerate(prog.segments):
                run(ops, s)
                a, c = prog.results[i]
                if s[a] & ~s[c]:
                    return i == last
            return False

        def slots(prog: Program, values) -> list:
            s = start(prog, values)
            for ops in prog.segments:
                run(ops, s)
            return s

        def search(prog: Program, domains, instances) -> list:
            """Every instance over the product of domains, one per input
            slot, in product order.  An instance is a tuple of sequent
            root indices, premises then conclusion; it fails where every
            premise holds and the conclusion does not.  Per instance,
            returns the assignments checked (up to and including its
            first failure, or all of them) and the values at that
            failure, or None.  As under fails, a root reading F* in
            succedent position raises exactly where an assignment reaches
            it, that is where every root before it in an instance holds."""
            n = len(domains)
            strides = [1] * n
            for i in range(n - 1, 0, -1):
                strides[i - 1] = strides[i] * len(domains[i])
            total = strides[0] * len(domains[0]) if n else 1
            results = [(total, None)] * len(instances)
            if not total:
                return results
            # stage k holds what is known once inputs 0..k-1 are set
            stage = list(range(1, n + 1)) + [0] * (prog.size - n)
            poisoned = set()
            ops = [op for segment in prog.segments for op in segment]
            for code, d, a, b in ops:
                stage[d] = max(stage[a], stage[b])
                if code == FAIL or a in poisoned or b in poisoned:
                    poisoned.add(d)
            on_fail: dict = {}  # root -> instances it is a premise of
            on_hold: dict = {}  # root -> instances it is the conclusion of
            last = [0] * (n + 1)  # per stage, instances whose last root is tested there
            raises = 0  # instances that reach F* in succedent position where all else holds
            for i, roots in enumerate(instances):
                bit = 1 << i
                cut = next(
                    (k for k, r in enumerate(roots) if poisoned.intersection(prog.results[r])),
                    None,
                )
                if cut is None:
                    *premises, conclusion = roots
                    on_hold[conclusion] = on_hold.get(conclusion, 0) | bit
                else:
                    premises = roots[:cut]
                    raises |= bit
                for r in premises:
                    on_fail[r] = on_fail.get(r, 0) | bit
                tested = roots if cut is None else premises
                last[max((stage[x] for r in tested for x in prog.results[r]), default=0)] |= bit
            need = [0] * prog.size  # per slot, the instances that read it
            tests: list = [[] for _ in range(n + 1)]
            for r in sorted(on_fail.keys() | on_hold.keys()):
                a, c = prog.results[r]
                f, h = on_fail.get(r, 0), on_hold.get(r, 0)
                tests[max(stage[a], stage[c])].append((a, c, f, h))
                need[a] |= f | h
                need[c] |= f | h
            for _, d, a, b in reversed(ops):
                need[a] |= need[d]
                need[b] |= need[d]
            work: list = [[] for _ in range(n + 1)]  # per stage, (operation, need)
            for op in ops:
                if need[op[1]]:
                    work[stage[op[1]]].append((op, need[op[1]]))
            s = start(prog, [0] * n)
            pos = [0] * n  # the index of each input's value in its domain
            failed = 0

            def record(hit: int, k: int) -> None:
                """The instances hit fail on the whole subtree below the
                values of inputs 0..k-1; its first assignment, counted in
                product order, is their first failure."""
                nonlocal failed
                if hit & raises:
                    raise InqmtError("Fs has no succedent-part reading")
                failed |= hit
                checked = 1 + sum(p * w for p, w in zip(pos[:k], strides))
                values = (*s[:k], *(dom[0] for dom in domains[k:]))
                while hit:
                    low = hit & -hit
                    results[low.bit_length() - 1] = (checked, values)
                    hit ^= low

            def descend(i: int, live: int) -> None:
                """Input i over its domain, under the values of the inputs
                before it: runs the operations and tests the roots of
                stage i + 1, then goes down for the instances still open."""
                k = i + 1
                ops = [op for op, m in work[k] if m & live]
                checks = [t for t in tests[k] if (t[2] | t[3]) & live]
                ends = last[k]
                for pos[i], s[i] in enumerate(domains[i]):
                    if not i:
                        trim()
                    run(ops, s)
                    kill = 0
                    for a, c, f, h in checks:
                        kill |= f if s[a] & ~s[c] else h
                    alive = live & ~kill
                    if alive & ends:
                        record(alive & ends, k)
                    if alive & ~ends:
                        descend(k, alive & ~ends)
                    if failed & live:
                        live &= ~failed
                        if not live:
                            return

            run([op for op, _ in work[0]], s)
            live = (1 << len(instances)) - 1
            for a, c, f, h in tests[0]:
                live &= ~(f if s[a] & ~s[c] else h)
            if live & last[0]:
                record(live & last[0], 0)
            if live & ~last[0]:
                descend(0, live & ~last[0])
            return results

        self.fails = fails
        self.slots = slots
        self.search = search


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

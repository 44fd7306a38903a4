"""Bounded random generators shared across the test modules, checks
that only the tests run (the pointwise support shortcut, the restricted
Hilbert axioms, modus ponens, the algebraic flatness test), a call
counter for the algebra's methods, a cut that is not principal, a
recursive reference evaluator for denotations, the compiler's walk over
trees as a reference for its programs, the polarities of a
schema's metavariables, a walk over a derivation's nodes that copies
the address at every step, reference searches for the
audit and for schema soundness, the per-node operational-subterm lint,
a reference search for the surgical cut's hole, and a node-by-node
reference reader (reading each side on its own) and printer of
derivation scripts."""

import random
from itertools import product

from inqmt import calculus, denote, selftest, teams
from inqmt import metavars as mv
from inqmt.algebra import TeamAlgebra, for_context
from inqmt.calculus import (
    AuditNode,
    AuditReport,
    AuditViolation,
    NodeRecord,
    Polarity,
    _check_node,
    _meta_domains,
)
from inqmt.denote import _BINARY, _MAKE1, _MAKE2, _OTHER, _UNARY, Compiler, Machine
from inqmt.errors import InqmtError, NotClassicalError, ParseError
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
    inq_neg,
    is_classical,
    subterms,
    variables,
)
from inqmt.parser import _SEXP_TOKEN_RE, EOF, _Reader, _mixed, _tokenize, print_term
from inqmt.rules import pseq
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
    Sort,
    Sup,
    children,
    operational_terms,
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


def plant_leaf(d, rng):
    """d with one leaf replaced by the unsound leaf v |- w or v |- 0, over
    variables its parent already has."""
    leaves = []
    for addr, parent in ref_nodes(d):
        seqs = [n.conclusion for n in (parent, *parent.premises)]
        names = sorted(variables(*seqs))
        if names:
            leaves += [(addr + (i,), names) for i, p in enumerate(parent.premises) if not p.premises]
    addr, names = rng.choice(leaves)
    left = rng.choice(names)
    right = rng.choice([FlatFml(FVar(n)) for n in names if n != left] + [FlatFml(FZERO)])
    return d.replace(addr, Derivation(Sequent(FlatFml(FVar(left)), right), "Id"))


def parametric_cut_example():
    """A cut that is not left-principal: weakening above the provider."""
    p, pq = FlatFml(FVar("p")), Comma(FlatFml(FVar("p")), FlatFml(FVar("q")))
    provider = Derivation(Sequent(pq, p), "W", (Derivation(Sequent(p, p), "Id"),))
    return Derivation(Sequent(pq, p), "Cut", (provider, Derivation(Sequent(p, p), "Id")))


def shared_cut_example():
    """capR over one weakened principal cut on p twice: the interned
    subderivation, and its cut, sit at two addresses."""
    p, q = FlatFml(FVar("p")), FlatFml(FVar("q"))
    cut = Derivation(Sequent(p, p), "Cut", (Derivation(Sequent(p, p), "Id"),) * 2)
    shared = Derivation(Sequent(Comma(p, q), p), "W", (cut,))
    both = Sequent(Comma(Comma(p, q), Comma(p, q)), FlatFml(Cap(FVar("p"), FVar("p"))))
    return Derivation(both, "capR", (shared, shared))


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
# Checks only the tests run


def support_pointwise(ctx, team, phi):
    """The flat fast path: support at every singleton.  Agrees with
    teams.support exactly on flat formulas."""
    return all(teams.support(ctx, 1 << w, phi) for w in ctx.team_members(team))


def axiom2_shape(chi, phi, psi):
    """(chi -> (phi \\/ psi)) -> (chi -> phi) \\/ (chi -> psi)."""
    return IImp(IImp(chi, IOr(phi, psi)), IOr(IImp(chi, phi), IImp(chi, psi)))


def axiom3_shape(chi):
    """~~chi -> chi."""
    return IImp(inq_neg(inq_neg(chi)), chi)


def thm26_axiom2_valid(ctx, chi, phi, psi):
    if not is_classical(chi):
        raise NotClassicalError(f"axiom 2 requires a classical antecedent: {chi}")
    return teams.valid(ctx, axiom2_shape(chi, phi, psi))


def thm26_axiom3_valid(ctx, chi):
    if not is_classical(chi):
        raise NotClassicalError(f"axiom 3 requires a classical formula: {chi}")
    return teams.valid(ctx, axiom3_shape(chi))


def check_modus_ponens(ctx, phi, psi):
    """Validity of phi and of phi -> psi forces validity of psi."""
    if teams.valid(ctx, IImp(phi, psi)) and teams.valid(ctx, phi):
        return teams.valid(ctx, psi)
    return True


BOT_A = 0  # the least down-set of every algebra: the empty collection of teams


def is_flat_algebraic(alg, a, assignment):
    """Lemma-style fixed point: the denotation equals downset(f(.)) of itself."""
    x = alg.denote_general(a, assignment)
    return x == alg.downset(alg.f(x))


def counting(monkeypatch, name):
    """The argument tuples of every later call to TeamAlgebra.name."""
    calls = []
    method = getattr(TeamAlgebra, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(TeamAlgebra, name, counted)
    return calls


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


# ---------------------------------------------------------------------------
# The compiler's walk over trees: every occurrence of a subterm is walked
# again and only its nodes are value-numbered, so a program costs the tree
# size.  The memoised walk must build exactly its programs.


class TreeCompiler(Compiler):
    def _walk(self, root, pol):
        nodes, index, leaf_ids = self._nodes, self._index, self._leaf_ids
        todo = [(root, pol)]
        done = []
        while todo:
            t, p = todo.pop()
            if t is _MAKE2:
                b = done.pop()
                node = (p, done.pop(), b)
            elif t is _MAKE1:
                a = done.pop()
                node = (p, a, a)
            else:
                cls = type(t)
                if cls in _BINARY:
                    ant_code, suc_code, flips = _BINARY[cls]
                    todo.append((_MAKE2, ant_code if p is Polarity.ANT else suc_code))
                    todo.append((t.right, p))
                    todo.append((t.left, _OTHER[p] if flips else p))
                    continue
                if cls in _UNARY:
                    ant_code, suc_code = _UNARY[cls]
                    todo.append((_MAKE1, ant_code if p is Polarity.ANT else suc_code))
                    todo.append((t.body, p))
                    continue
                if cls in (FlatFml, GenFml):
                    todo.append((t.formula, p))
                    continue
                if cls is FVar or mv.is_meta(t):
                    key = t.name if cls is FVar else t
                    self._occurrences.add((key, p))
                    if key not in leaf_ids:
                        leaf_ids[key] = len(nodes)
                        nodes.append(("leaf", key))
                    done.append(leaf_ids[key])
                    continue
                if cls is FZero:
                    node = ("const", 0)
                elif cls is Phi:
                    node = ("const", self.top if p is Polarity.ANT else 0)
                else:
                    raise TypeError(f"cannot denote {t!r}")
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
            done.append(index[node])
        return done[0]


def checked_compilers(monkeypatch):
    """From here on, every Compiler the package makes also feeds its roots
    to a TreeCompiler, and each program it numbers, its leaf keys and its
    polarities must equal the tree walk's.  Returns the list of the
    programs checked."""
    checked = []

    class Checked(Compiler):
        def __init__(self, top):
            super().__init__(top)
            self.tree = TreeCompiler(top)

        def add_term(self, term, pol):
            self.tree.add_term(term, pol)
            return super().add_term(term, pol)

        def add_sequent(self, seq):
            self.tree.add_sequent(seq)
            return super().add_sequent(seq)

        def program(self, leaf_order=None):
            prog = super().program(leaf_order)
            assert prog == self.tree.program(leaf_order)
            assert self.leaf_keys == self.tree.leaf_keys
            assert self.polarities == self.tree.polarities
            checked.append(prog)
            return prog

    for module in (calculus, denote, selftest):
        monkeypatch.setattr(module, "Compiler", Checked)
    return checked


# ---------------------------------------------------------------------------
# The nodes of a derivation, every occurrence with its address


def ref_nodes(d):
    """All nodes with their tree addresses, root first, parents before
    their premises and premises in order.  The walk keeps an explicit
    stack and one mutable address, but hands out a copy of it at every
    step, so a step costs O(depth)."""
    yield (), d
    addr: list = []
    stack = [enumerate(d.premises)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if stack:
                addr.pop()
            continue
        i, node = step
        addr.append(i)
        yield tuple(addr), node
        stack.append(enumerate(node.premises))


# ---------------------------------------------------------------------------
# Reference searches: one program per rule instance, run once per
# assignment over Machine.fails, assignments in product order.


def ref_audit(d, ctx, samples=10_000, max_exhaustive=100_000, seed=0):
    """audit_soundness node by node."""
    alg = for_context(ctx)
    fails = Machine(alg).fails
    rng = random.Random(seed)
    report = AuditReport(seed=seed)
    for addr, node in ref_nodes(d):
        compiler = Compiler(alg.full_team)
        for p in node.premises:
            compiler.add_sequent(p.conclusion)
        compiler.add_sequent(node.conclusion)
        names = sorted(compiler.leaf_keys)
        prog = compiler.program(names)
        sampled = ctx.n_teams ** len(names) > max_exhaustive
        if sampled:
            report.sampled_nodes += 1
            assignments = (
                tuple(rng.randrange(ctx.n_teams) for _ in names) for _ in range(samples)
            )
        else:
            assignments = product(range(ctx.n_teams), repeat=len(names))
        checked = 0
        for values in assignments:
            checked += 1
            if fails(prog, values):
                report.violations.append(AuditViolation(addr, node.rule, dict(zip(names, values))))
                break
        report.nodes_checked += 1
        report.assignments_checked += checked
        report.unchecked_nodes += not checked
        report.nodes.append(AuditNode(addr, node.rule, checked, sampled))
    return report


def meta_polarities(schema):
    """Polarity set of every metavariable occurrence across the schema."""
    compiler = Compiler(0)
    for seq in (*schema.premises, schema.conclusion):
        compiler.add_sequent(seq)
    return compiler.polarities


def ref_schema_counterexample(schema, ctx, cut_contexts):
    """schema_soundness_counterexample, searching each direction of the
    schema, and each surgical consumer context, with its own product loop."""
    alg = for_context(ctx)
    downsets = alg.all_downsets()
    fails = Machine(alg).fails
    teams = tuple(alg.ctx.teams())
    if schema.surgical:
        hole = mv.FMetaF("a")
        for text in cut_contexts:
            compiler = Compiler(alg.full_team).add_sequent(pseq(text))
            others = [m for m in compiler.leaf_keys if m != hole]
            prog = compiler.program([hole, *others])
            domains = [
                teams if isinstance(m, (mv.SMetaF, mv.FMetaF, mv.PMeta)) else downsets
                for m in others
            ]
            for gamma, alpha in product(teams, teams):
                if gamma & ~alpha:
                    continue
                for values in product(*domains):
                    if not fails(prog, (alpha, *values)) and fails(prog, (gamma, *values)):
                        names = {m.name: v for m, v in zip(others, values)}
                        return {"context": text, "gamma": gamma, "alpha": alpha, **names}
        return None
    directions = [(schema.premises, schema.conclusion)]
    if schema.bidirectional:
        directions.append(((schema.conclusion,), schema.premises[0]))
    domains = None
    for premises, conclusion in directions:
        compiler = Compiler(alg.full_team)
        for p in premises:
            compiler.add_sequent(p)
        compiler.add_sequent(conclusion)
        if domains is None:
            domains = _meta_domains(compiler.polarities, alg, downsets)
        metas = [m for m, _ in domains]
        prog = compiler.program(metas)
        for values in product(*(dom for _, dom in domains)):
            if fails(prog, values):
                return {m.name: v for m, v in zip(metas, values)}
    return None


# ---------------------------------------------------------------------------
# Derivation checking, one node occurrence at a time.


def ref_check(d):
    """(ok, records, error_addr, error_rule, reason) of d: every node
    occurrence matched on its own, in pre-order, with its address, and
    the first failing one reported."""
    records, first_error = [], (None, None, None)
    for addr, node in ref_nodes(d):
        status, variant, note = _check_node(node)
        records.append(NodeRecord(addr, node.rule, status, variant, note))
        if status == "error" and first_error[0] is None:
            first_error = (addr, node.rule, note)
    return (first_error[0] is None, tuple(records), *first_error)


# ---------------------------------------------------------------------------
# The operational-subterm condition C1 at one matched node, which the
# rule table's validation proves for every schema at once.


def ref_c1_lint(node):
    """None, or why an operational term of a premise of node is neither
    a subterm of its conclusion (crossing into Flat through dn) nor, at a
    cut, of the cut formula: its first premise's succedent."""
    seq = node.conclusion
    extra = (node.premises[0].conclusion.succedent.formula,) if node.rule == "Cut" else ()
    covered = set(subterms(seq.antecedent, seq.succedent, *extra))
    for p in node.premises:
        for t in operational_terms(p.conclusion):
            if t not in covered:
                return f"operational term {t} of a premise is not preserved (C1)"
    return None


# ---------------------------------------------------------------------------
# The surgical cut's hole, found by trying every occurrence.


def ref_occurrences(s, path=(), pol=Polarity.ANT):
    """(path, structure, polarity) of s and of every structure inside it,
    in pre-order; the first operand of an arrow flips the polarity."""
    yield path, s, pol
    flipped = Polarity.SUC if pol is Polarity.ANT else Polarity.ANT
    for i, kid in enumerate(children(s)):
        kid_pol = flipped if i == 0 and type(s) in (Sup, Gt) else pol
        yield from ref_occurrences(kid, (*path, i), kid_pol)


def ref_sequent_occurrences(seq):
    """ref_occurrences of the antecedent, then of the succedent, with
    paths starting "ant" or "suc"."""
    yield from ref_occurrences(seq.antecedent, ("ant",), Polarity.ANT)
    yield from ref_occurrences(seq.succedent, ("suc",), Polarity.SUC)


def ref_replace(seq, path, new):
    """seq with the structure that path addresses replaced by new."""

    def put(s, steps):
        if not steps:
            return new
        kids = list(children(s))
        kids[steps[0]] = put(kids[steps[0]], steps[1:])
        return type(s)(*kids)

    if path[0] == "ant":
        return Sequent(put(seq.antecedent, path[1:]), seq.succedent)
    return Sequent(seq.antecedent, put(seq.succedent, path[1:]))


def ref_match_surgical(conclusion, provider, consumer):
    """The path of the surgical cut's hole, or None: the first
    antecedent-part occurrence of the cut formula in the consumer, in
    pre-order, whose replacement by the provider's antecedent gives the
    conclusion."""
    hole, gamma = provider.succedent, provider.antecedent
    if provider.sort is not Sort.FLAT or type(hole) is not FlatFml:
        return None
    for path, s, pol in ref_sequent_occurrences(consumer):
        if s is hole and pol is Polarity.ANT and ref_replace(consumer, path, gamma) == conclusion:
            return path
    return None


# ---------------------------------------------------------------------------
# Reference scripts: every node's sides read, and printed, on their own.


def _expect_tok(tokens, i, want):
    tok, pos = tokens[i]
    if tok != want:
        raise ParseError(f"expected {want!r}, found {tok!r}", pos)
    return i + 1


def _string_tok(tokens, i):
    tok, pos = tokens[i]
    if not (tok.startswith('"') and tok.endswith('"')):
        raise ParseError(f"expected a quoted string, found {tok!r}", pos)
    return tok[1:-1], i + 1


def sequent_from_sides(ant_text, suc_text, pattern_mode=False):
    """The sequent of two side texts, each read on its own."""
    ant, ant_sort = _Reader(ant_text, pattern_mode).side(EOF)
    suc, suc_sort = _Reader(suc_text, pattern_mode).side(EOF)
    if ant_sort is not suc_sort:
        raise _mixed(ant_sort, suc_sort, f"{ant_text} |- {suc_text}")
    return Sequent(ant, suc)


def ref_parse_derivation(text):
    """parse_derivation node by node: a node's sides are read with
    sequent_from_sides once its premises are read, so in post-order."""
    tokens = _tokenize(text, _SEXP_TOKEN_RE, " in script")

    def node(i):
        i = _expect_tok(tokens, i, "(")
        i = _expect_tok(tokens, i, "rule")
        name, i = _string_tok(tokens, i)
        i = _expect_tok(tokens, i, "(")
        i = _expect_tok(tokens, i, "seq")
        ant, i = _string_tok(tokens, i)
        suc, i = _string_tok(tokens, i)
        i = _expect_tok(tokens, i, ")")
        premises = []
        while tokens[i][0] == "(":
            premise, i = node(i)
            premises.append(premise)
        i = _expect_tok(tokens, i, ")")
        return Derivation(sequent_from_sides(ant, suc), name, premises), i

    d, i = node(0)
    if tokens[i][0] != EOF:
        raise ParseError("unexpected trailing input in script", tokens[i][1])
    return d


def ref_derivation_to_sexp(d):
    """derivation_to_sexp with every side printed by a plain print_term."""
    lines = []
    todo = [(d, 0)]
    while todo:
        node, depth = todo.pop()
        if node is None:
            lines[-1] += ")"
            continue
        ant, suc = print_term(node.conclusion.antecedent), print_term(node.conclusion.succedent)
        lines.append(f'{"  " * depth}(rule "{node.rule}" (seq "{ant}" "{suc}")')
        todo.append((None, 0))
        todo.extend((p, depth + 1) for p in reversed(node.premises))
    return "\n".join(lines) + "\n"

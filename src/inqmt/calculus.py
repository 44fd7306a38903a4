"""Derivation checking and per-instance semantic soundness auditing.

Checking matches every distinct node of a derivation, once, against the
schemas registered under its rule name; double-line schemas are tried in
both directions.  Equal subderivations are one interned node, and a
node's verdict reads only its own rule and sequents, so each occurrence
of it shares that verdict.  Node addresses are made only for what is
reported: the first failing node of a rejected derivation, and the
per-node records, which are built when first read, each address from
its parent's.

A rule instance is read from its sequents alone, and a match is the
schema that matched.  The surgical Flat cut walks its consumer premise
and its conclusion side by side: they differ at one antecedent-part
position only, the hole, where the consumer holds the cut formula and
the conclusion the provider's antecedent.  Either cut's cut formula is
its first premise's succedent (cut_formula).  Shape matching is the
whole check: the operational-subterm condition C1 (every formula of a
premise is a subterm of the conclusion or of the cut formula) is proved
once per schema when the rule table is built (rules._validate_table), so
every matched node meets it.  Cuts match only sort-uniform cut-formula
occurrences; sequents are type-uniform by construction.

Auditing interprets each rule instance over the two algebras: a sequent
holds under an assignment of teams to its variables when the antecedent
denotation is included in the succedent denotation, and a rule instance
is audited by quantifying assignments (exhaustively when the space is
small, sampled otherwise) and demanding that premise inclusions imply
the conclusion inclusion.  A node that checks no assignment fails the
audit as unchecked.

Every denotation comes from the one compiler in the denote module.  The
exhaustive nodes of a derivation are grouped by their variables; each
group's distinct sequents (a premise of one node is the conclusion of
another) become one program with shared slots, and one staged search
over the group's assignments (Machine.search) settles every node of the
group, each with the count and the first violation, in product order,
that a node-by-node loop would report.  Sampled nodes run their own
program once per drawn assignment.  Schema soundness (search_schemas)
searches pattern sequents the same way, with the metavariables as the
inputs: the schemas whose metavariables range over equal domains are
one program and one search, an instance per direction of each schema.
The surgical cut is searched per consumer context, as an instance whose
premises are the provider and the consumer with the cut formula in the
hole, and whose conclusion is the consumer with the provider's
antecedent there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import metavars as mv
from .algebra import TeamAlgebra, for_context
from .contexts import Context
from .denote import _BINARY, _OTHER, ANT, SUC, Compiler, Machine
from .formulas import FVar, FlatFormula, GeneralFormula, fold, subterms, variables
from .rules import FAMILIES, RuleSchema, pseq, rule_table
from .structures import (
    Derivation,
    FlatFml,
    FlatStructure,
    GeneralStructure,
    Sequent,
    address,
    children,
)


# ---------------------------------------------------------------------------
# Pattern matching


# metavariable class -> the terms it stands for
_META_RANGE = {
    mv.PMeta: FVar,
    mv.FMetaF: FlatFormula,
    mv.FMetaG: GeneralFormula,
    mv.SMetaF: FlatStructure,
    mv.SMetaG: GeneralStructure,
}


def _match_sequent(pat: Sequent, val: Sequent, bnd) -> bool:
    """Match a pattern sequent against a sequent, binding each
    metavariable to the non-meta term it covers; a metavariable met again
    must cover the same term.  An explicit stack of (pattern, term) pairs,
    the antecedent first and left parts first."""
    todo = [(pat, val)]
    while todo:
        pat, val = todo.pop()
        allowed = _META_RANGE.get(type(pat))
        if allowed is not None:
            if not isinstance(val, allowed) or mv.is_meta(val):
                return False
            if bnd.setdefault(pat, val) is not val:
                return False
        elif type(pat) is not type(val):
            return False
        elif pat.parts:
            todo.extend(zip(reversed(pat.parts), reversed(val.parts)))
        elif pat is not val:  # variables, 0, Ph
            return False
    return True


def _match_surgical(schema, conclusion, premises) -> Optional[RuleSchema]:
    """The surgical Flat cut, read from its sequents.  The consumer and
    the conclusion are walked side by side, going down only where they
    differ.  They must differ at one place only, the hole: an
    antecedent-part position where the consumer holds the cut formula and
    the conclusion the provider's antecedent.  When that antecedent is
    the cut formula itself, the two are equal, and the consumer must hold
    the cut formula at an antecedent-part position."""
    if len(premises) != 2:
        return None
    provider, consumer = premises
    hole, gamma = provider.succedent, provider.antecedent
    if type(hole) is not FlatFml:
        return None
    same = hole is gamma
    if same and consumer != conclusion:
        return None
    found = False
    todo = [
        (consumer.antecedent, conclusion.antecedent, ANT),
        (consumer.succedent, conclusion.succedent, SUC),
    ]
    while todo:
        c, k, pol = todo.pop()
        if c is hole and k is gamma and pol is ANT:
            if found:
                return None
            found = True
            if same:
                break
        elif same or c is not k:
            kids = children(c)
            if c is not k and (type(c) is not type(k) or not kids):
                return None
            shape = _BINARY.get(type(c))  # an arrow flips its first operand
            for i, (kid, other) in enumerate(zip(kids, children(k))):
                todo.append((kid, other, _OTHER[pol] if not i and shape and shape[2] else pol))
    return schema if found else None


def match_rule(schema: RuleSchema, conclusion: Sequent, premises: list[Sequent]):
    """The schema, when the node fits it in some direction; else None."""
    if schema.surgical:
        return _match_surgical(schema, conclusion, premises)
    if len(premises) != len(schema.premises):
        return None
    for prem_pats, concl_pat in schema.directions:
        bnd: dict = {}
        if _match_sequent(concl_pat, conclusion, bnd) and all(
            _match_sequent(pp, pv, bnd) for pp, pv in zip(prem_pats, premises)
        ):
            return schema
    return None


def match_name(name: str, conclusion: Sequent, premises: list[Sequent]):
    """The first schema registered under name that the node fits."""
    for schema in FAMILIES.get(name, ()):
        if match_rule(schema, conclusion, premises) is not None:
            return schema
    return None


def cut_formula(node: Derivation):
    """The cut formula of a node that matches Cut, else None: the formula
    of its first premise's succedent, in both variants
    (rules._validate_table)."""
    if node.rule != "Cut":
        return None
    premises = [p.conclusion for p in node.premises]
    if match_name("Cut", node.conclusion, premises) is None:
        return None
    return premises[0].succedent.formula


# ---------------------------------------------------------------------------
# Derivation checking


@dataclass(frozen=True)
class NodeRecord:
    addr: tuple[int, ...]
    rule: str
    status: str
    variant: str = ""
    note: str = ""


@dataclass(frozen=True)
class CheckResult:
    """The verdict on a derivation.  The per-node records are built from
    the verdicts of its distinct nodes when first read, in pre-order."""

    ok: bool
    derivation: Derivation = field(repr=False, compare=False)
    verdicts: dict = field(repr=False, compare=False)  # node -> its record's last three fields
    error_addr: tuple[int, ...] | None = None
    error_rule: str | None = None
    reason: str | None = None

    @cached_property
    def records(self) -> tuple[NodeRecord, ...]:
        verdicts = self.verdicts
        # in pre-order a node's parent is the last node met one level up,
        # so last[k] holds the address of the latest node at depth k
        last: list = []
        out = []
        for (_, i, depth), node in self.derivation.nodes():
            addr = last[depth - 1] + (i,) if depth else ()
            last[depth:] = (addr,)
            out.append(NodeRecord(addr, node.rule, *verdicts[node]))
        return tuple(out)

    def lines(self) -> list[str]:
        out = []
        for r in self.records:
            label = f"{'.'.join(map(str, r.addr)) or 'root'}: {r.rule}"
            suffix = f"  [{r.note}]" if r.note else ""
            out.append(f"{label}: {r.status}{suffix}")
        return out


def _check_node(node: Derivation) -> tuple[str, str, str]:
    """(status, variant, note) of a node; a failure's note is its reason."""
    premises = [p.conclusion for p in node.premises]
    m = match_name(node.rule, node.conclusion, premises)
    if m is not None:
        return "ok", m.variant, "extension: display postulate" if m.extension else ""
    family = FAMILIES.get(node.rule)
    if not family:
        return "error", "", f"unknown rule {node.rule!r}"
    if all(s.n_premises != len(premises) for s in family):
        return "error", "", f"{node.rule} takes a different number of premises"
    tried = ", ".join(s.variant for s in family)
    return "error", "", f"shape mismatch for {node.rule}: tried {tried}"


def check_derivation(d: Derivation) -> CheckResult:
    """Match each distinct node of d once.  The first failing node in
    pre-order is reported; an accepted derivation makes no address."""
    verdicts = {node: _check_node(node) for node in subterms(d)}
    if all(status == "ok" for status, _, _ in verdicts.values()):
        return CheckResult(True, d, verdicts)
    link, node = next((k, n) for k, n in d.nodes() if verdicts[n][0] == "error")
    return CheckResult(False, d, verdicts, address(link), node.rule, verdicts[node][2])


def _compile_sequents(top: int, sequents) -> Compiler:
    """One program with a root per sequent, in order."""
    compiler = Compiler(top)
    for seq in sequents:
        compiler.add_sequent(seq)
    return compiler


# ---------------------------------------------------------------------------
# Per-instance soundness auditing


@dataclass(frozen=True)
class AuditViolation:
    addr: tuple[int, ...]
    rule: str
    assignment: dict[str, int]


@dataclass(frozen=True)
class AuditNode:
    """What the audit covered at one node."""

    addr: tuple[int, ...]
    rule: str
    assignments: int
    sampled: bool


@dataclass
class AuditReport:
    violations: list[AuditViolation] = field(default_factory=list)
    nodes_checked: int = 0
    assignments_checked: int = 0
    sampled_nodes: int = 0
    unchecked_nodes: int = 0  # nodes under which no assignment was checked
    nodes: list[AuditNode] = field(default_factory=list)
    seed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unchecked_nodes


def audit_soundness(
    d: Derivation,
    ctx: Context,
    samples: int = 10_000,
    max_exhaustive: int = 100_000,
    seed: int = 0,
) -> AuditReport:
    """Check every rule instance of d over assignments of teams to its
    variables: whenever all premise inclusions hold, the conclusion
    inclusion must hold.  Exhaustive when the assignment space fits under
    max_exhaustive, otherwise sampled.  A node that checks no assignment
    (samples=0) counts as unchecked and fails the report.

    The exhaustive nodes that share a variable set are searched together
    (Machine.search), in product order; each sampled node draws its own
    assignments from one generator seeded by seed, in node order."""
    alg = for_context(ctx)
    machine = Machine(alg)
    rng = random.Random(seed)
    teams = range(ctx.n_teams)
    nodes = []
    groups: dict = {}  # variables -> the indices of the exhaustive nodes over them
    for i, (link, node) in enumerate(d.nodes()):
        seqs = (*(p.conclusion for p in node.premises), node.conclusion)
        names = tuple(sorted(variables(*seqs)))
        nodes.append((address(link), node, seqs, names))
        if ctx.n_teams ** len(names) <= max_exhaustive:
            groups.setdefault(names, []).append(i)
    outcome = {}  # exhaustive node index -> (checked, values at the first failure)
    for names, members in groups.items():
        # the group's distinct sequents compiled once, one instance per node
        roots: dict = {}
        for i in members:
            for seq in nodes[i][2]:
                roots.setdefault(seq, len(roots))
        instances = [tuple(roots[seq] for seq in nodes[i][2]) for i in members]
        prog = _compile_sequents(alg.full_team, roots).program(names)
        found = machine.search(prog, [teams] * len(names), instances)
        outcome.update(zip(members, found))
    report = AuditReport(seed=seed)
    for i, (addr, node, seqs, names) in enumerate(nodes):
        sampled = i not in outcome
        if sampled:
            prog = _compile_sequents(alg.full_team, seqs).program(names)
            checked, values = 0, None
            for _ in range(samples):
                draw = tuple(rng.randrange(ctx.n_teams) for _ in names)
                checked += 1
                if machine.fails(prog, draw):
                    values = draw
                    break
            report.sampled_nodes += 1
        else:
            checked, values = outcome[i]
        report.nodes_checked += 1
        report.assignments_checked += checked
        if values is not None:
            report.violations.append(AuditViolation(addr, node.rule, dict(zip(names, values))))
        if not checked:
            report.unchecked_nodes += 1
        report.nodes.append(AuditNode(addr, node.rule, checked, sampled))
    return report


# ---------------------------------------------------------------------------
# Schema-level soundness (denotation-level, metavariables quantified)


def _meta_domains(pols: dict, alg: TeamAlgebra, downsets) -> list[tuple]:
    """(metavariable, value domain) pairs for the soundness quantifier,
    from the polarities of the metavariables' occurrences.

    General metavariables with a succedent-part occurrence, and General
    formula metavariables everywhere, range over down-sets containing the
    empty team: succedent-part structures and formulas cannot denote the
    empty collection, and the inverse Phi rules are only sound on that
    reachable fragment.
    """
    nonempty = tuple(x for x in downsets if x & 1)
    domains = []
    teams = tuple(alg.ctx.teams())
    for meta in sorted(pols, key=lambda m: (type(m).__name__, m.name)):
        if isinstance(meta, (mv.SMetaF, mv.FMetaF, mv.PMeta)):
            domains.append((meta, teams))
        elif isinstance(meta, mv.FMetaG) or SUC in pols[meta]:
            domains.append((meta, nonempty))
        else:  # a General structure metavariable in antecedent parts only
            domains.append((meta, downsets))
    return domains


# the consumer contexts against which the surgical cut is audited: a
# pattern sequent whose single occurrence of the formula metavariable a
# marks the antecedent-part hole
_CUT_CONTEXTS = (
    "a |- S",
    "a , D |- S",
    "D |> a |- S",
    "P |- a |> S",
    "Dn(a) |- Y",
    "Dn(a , D) |- Y",
    "Dn(D |> a) |- Y",
)


def _surgical_search(alg: TeamAlgebra, search, downsets) -> tuple[int, dict | None]:
    """Per consumer context, the first gamma, alpha and context values,
    in that order, where the provider G |- a holds, the consumer holds
    with a in the hole and fails with G there; with the count of the
    valuations searched until then."""
    alpha, gamma = mv.FMetaF("a"), mv.SMetaF("G")
    hole = FlatFml(alpha)

    def put(t, done):  # t with gamma in the hole
        return gamma if t is hole else type(t)(*map(done.get, t.parts)) if t.parts else t

    teams = tuple(alg.ctx.teams())
    flat = (mv.SMetaF, mv.FMetaF, mv.PMeta)
    total = 0
    for text in _CUT_CONTEXTS:
        consumer = pseq(text)
        compiler = Compiler(alg.full_team).add_sequent(pseq("G |- a")).add_sequent(consumer)
        compiler.add_sequent(fold(consumer, put))
        others = compiler.leaf_keys[2:]
        domains = [teams, teams, *(teams if isinstance(m, flat) else downsets for m in others)]
        prog = compiler.program([gamma, alpha, *others])
        [(checked, values)] = search(prog, domains, [(0, 1, 2)])
        total += checked
        if values is not None:
            names = ("gamma", "alpha", *(m.name for m in others))
            return total, {"context": text, **dict(zip(names, values))}
    return total, None


def search_schemas(schemas, ctx: Context) -> list[tuple[int, dict | None]]:
    """Per schema, the valuations searched and the first failing one, by
    metavariable name, or None when the schema is sound on the context.
    A schema's domains come from its own polarities (_meta_domains), and
    the schemas with equal domains are searched together: their distinct
    pattern sequents in one program, one Machine.search, an instance per
    direction.  A double-line schema's forward witness comes first."""
    alg = for_context(ctx)
    downsets = alg.all_downsets()
    search = Machine(alg).search
    out: list = [None] * len(schemas)
    groups: dict = {}  # domains -> (the first member's compiler, the members)
    for i, s in enumerate(schemas):
        if s.surgical:
            out[i] = _surgical_search(alg, search, downsets)
            continue
        compiler = _compile_sequents(alg.full_team, dict.fromkeys((*s.premises, s.conclusion)))
        domains = tuple(_meta_domains(compiler.polarities, alg, downsets))
        groups.setdefault(domains, (compiler, []))[1].append(i)
    for domains, (compiler, members) in groups.items():
        roots: dict = {}  # the group's distinct sequents, in order
        instances = []  # (schema index, sequent roots)
        for i in members:
            s = schemas[i]
            for premises, conclusion in s.directions:
                seqs = (*premises, conclusion)
                instances.append((i, tuple(roots.setdefault(seq, len(roots)) for seq in seqs)))
        if len(members) > 1:  # a lone schema's own compiler holds the same roots
            compiler = _compile_sequents(alg.full_team, roots)
        metas = [m for m, _ in domains]
        found = search(compiler.program(metas), [d for _, d in domains], [r for _, r in instances])
        for (i, _), (checked, values) in zip(instances, found):
            if out[i] is None or out[i][1] is None and values is not None:
                named = None if values is None else {m.name: v for m, v in zip(metas, values)}
                out[i] = checked, named
    return out


def schema_soundness_counterexample(schema: RuleSchema, ctx: Context):
    """The first failing valuation of schema's metavariables, or None when
    the schema is sound on the context: search_schemas of the one schema."""
    return search_schemas((schema,), ctx)[0][1]


def check_rule_table_soundness(ctx: Context, table=None):
    """(variant, witness) per schema of table (default: the rule table)
    that fails on the context; empty when every one is sound."""
    table = rule_table() if table is None else tuple(table)
    return [(s.variant, w) for s, (_, w) in zip(table, search_schemas(table, ctx)) if w is not None]

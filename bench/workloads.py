"""The four workloads: seeded inputs, the operations run on them, and the
checks of every verdict.

An operation calls the package's public functions the way the matching
CLI command does and returns a verdict; its check compares the verdict
with the benchmark's own computation (terms, oracle) or with a property
the method must have.  Inputs are fixed lists: every run of a workload
attempts the same operations in the same order, and the seed only
chooses shapes and atoms inside sizes the lists fix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import oracle
import terms

CORPUS_SINGLE = (
    "lemma52_base",
    "lemma52_cap_elim",
    "lemma52_cap_intro",
    "lemma52_imp_elim",
    "lemma52_imp_intro",
    "appendix_dne",
    "appendix_kp",
)
CORPUS_PAIRS = ("cut_constant", "cut_propvar", "cut_cap", "cut_down")

# kernel: identity derivations, (formula size, count) per size class.
# The 25-node block holds the median operation.  Six operations cost more
# than a 100-node chain, so the tail, the 11th slowest, is the middle one
# of the nine chains.
ID_SIZES = ((25, 24), (100, 4), (200, 2), (500, 4), (2000, 1))
CUT_SHAPES = ("&", "~>", "dn", "/\\", "\\/", "=>")
CUT_SIZES = (7, 15, 25)
CHAINS = ((100, 9), (300, 1))
BROKEN = 8
FAULT_CHAIN = 1000  # nodes; the fault needs no seed

# (binary-tree nodes, formulas): the median falls inside the 21-node
# class, the tail inside the 61-node class
SEMANTICS_SIZES = ((5, 60), (11, 60), (21, 60), (31, 50), (45, 40), (61, 30))
FAULT_NEST = 3000  # implications in p -> (p -> ( ... -> p))

SCHEMA_GROUP = 3
TINY_AUDITS = ("lemma52_base",)  # audited at |V|=1 and |V|=2 in one operation
# planted-unsound mutants per audit, by |V|, and where that differs by
# script: the median falls inside the nine audits of appendix_dne at
# |V|=2, the tail inside those of appendix_kp at |V|=1
MUTANTS = {1: 2, 2: 4, ("appendix_dne", 2): 8, ("appendix_kp", 1): 5, ("appendix_kp", 2): 0}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    cover: dict = field(default_factory=dict)
    tally: Callable[[object], dict] | None = None  # counts read off a verdict


def corpus_text(root: Path, name: str) -> str:
    return (root / "src" / "inqmt" / "corpus" / f"{name}.sexp").read_text("utf-8")


def batch(name: str, run_one, jobs, cover: dict, count: str | None = None) -> Op:
    """An operation that runs run_one on each job's input in turn.

    jobs are (input, check) pairs, check(verdict) giving an error or None;
    inputs too small to time alone share one operation this way.  With a
    count name, the third field of each verdict is summed under it."""

    def check(verdicts):
        return next(filter(None, (c(v) for (_, c), v in zip(jobs, verdicts))), None)

    tally = (lambda vs: {count: sum(v[2] for v in vs)}) if count else None
    return Op(name, lambda: [run_one(x) for x, _ in jobs], check, cover, tally)


def build(name: str, seed: int, root: Path) -> list[Op]:
    """The workload's operations; fill draws from the seed, and each
    formula's shape from a source named after its operation (see gen).

    The order is one fixed shuffle per workload, the same on every seed:
    operations of one kind are spread over the round, so a slow spell of
    the machine does not fall on all of them."""
    fill = random.Random(f"{name}:{seed}")
    ops = BUILDERS[name](fill, lambda key: random.Random(f"{name}/{key}"), root)
    random.Random(f"{name}/order").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# kernel: parse -> check_derivation -> reduce_all -> derivation_to_sexp -> parse


def _kernel(rng, shape, root) -> list[Op]:
    from inqmt import check_derivation, derivation_to_sexp, parse_derivation, reduce_all

    def pipeline(text):
        d = parse_derivation(text)
        result = check_derivation(d)
        steps = 0
        if result.ok:  # the reduce command refuses input that does not check
            d, report = reduce_all(d)
            steps = len(report.steps)
        out = derivation_to_sexp(d)
        return result.ok, result.error_addr, steps, out, parse_derivation(out)

    def sound(tree, want_steps=False):
        """Check of a derivation that must check; want_steps None: either way."""

        def check(verdict):
            ok, _, steps, out, again = verdict
            if not ok:
                return "a generated derivation does not check"
            if want_steps is not None and (steps > 0) != want_steps:
                return f"{steps} principal-cut rewrites, expected {'some' if want_steps else 'none'}"
            back = terms.read_script(out)
            if back[1:3] != tree[1:3]:
                return "the endsequent changed"
            if steps == 0 and back != tree:
                return "print -> parse does not give back the derivation"
            if steps and not oracle.multiset_decreased(oracle.cut_sizes(tree), oracle.cut_sizes(back)):
                return "the cut-size multiset did not decrease"
            if derivation_to_sexp(again) != out:
                return "print -> parse -> print is not a fixpoint"
            if steps and not check_derivation(again).ok:
                return "the reduced derivation does not check"
            return None

        return check

    def broken_at(tree, addr):
        def check(verdict):
            ok, error_addr, _, out, _ = verdict
            if ok:
                return f"a derivation broken at {addr} checks"
            if error_addr not in (addr, addr[:-1]):
                return f"broken at {addr}, first error reported at {error_addr}"
            if terms.read_script(out) != tree:
                return "print -> parse does not give back the broken derivation"
            return None

        return check

    def op(name, jobs):
        texts = [(terms.script(tree), check) for tree, check in jobs]
        cover = {
            "nodes": sum(sum(1 for _ in terms.nodes(tree)) for tree, _ in jobs),
            "chars": sum(len(text) for text, _ in texts),
        }
        return batch(name, pipeline, texts, cover, "rewrites")

    ops = []
    for stem in CORPUS_SINGLE:
        tree = terms.read_script(corpus_text(root, stem))
        ops.append(op(stem, [(tree, sound(tree))]))
    for stem in CORPUS_PAIRS:
        before = terms.read_script(corpus_text(root, f"{stem}_before"))
        after = terms.read_script(corpus_text(root, f"{stem}_after"))
        ops.append(op(stem, [(before, sound(before, True)), (after, sound(after, None))]))
    for size, count in ID_SIZES:
        for i in range(count):
            key = f"id{size}.{i}"
            tree = gen.id_general(gen.general(shape(key), rng, size))
            ops.append(op(key, [(tree, sound(tree))]))
    for size in CUT_SIZES:
        for top in CUT_SHAPES:
            key = f"cut{top}{size}"
            if top == "dn":
                formula = ("dn", gen.flat(shape(key), rng, size - 1))
            else:
                make = gen.flat if top in gen.FLAT_OPS else gen.general
                half = (size - 1) // 2
                formula = (top, make(shape(key), rng, half), make(shape(key), rng, size - 1 - half))
            tree = gen.principal_cut(formula)
            ops.append(op(key, [(tree, sound(tree, True))]))
    for atom in (rng.choice(gen.VARS), "0"):
        tree = gen.principal_cut(atom)
        ops.append(op(f"cut.{atom}", [(tree, sound(tree, True))]))
    for length, count in CHAINS:
        for i in range(count):
            # the C1 lint's cost depends on where equal atoms sit, so the
            # operation fixes that pattern and the seed only renames atoms
            key = f"chain{length}.{i}"
            pattern, names = shape(key), list(gen.VARS[1:])
            rng.shuffle(names)
            tree = gen.weakening_chain([names[pattern.randrange(3)] for _ in range(length - 1)])
            ops.append(op(key, [(tree, sound(tree))]))
    for i in range(BROKEN):
        tree = gen.id_general(gen.general(shape(f"broken.{i}"), rng, ID_SIZES[0][0]))
        addr = rng.choice([a for a, _ in terms.nodes(tree)])
        broken = gen.plant_break(tree, addr)
        ops.append(op(f"broken.{i}", [(broken, broken_at(broken, addr))]))
    # fails today: the reader and the checker recurse once per node
    chain = gen.weakening_chain(["q"] * (FAULT_CHAIN - 1))
    ops.append(op(f"chain{FAULT_CHAIN}", [(chain, sound(chain))]))
    return ops


# ---------------------------------------------------------------------------
# audit: audit_soundness of the lemma/appendix scripts, planted-unsound
# mutants, and schema_soundness_counterexample over the rule table


def _audit(rng, shape, root) -> list[Op]:
    from inqmt import Context, audit_soundness, parse_derivation, rule_table
    from inqmt.calculus import schema_soundness_counterexample
    from inqmt.rules import schema

    contexts = {1: Context.of("p"), 2: Context.of("p,q")}

    def run_audit(job):
        text, k = job
        r = audit_soundness(parse_derivation(text), contexts[k])
        return r.ok, r.nodes_checked, r.assignments_checked, r.sampled_nodes, [
            (v.addr, dict(v.assignment)) for v in r.violations
        ]

    def exhaustive(n_nodes, n_assignments):
        def check(verdict):
            ok, nodes, assignments, sampled, _ = verdict
            if not ok:
                return "a corpus derivation has an unsound rule instance"
            if sampled or (nodes, assignments) != (n_nodes, n_assignments):
                return (f"coverage {nodes} nodes / {assignments} assignments / {sampled} sampled, "
                        f"exhaustive is {n_nodes} / {n_assignments} / 0")
            return None

        return check

    def refuted_at(addr, left, right):
        def check(verdict):
            for vaddr, assignment in verdict[4]:
                if vaddr == addr:
                    if not oracle.leaf_refuted(left, right, assignment):
                        return f"violation at {addr} does not refute {left} |- {right}"
                    return None
            return f"no violation reported at the planted leaf {addr}"

        return check

    ops = []
    for stem in CORPUS_SINGLE:
        text = corpus_text(root, stem)
        tree = terms.read_script(text)
        n_nodes = sum(1 for _ in terms.nodes(tree))
        # a mutant replaces a leaf by an unsound leaf over variables its
        # parent already has, so no node gains a variable and a mutant costs
        # what the whole audit costs on every seed
        leaves = []
        for _, parent in terms.nodes(tree):
            names = set().union(*(terms.atoms(t) for n in (parent, *parent[3]) for t in n[1:3]))
            names -= {"0", "Ph"}
            leaves += [(sorted(names), leaf) for leaf in parent[3] if not leaf[3] and names]
        addr_of = {id(node): addr for addr, node in terms.nodes(tree)}
        for ks in [(1, 2)] if stem in TINY_AUDITS else [(1,), (2,)]:
            label = f"{stem}|V|={','.join(map(str, ks))}"
            jobs = [((text, k), exhaustive(n_nodes, oracle.exhaustive_assignments(tree, 1 << (1 << k))))
                    for k in ks]
            ops.append(batch(label, run_audit, jobs, {"nodes": n_nodes * len(ks)}, "audit_assignments"))
            mutants = []
            for j in range(MUTANTS.get((stem, ks[-1]), MUTANTS[ks[-1]])):
                names, leaf = leaves[j % len(leaves)]
                left = rng.choice(names)
                right = rng.choice([n for n in names if n != left] + ["0"])
                addr = addr_of[id(leaf)]
                mutant = terms.script(gen.plant_leaf(tree, addr, left, right))
                mutants.append([((mutant, k), refuted_at(addr, left, right)) for k in ks])
            if len(ks) > 1:  # too small to time apart
                mutants = [sum(mutants, [])] if mutants else []
            for j, jobs in enumerate(mutants):
                ops.append(batch(f"{label}.mutant{j}", run_audit, jobs,
                                 {"nodes": n_nodes * len(jobs)}, "audit_assignments"))

    table = rule_table()
    # unsound by design: dropping an antecedent part; G = all, S = D = none breaks it
    planted = schema("W", "planted strengthening", ["G , S |- D"], "G |- D")
    groups = [list(table[i : i + SCHEMA_GROUP]) for i in range(0, len(table), SCHEMA_GROUP)]
    groups[-1].append(planted)
    for i, schemas in enumerate(groups):
        def check_schemas(v, schemas=schemas):
            for s, witness in zip(schemas, v):
                if s is planted:
                    if witness is None:
                        return "the planted unsound schema has no counterexample"
                    g, s_, d = witness["G"], witness["S"], witness["D"]
                    if g & s_ & ~d or not g & ~d:
                        return f"the counterexample {witness} does not refute the planted schema"
                elif witness is not None:
                    return f"{s.variant} unsound at |V|=1: {witness}"
            return None

        ops.append(
            Op(f"schemas{i}",
               lambda schemas=schemas: [schema_soundness_counterexample(s, contexts[1]) for s in schemas],
               check_schemas, {"schemas": len(schemas)})
        )
    return ops


# ---------------------------------------------------------------------------
# semantics: the queries of valid, flat, eval and translate at |V| = 1..4


def _semantics(rng, shape, root) -> list[Op]:
    from inqmt import (
        Context,
        entails,
        for_context,
        is_flat_semantic,
        parse_inql,
        support,
        support_table,
        tau_i,
        valid,
    )

    contexts = {k: Context.of(",".join(gen.VARS[:k])) for k in range(1, 5)}

    def query(texts, premise_texts, team_lists):
        out = []
        for k, ctx in contexts.items():
            alg = for_context(ctx)
            phi = parse_inql(texts[k])
            psi = parse_inql(premise_texts[k])
            table = support_table(ctx, phi)
            out.append((
                table,
                valid(ctx, phi),
                entails(ctx, [psi], phi),
                is_flat_semantic(ctx, phi) if k <= 3 else None,
                tuple(support(ctx, t, phi) for t in team_lists[k]),
                alg.denote_general(tau_i(phi), alg.canonical_assignment()),
                support_table(ctx, psi),
            ))
        return out

    def check(v, phi, psi, team_lists, clauses_upto):
        for k, (table, is_valid, ent, flat, sup, image, ptable) in zip(contexts, v):
            if k <= clauses_upto:
                if table != oracle.support_table(gen.rename(phi, k), k):
                    return f"support table differs from the clauses at |V|={k}"
                if ptable != oracle.support_table(gen.rename(psi, k), k):
                    return f"premise support table differs from the clauses at |V|={k}"
            elif table & 1 == 0 or not oracle.down_closed(table, k):
                return f"the |V|={k} table is not a down-set containing the empty team"
            if k <= 3 and flat != oracle.is_flat(table, k):
                return f"flatness verdict wrong at |V|={k}"
            if is_valid != (table == oracle.all_teams(k)):
                return f"validity verdict wrong at |V|={k}"
            if ent != (ptable & ~table == 0):
                return f"entailment verdict wrong at |V|={k}"
            if sup != tuple(bool((table >> t) & 1) for t in team_lists[k]):
                return f"pointwise support disagrees with the table at |V|={k}"
            if image != table:
                return f"tau_i is not adequate at |V|={k}"
        return None

    sizes = [size for size, count in SEMANTICS_SIZES for _ in range(count)]
    ops = []
    for i, size in enumerate(sizes):
        phi = gen.inql(shape(f"formula{i}"), rng, size)
        psi = gen.inql(shape(f"premise{i}"), rng, 7)
        texts = {k: terms.show(gen.rename(phi, k)) for k in contexts}
        premise_texts = {k: terms.show(gen.rename(psi, k)) for k in contexts}
        # the reference support walks subteams: teams of at most three worlds at |V|=3
        team_lists = {
            1: (rng.randrange(4), rng.randrange(4)),
            2: (rng.randrange(16), rng.randrange(16)),
            3: tuple(sum(1 << w for w in rng.sample(range(8), 3)) for _ in range(2)),
            4: (),
        }
        # every table is checked against the clauses at |V| <= 2, a seeded
        # third of them also at |V| = 3
        clauses_upto = 3 if rng.random() < 1 / 3 else 2
        ops.append(
            Op(
                f"formula{i}",
                lambda a=texts, b=premise_texts, c=team_lists: query(a, b, c),
                lambda v, phi=phi, psi=psi, c=team_lists, u=clauses_upto: check(v, phi, psi, c, u),
                {"formulas": 2 * len(contexts), "nodes": terms.size(phi),
                 "teams": sum(1 << (1 << k) for k in contexts)},
            )
        )
    # fails today: parse_inql and support_table recurse once per connective
    nest = "p -> (" * FAULT_NEST + "p" + ")" * FAULT_NEST
    ops.append(
        Op(
            f"nest{FAULT_NEST}",
            lambda: valid(contexts[1], parse_inql(nest)),
            lambda v: None if v is True else "p -> (p -> ... p) is valid by construction",
            {"formulas": 1, "nodes": 2 * FAULT_NEST + 1, "teams": 4},
        )
    )
    return ops


# ---------------------------------------------------------------------------
# selftest: the full built-in suites, one pass per operation


def _selftest(rng, shape, root) -> list[Op]:
    from inqmt import selftest

    def run():
        return [(r.name, r.ok, r.detail) for r in selftest.run("full")]

    def check(v):
        bad = [name for name, ok, _ in v if not ok]
        return f"suites fail: {bad}" if bad else None

    return [Op("selftest full", run, check, {"passes": 1})]


BUILDERS = {
    "kernel": _kernel,
    "audit": _audit,
    "semantics": _semantics,
    "selftest": _selftest,
}

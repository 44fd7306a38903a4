"""The compiled denotations against the recursive reference evaluator
(helpers.ref_*), on the corpus, on seeded random terms and on the rule
table's pattern sequents; the memoised compiler's programs against the
tree walk's (helpers.TreeCompiler); the staged search against a product
loop."""

import random
import time
from itertools import product

import pytest

from inqmt import corpus, denote as denote_module, metavars as mv, selftest
from inqmt.algebra import for_context
from inqmt.calculus import audit_soundness, schema_soundness_counterexample
from inqmt.contexts import Context
from inqmt.denote import AND, DOWN, Compiler, Machine, Polarity, denote
from inqmt.errors import InqmtError
from inqmt.formulas import Cap, Down, FVar, GAnd, fold, subterms, variables
from inqmt.parser import parse_sequent, parse_structure
from inqmt.rules import rule_table
from inqmt.structures import Comma, Derivation, Gt, Semi, Sequent, Sup

from helpers import (
    checked_compilers,
    rand_flat,
    rand_flat_structure,
    rand_general,
    rand_general_structure,
    ref_audit,
    ref_formula,
    ref_sequent_holds,
    ref_structure,
)

ALGEBRAS = [for_context(Context.of("p")), for_context(Context.of("p,q"))]
POLARITIES = (Polarity.ANT, Polarity.SUC)


def _compile(top, sequents, leaf_order=None):
    compiler = Compiler(top)
    for seq in sequents:
        compiler.add_sequent(seq)
    return compiler.program(leaf_order)


def _agree(alg, prog, sequents, env):
    """Every sequent's two sides, and the instance verdict, match the reference."""
    values = [env[k] for k in prog.leaves]
    s = Machine(alg).slots(prog, values)
    for seq, (a, c) in zip(sequents, prog.results):
        assert s[a] == ref_structure(seq.antecedent, Polarity.ANT, alg, env), seq
        assert s[c] == ref_structure(seq.succedent, Polarity.SUC, alg, env), seq
    *premises, conclusion = sequents
    expected = all(ref_sequent_holds(p, alg, env) for p in premises) and not ref_sequent_holds(
        conclusion, alg, env
    )
    assert Machine(alg).fails(prog, values) == expected


@pytest.mark.parametrize("alg", ALGEBRAS, ids=["V1", "V2"])
def test_corpus_nodes_match_reference(alg):
    rng = random.Random(71)
    nodes = 0
    for name in corpus.names():
        for _, node in corpus.load(name).nodes():
            sequents = [p.conclusion for p in node.premises] + [node.conclusion]
            prog = _compile(alg.full_team, sequents)
            for _ in range(8):
                env = {k: rng.randrange(alg.n_teams) for k in prog.leaves}
                _agree(alg, prog, sequents, env)
                alone = _compile(alg.full_team, [node.conclusion])
                holds = not Machine(alg).fails(alone, [env[k] for k in alone.leaves])
                assert holds == ref_sequent_holds(node.conclusion, alg, env)
            nodes += 1
    assert nodes > 100  # every node of every corpus script


@pytest.mark.parametrize("alg", ALGEBRAS, ids=["V1", "V2"])
def test_random_formulas_match_reference(alg):
    rng = random.Random(72)
    for _ in range(300):
        env = {v: rng.randrange(alg.n_teams) for v in ("p", "q", "r")}
        alpha = rand_flat(rng, 4)
        a = rand_general(rng, 4)
        assert alg.denote_general(a, env) == ref_formula(a, alg, env)
        for pol in POLARITIES:
            assert denote(alg, alpha, pol, env) == ref_formula(alpha, alg, env)
            assert denote(alg, a, pol, env) == ref_formula(a, alg, env)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=["V1", "V2"])
def test_random_structures_match_reference(alg):
    rng = random.Random(73)
    raised = 0
    for _ in range(300):
        env = {v: rng.randrange(alg.n_teams) for v in ("p", "q", "r")}
        for s in (rand_flat_structure(rng, 3), rand_general_structure(rng, 3)):
            for pol in POLARITIES:
                try:
                    expected = ref_structure(s, pol, alg, env)
                except InqmtError:
                    raised += 1
                    with pytest.raises(InqmtError):
                        denote(alg, s, pol, env)
                    continue
                assert denote(alg, s, pol, env) == expected
    assert raised  # Fs in succedent position occurs in the sample


def test_rule_table_patterns_match_reference():
    rng = random.Random(74)
    for alg in ALGEBRAS:
        downs = alg.all_downsets()
        for schema in rule_table():
            for seq in (*schema.premises, schema.conclusion):
                prog = _compile(alg.full_team, [seq])
                for _ in range(20):
                    env = {
                        m: rng.choice(downs)
                        if isinstance(m, (mv.SMetaG, mv.FMetaG))
                        else rng.randrange(alg.n_teams)
                        for m in prog.leaves
                    }
                    _agree(alg, prog, [seq], env)


def test_fs_in_succedent_raises():
    alg = ALGEBRAS[0]
    env = {"p": 1}
    with pytest.raises(InqmtError):
        denote(alg, parse_structure("Fs(p)"), Polarity.SUC, env)
    bad = parse_sequent("Dn(p) |- Fs(p)")
    with pytest.raises(InqmtError):
        prog = _compile(alg.full_team, [bad])
        Machine(alg).fails(prog, [env[k] for k in prog.leaves])
    with pytest.raises(InqmtError):
        audit_soundness(Derivation(bad, "Id"), Context.of("p"))
    # a root after a failing premise is never run, so it never raises
    prog = _compile(alg.full_team, [parse_sequent("Ph |- 0"), bad])
    assert not Machine(alg).fails(prog, [1])


def test_shared_subterms_share_a_slot():
    sequents = [parse_sequent("dn(p) |- dn(p) /\\ dn(q)"), parse_sequent("dn(q) ; dn(p) |- dn(p)")]
    prog = _compile(ALGEBRAS[1].full_team, sequents)
    ops = [op for segment in prog.segments for op in segment]
    assert sum(1 for op in ops if op[0] == DOWN) == 2
    # the second sequent adds only its meet; both dn(.) come from the first
    assert [op[0] for op in prog.segments[1]] == [AND]


def test_deep_formula_compiles_without_recursion():
    alpha = FVar("p")
    for _ in range(5000):
        alpha = Cap(FVar("q"), alpha)
    alg = ALGEBRAS[1]
    env = {"p": 0b1011, "q": 0b0111}
    assert denote(alg, alpha, Polarity.ANT, env) == 0b0011


def test_audit_and_schema_programs_equal_the_tree_walks(monkeypatch):
    checked = checked_compilers(monkeypatch)
    for schema in rule_table():  # the surgical cut's consumer contexts among them
        schema_soundness_counterexample(schema, Context.of("p"))
    schemas = len(checked)
    assert schemas > len(rule_table())
    for ctx in (Context.of("p"), Context.of("p,q")):
        for name in corpus.names():
            audit_soundness(corpus.load(name), ctx)
    assert len(checked) - schemas >= 2 * len(corpus.names())  # a program per variable set


def test_selftest_programs_equal_the_tree_walks(monkeypatch):
    checked = checked_compilers(monkeypatch)
    assert selftest._axiom_suite().ok
    groups = len(checked)
    assert groups == 10  # a program per group of axiom schemas with equal domains
    assert selftest._population_suite().ok
    assert len(checked) > groups  # every chunk of tau_i images


def test_a_subterm_at_both_polarities_gets_a_node_per_polarity(monkeypatch):
    """X sits left of |> or > (read at the opposite polarity) and beside it
    (read at the structure's own): a memo blind to polarity would hand the
    second reading the first's node."""
    checked = checked_compilers(monkeypatch)
    rng = random.Random(76)
    for i in range(300):
        if i % 2:
            x = rand_flat_structure(rng, 2)
            s = Comma(Sup(x, rand_flat_structure(rng, 2)), x)
        else:
            x = rand_general_structure(rng, 2)
            s = Semi(Gt(x, rand_general_structure(rng, 2)), x)
        compiler = denote_module.Compiler(ALGEBRAS[1].full_team)
        compiler.add_term(s, Polarity.SUC).add_sequent(Sequent(s, x)).program()
    assert len(checked) == 300


def test_compiling_costs_the_distinct_term_polarity_pairs(monkeypatch):
    """On the population suite's chunks of tau_i images, the walk expands
    each distinct (term, polarity) pair once: formulas are read at their
    root's polarity, so these are the distinct subterms of each chunk,
    about a sixth of the tree nodes."""
    expanded, chunks = [], []

    class Counted(dict):  # a term is stored in its memo once it is expanded
        def __setitem__(self, term, node):
            expanded.append(term)
            super().__setitem__(term, node)

    class Counting(Compiler):
        def __init__(self, top):
            super().__init__(top)
            self._ant_ids, self._suc_ids = Counted(), Counted()
            chunks.append([])

        def add_term(self, term, pol):
            chunks[-1].append(term)
            return super().add_term(term, pol)

    def tree_size(t, done):
        return 1 + sum(done[k] for k in t.parts)

    monkeypatch.setattr(selftest, "Compiler", Counting)
    assert selftest._population_suite().ok
    pairs = sum(sum(1 for _ in subterms(*roots)) for roots in chunks)
    sizes: dict = {}
    tree = sum(fold(t, tree_size, sizes) for roots in chunks for t in roots)
    assert len(expanded) == pairs == 4071
    assert tree == 23964


def test_a_dag_compiles_in_its_distinct_nodes():
    """A_0 = dn(p), A_k+1 = A_k /\\ A_k: 23 distinct nodes at k = 22 and
    about 12.6 million tree nodes."""
    alg = ALGEBRAS[1]
    a = Down(FVar("p"))
    for _ in range(22):
        a = GAnd(a, a)
    start = time.perf_counter()
    assert denote(alg, a, Polarity.ANT, alg.canonical_assignment()) == alg.var_downset("p")
    assert time.perf_counter() - start < 0.5


class CountedDomain(list):
    """A domain that counts the values the search draws from it."""

    drawn = 0

    def __iter__(self):
        for x in super().__iter__():
            self.drawn += 1
            yield x


def test_search_prunes_a_subtree_settled_by_an_outer_premise():
    # p |- 0 is known once p is: it fails for p > 0, so q is drawn for p = 0 only
    alg = ALGEBRAS[0]
    sequents = [parse_sequent("p |- 0"), parse_sequent("p |- q")]
    prog = _compile(alg.full_team, sequents, ["p", "q"])
    ps, qs = CountedDomain(range(4)), CountedDomain(range(4))
    assert Machine(alg).search(prog, [ps, qs], [(0, 1)]) == [(16, None)]
    assert (ps.drawn, qs.drawn) == (4, 4)
    # the audit still counts every assignment of the pruned subtree
    d = Derivation(sequents[1], "X", (Derivation(sequents[0], "Id"),))
    report = audit_soundness(d, Context.of("p"))
    assert report == ref_audit(d, Context.of("p")) and report.nodes[0].assignments == 16


def test_fs_is_reached_only_past_the_roots_before_it():
    # the premise never holds (Ph is all worlds, q & ~q none) but is known
    # only once q is; Dn(p) |- Fs(p) is known once p is, yet never reached
    never = parse_sequent("Ph |- q & (q ~> 0)")
    bad = parse_sequent("Dn(p) |- Fs(p)")
    d = Derivation(bad, "X", (Derivation(never, "Id"),))
    assert audit_soundness(d, Context.of("p")) == ref_audit(d, Context.of("p"))
    assert audit_soundness(d, Context.of("p")).nodes[0].assignments == 16
    # where the premise can hold, the root is reached and raises
    d = Derivation(bad, "X", (Derivation(parse_sequent("Ph |- q"), "Id"),))
    with pytest.raises(InqmtError):
        audit_soundness(d, Context.of("p"))


def _product_outcomes(alg, sequents, instances, names):
    """Per instance, (checked, first failing values) from its own program
    run once per assignment; or InqmtError when one of them raises."""
    fails = Machine(alg).fails
    out = []
    for roots in instances:
        prog = _compile(alg.full_team, [sequents[r] for r in roots], names)
        checked, found = 0, None
        for values in product(range(alg.n_teams), repeat=len(names)):
            checked += 1
            try:
                failed = fails(prog, values)
            except InqmtError:
                return InqmtError
            if failed:
                found = values
                break
        out.append((checked, found))
    return out


def test_search_matches_a_product_loop():
    rng = random.Random(75)
    alg = ALGEBRAS[0]
    outcomes = set()
    for _ in range(200):
        sequents = []
        for _ in range(5):
            make = rng.choice((rand_flat_structure, rand_general_structure))
            sequents.append(Sequent(make(rng, 2), make(rng, 2)))
        instances = [tuple(rng.choices(range(5), k=rng.randrange(1, 4))) for _ in range(4)]
        names = sorted(variables(*(t for seq in sequents for t in (seq.antecedent, seq.succedent))))
        prog = _compile(alg.full_team, sequents, names)
        expected = _product_outcomes(alg, sequents, instances, names)
        if expected is InqmtError:
            with pytest.raises(InqmtError):
                Machine(alg).search(prog, [range(alg.n_teams)] * len(names), instances)
            outcomes.add("raises")
            continue
        found = Machine(alg).search(prog, [range(alg.n_teams)] * len(names), instances)
        assert found == expected
        outcomes.update("fails" if v else "holds" for _, v in found)
    assert outcomes == {"raises", "fails", "holds"}

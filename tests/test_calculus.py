import dataclasses
import random
import sys
import time
import tracemalloc

import pytest

from inqmt import calculus, corpus, metavars as mv, rules
from inqmt.algebra import for_context
from inqmt.calculus import (
    AuditNode,
    Polarity,
    audit_soundness,
    check_derivation,
    check_rule_table_soundness,
    cut_formula,
    match_name,
    schema_soundness_counterexample,
)
from inqmt.contexts import Context
from inqmt.cutelim import reduce_all
from inqmt.denote import denote
from inqmt.derivations import (
    completeness_dne,
    completeness_kp,
    identity,
    principal_cut_example,
)
from inqmt.errors import InqmtError
from inqmt.formulas import FZERO, Cap, Down, FImp, FVar, GAnd, GImp, GOr
from inqmt.parser import parse_sequent, parse_structure
from inqmt.rules import RuleSchema, lookup, pseq, rule_table, schema
from inqmt.structures import (
    Comma,
    Derivation,
    FlatFml,
    FlatStructure,
    GenFml,
    Semi,
    Sequent,
    Sort,
    address,
)

from helpers import (
    meta_polarities,
    plant_leaf,
    rand_flat,
    rand_flat_structure,
    rand_general,
    rand_general_structure,
    ref_audit,
    ref_c1_lint,
    ref_check,
    ref_match_surgical,
    ref_replace,
    ref_schema_counterexample,
    ref_sequent_occurrences,
    weakening_chain,
)

P1 = Context.of("p")
A1 = for_context(P1)


def test_rule_table_lookups():
    (dadj,) = lookup("d adj")
    assert dadj.bidirectional
    assert str(dadj.premises[0]) == "F(X) |- G"
    assert str(dadj.conclusion) == "X |- Dn(G)"
    (kp,) = lookup("KP")
    assert str(kp.conclusion) == "X |- (Dn(G) > Y) ; (Dn(G) > Z)"
    assert len(kp.premises) == 1
    (ident,) = lookup("Id")
    assert not ident.premises and str(ident.conclusion) == "p |- p"
    assert all(s.extension for s in lookup("resF") + lookup("resG"))
    assert {s.name for s in rule_table()} >= {
        "Cut", "Phi", "DnPhi", "W", "C", "E", "A", "G", "Id", "CG",
        "bal", "d mon", "f mon", "f adj", "d adj", "d-f elim", "d dis", "f dis", "KP",
        "0L", "0R", "capL", "capR", "fimpL", "fimpR", "orL", "orR",
        "andL", "andR", "impL", "impR", "dnL", "dnR", "resF", "resG",
    }


def check_introductions(table):
    """Each row's left rule introduces its connective in display in the
    antecedent of its conclusion and its right rule in the succedent; the
    two-premise rule, if any, builds the row's structure on the other
    side."""
    for connective, (left, right, pair) in table.items():
        introduced = mv.PMeta if connective is FVar else connective
        for name, side in ((left, "ant"), (right, "suc")):
            (s,) = lookup(name)
            principal = s.conclusion.antecedent if side == "ant" else s.conclusion.succedent
            assert type(principal) in (FlatFml, GenFml), name
            assert type(principal.formula) is introduced, name
        two = [s for s in {*lookup(left), *lookup(right)} if len(s.premises) == 2]
        if pair is None:
            assert not two, connective
        else:
            (s,) = two
            other = s.conclusion.succedent if s.name == left else s.conclusion.antecedent
            assert type(other) is pair, s.name


def test_introductions_match_the_rule_table():
    check_introductions(rules.INTRODUCTIONS)
    for bad in ({Cap: ("capR", "capL", Comma)}, {Cap: ("capL", "capR", Semi)}):
        with pytest.raises(AssertionError):
            check_introductions(bad)


def test_match_examples():
    m = match_name(
        "d-f elim",
        parse_sequent("Dn(p) |- Dn(q)"),
        [parse_sequent("Dn(F(Dn(p))) |- Dn(q)")],
    )
    assert m is not None
    m = match_name(
        "f dis",
        parse_sequent("F(Dn(p) ; Dn(q)) |- r"),
        [parse_sequent("F(Dn(p)) , F(Dn(q)) |- r")],
    )
    assert m is not None
    for name in [s.name for s in rule_table()]:
        assert match_name(name, parse_sequent("p |- q"), [parse_sequent("p |- p")]) is None


def test_double_line_matches_both_directions():
    down = (parse_sequent("dn(p) |- Dn(p)"), [parse_sequent("F(dn(p)) |- p")])
    up = (parse_sequent("F(dn(p)) |- p"), [parse_sequent("dn(p) |- Dn(p)")])
    (s,) = lookup("d adj")
    assert match_name("d adj", *down) is s and match_name("d adj", *up) is s
    # the reversed instance matches only through the second direction
    one_way = dataclasses.replace(s, bidirectional=False)
    assert calculus.match_rule(one_way, *down) is one_way
    assert calculus.match_rule(one_way, *up) is None


def test_check_derivation_accepts_corpus():
    for name in corpus.CRITERION_SET:
        result = check_derivation(corpus.load(name))
        assert result.ok, (name, result.reason)
        assert all(r.status == "ok" for r in result.records)


def test_residuation_steps_flagged_as_extensions():
    result = check_derivation(corpus.load("appendix_kp"))
    notes = {r.note for r in result.records if r.rule in ("resF", "resG")}
    assert notes == {"extension: display postulate"}


def test_check_derivation_rejects_bad_shapes():
    # d adj applied to something that is not an adjunction instance
    bad = Derivation(
        parse_sequent("dn(p) |- Dn(p)"),
        "d adj",
        (Derivation(parse_sequent("F(dn(q)) |- p"), "Id"),),
    )
    result = check_derivation(bad)
    assert not result.ok
    assert result.error_addr == ()
    assert "shape mismatch" in result.reason
    # a shape mismatch names the variants tried, in FAMILIES order
    assert result.reason == "shape mismatch for d adj: tried d adj"
    weakened = Derivation(parse_sequent("p |- q"), "W", (identity(FVar("p")),))
    assert check_derivation(weakened).reason == (
        "shape mismatch for W: tried W-L(Flat), W-R(Flat), W-L(Gen), W-R(Gen)"
    )
    unknown = Derivation(parse_sequent("p |- p"), "IdX")
    assert "unknown rule" in check_derivation(unknown).reason
    wrong_arity = Derivation(parse_sequent("p |- p"), "Id", (identity(FVar("p")),))
    assert "premises" in check_derivation(wrong_arity).reason


def _break_at(d, rng):
    """d with one seeded node broken: its rule renamed, or its succedent
    replaced by a formula no premise mentions."""
    link, node = rng.choice(list(d.nodes()))
    if rng.random() < 0.5:
        broken = Derivation(node.conclusion, rng.choice(sorted(rules.FAMILIES)), node.premises)
    else:
        zz = FVar("zz")
        fresh = FlatFml(zz) if node.conclusion.sort is Sort.FLAT else GenFml(Down(zz))
        broken = Derivation(Sequent(node.conclusion.antecedent, fresh), node.rule, node.premises)
    return d.replace(address(link), broken)


def _assert_checks_as_ref(d):
    result = check_derivation(d)
    ok, records, error_addr, error_rule, reason = ref_check(d)
    assert (result.ok, result.error_addr, result.error_rule, result.reason) == (
        ok, error_addr, error_rule, reason
    )
    assert result.records == records
    return result


def test_check_derivation_matches_the_occurrence_loop():
    rng = random.Random(20)
    derivations = [corpus.load(name) for name in corpus.names()]
    for _ in range(100):
        derivations += [identity(rand_flat(rng, 4)), identity(rand_general(rng, 4))]
    cuts = [FVar("p"), FZERO, Down(rand_flat(rng, 3))]
    cuts += [shape(rand_flat(rng, 3), rand_flat(rng, 3)) for shape in (Cap, FImp)]
    cuts += [shape(rand_general(rng, 3), rand_general(rng, 3)) for shape in (GAnd, GOr, GImp)]
    for formula in cuts:
        d = principal_cut_example(formula)
        derivations += [d, reduce_all(d)[0]]
    derivations += [weakening_chain(n) for n in (1, 2, 50)]
    broken = [_break_at(d, rng) for d in derivations]
    broken += [plant_leaf(corpus.load(n), rng) for n in LEMMA_SCRIPTS for _ in range(3)]
    for d in derivations:
        assert _assert_checks_as_ref(d).ok
    rejected = sum(not _assert_checks_as_ref(d).ok for d in broken)
    assert rejected > 0.8 * len(broken)


def test_record_addresses_are_the_occurrence_addresses():
    # a record's address extends its parent's; address(link) walks the
    # parent links on its own
    rng = random.Random(21)
    derivations = [corpus.load(name) for name in corpus.names()]
    derivations += [plant_leaf(corpus.load(n), rng) for n in LEMMA_SCRIPTS for _ in range(3)]
    derivations.append(weakening_chain(3000))
    for d in derivations:
        records = check_derivation(d).records
        assert [r.addr for r in records] == [address(link) for link, _ in d.nodes()]


def test_a_shared_broken_subderivation_fails_at_both_addresses():
    # capR over one broken premise twice: the interned premise is matched
    # once, and its verdict is read at both addresses
    premise = Derivation(parse_sequent("p |- q"), "Id")
    d = Derivation(parse_sequent("p , p |- q & q"), "capR", (premise, premise))
    result = _assert_checks_as_ref(d)
    assert not result.ok and result.error_addr == (0,) and result.error_rule == "Id"
    assert [(r.addr, r.status) for r in result.records] == [
        ((), "ok"), ((0,), "error"), ((1,), "error")
    ]
    assert result.records is result.records  # built once, when first read


def test_metavariable_renaming_is_invisible():
    # the same Id instance matches whatever the schema calls its variable
    assert match_name("Id", parse_sequent("zz_1 |- zz_1"), []) is not None
    assert match_name("Id", parse_sequent("p |- q"), []) is None


def test_cut_type_uniformity():
    d = corpus.load("cut_down_after")
    result = check_derivation(d)
    assert result.ok
    cuts = [node for _, node in d.nodes() if node.rule == "Cut"]
    for node in cuts:
        assert node.conclusion.sort == node.premises[1].conclusion.sort
        assert node.premises[0].conclusion.sort is Sort.FLAT


def test_denote_structure_examples():
    assignment = A1.canonical_assignment()
    phi_ant = denote(A1, parse_sequent("Ph |- p").antecedent, Polarity.ANT, assignment)
    assert phi_ant == A1.full_team
    phi_suc = denote(A1, parse_sequent("p |- Ph").succedent, Polarity.SUC, assignment)
    assert phi_suc == 0
    fx = parse_sequent("F(dn(p)) |- p").antecedent
    body = A1.denote_general(Down(FVar("p")), assignment)
    assert denote(A1, fx, Polarity.ANT, assignment) == A1.f(body)
    assert denote(A1, fx, Polarity.SUC, assignment) == A1.f(body)
    dn = parse_structure("Dn(p)")
    down_p = A1.downset(P1.var_team("p"))
    assert denote(A1, dn, Polarity.SUC, assignment) == down_p
    assert denote(A1, dn, Polarity.ANT, assignment) == down_p
    with pytest.raises(InqmtError):
        denote(A1, parse_structure("Fs(p)"), Polarity.SUC, assignment)


def test_audit_interaction_instances():
    base = Derivation(parse_sequent("p |- p"), "Id")
    bal = Derivation(parse_sequent("Fs(p) |- Dn(p)"), "bal", (base,))
    assert audit_soundness(bal, P1).ok
    assert audit_soundness(completeness_kp(FVar("p"), Down(FVar("q")), Down(FVar("r"))), P1).ok


def test_audit_catches_flipped_rule():
    # X |- Y over Y |- X is unsound; the audit searches assignments directly
    flipped = Derivation(
        parse_sequent("dn(q) |- dn(p)"),
        "E",
        (Derivation(parse_sequent("dn(p) |- dn(q)"), "Id"),),
    )
    report = audit_soundness(flipped, P1)
    assert not report.ok
    assert report.violations[0].rule == "E"
    assert set(report.violations[0].assignment) == {"p", "q"}


def test_audit_sampling_path():
    d = completeness_dne(FVar("p"))
    report = audit_soundness(d, P1, samples=200, max_exhaustive=1)
    assert report.ok
    # nodes without variables stay exhaustive (space of size one)
    assert 0 < report.sampled_nodes < report.nodes_checked


def test_audit_without_samples_fails_as_unchecked():
    d = completeness_dne(FVar("p"))
    report = audit_soundness(d, P1, samples=0, max_exhaustive=1)
    assert not report.violations and report.assignments_checked > 0
    # nodes without variables stay exhaustive; every other node checked nothing
    assert report.unchecked_nodes == report.sampled_nodes > 0
    assert not report.ok
    assert audit_soundness(d, P1).unchecked_nodes == 0


def test_sampled_audit_memory_does_not_grow_with_the_draws():
    # at four variables every draw adds down-sets of up to 8 kB to the
    # machine's memo tables; they are emptied beyond a fixed size
    ctx = Context.of("p,q,r,s")
    node = Derivation(parse_sequent("Dn(p) ; Dn(q) |- Dn(p) ; Dn(q)"), "Id")
    peaks = []
    for draws in (1500, 4500):
        tracemalloc.start()
        report = audit_soundness(node, ctx, samples=draws, max_exhaustive=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert report.ok and report.assignments_checked == draws
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_exhaustive_audit_memory_is_bounded_at_four_variables():
    # one variable, so all 65,536 assignments are searched; the staged
    # search keeps each down-set it computes unless its tables are emptied
    node = Derivation(parse_sequent("Dn(p) |- Dn(p) ; Dn(p)"), "C")
    tracemalloc.start()
    report = audit_soundness(node, Context.of("p,q,r,s"))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert report.ok and report.assignments_checked == 65_536 and not report.sampled_nodes
    assert peak < 64 * 2**20, peak


LEMMA_SCRIPTS = corpus.LEMMA52 + corpus.APPENDIX
P2 = Context.of("p,q")


@pytest.mark.parametrize("name", LEMMA_SCRIPTS)
def test_audit_matches_the_per_node_reference(name):
    rng = random.Random(name)
    d = corpus.load(name)
    for tree in (d, plant_leaf(d, rng), plant_leaf(d, rng)):
        for ctx, kw in (
            (P1, {}),
            (P2, {}),
            (P2, {"max_exhaustive": 300, "samples": 50, "seed": 3}),
            (P2, {"max_exhaustive": 300, "samples": 0}),
        ):
            assert audit_soundness(tree, ctx, **kw) == ref_audit(tree, ctx, **kw), (ctx, kw)


def test_nodes_of_one_group_fail_at_their_own_assignments():
    # both nodes range over (p, q), teams 0..3 each, p outermost: the leaf
    # p |- q first fails at p=1, q=0 (index 4), the root at p=q=1 (index 5)
    leaf = Derivation(parse_sequent("p |- q"), "Id")
    root = Derivation(parse_sequent("p , q |- 0"), "W", (leaf,))
    report = audit_soundness(root, P1)
    assert report == ref_audit(root, P1)
    assert report.nodes == [AuditNode((), "W", 6, False), AuditNode((0,), "Id", 5, False)]
    assert [v.assignment for v in report.violations] == [{"p": 1, "q": 1}, {"p": 1, "q": 0}]
    assert report.assignments_checked == 11 and report.seed == 0


def test_schema_witnesses_match_a_product_search(monkeypatch):
    planted = schema("W", "planted strengthening", ["G , S |- D"], "G |- D")
    for s in (*rule_table(), *CORRUPTED, planted):
        expected = ref_schema_counterexample(s, P1, calculus._CUT_CONTEXTS)
        assert schema_soundness_counterexample(s, P1) == expected, s.variant
    # cutting into a succedent-part hole is unsound: the surgical search
    # finds the same first witness as the product loop
    contexts = ("a |- S", "S |- a , D", "S |- a")
    monkeypatch.setattr(calculus, "_CUT_CONTEXTS", contexts)
    (cut,) = [s for s in rule_table() if s.surgical]
    witness = schema_soundness_counterexample(cut, P1)
    assert witness is not None and witness["context"] == "S |- a , D"
    assert witness == ref_schema_counterexample(cut, P1, contexts)


def test_rule_table_sound_at_one_variable():
    assert check_rule_table_soundness(P1) == []


CORRUPTED = [
    schema("mutFlip", "flip", ["G |- D"], "D |- G"),
    schema("mutUnweaken", "unweaken", ["G , S |- D"], "G |- D"),
    RuleSchema(
        "mutBadId",
        "bad id",
        (),
        Sequent(FlatFml(mv.PMeta("p")), FlatFml(mv.PMeta("q"))),
    ),
    schema("mutDfRev", "d-f flipped", ["X |- Y"], "Dn(F(X)) |- Y"),
    schema("mutKpGen", "KP without Dn", ["X |- W > (Y ; Z)"], "X |- (W > Y) ; (W > Z)"),
    schema("mutImpFlip", "impL flipped", ["X |- A", "B |- Y"], "A => B |- Y > X"),
    schema("mutFMonFlip", "f mon flipped", ["X |- Y"], "F(Y) |- F(X)"),
    schema("mutPhiZero", "Ph proves 0", [], "Ph |- 0"),
    schema("mutDDis", "d dis wrong image", ["X |- Dn(G) > Dn(D)"], "X |- Dn(G , D)"),
    schema("mutDrop", "dropped premise part", ["G , D |- S"], "G |- S"),
]


def test_mutation_schemas_are_caught():
    assert len(CORRUPTED) == 10
    for bad in CORRUPTED:
        witness = schema_soundness_counterexample(bad, P1)
        assert witness is not None, bad.variant


def test_structure_metavariables_have_consistent_polarity():
    for s in rule_table():
        if s.name == "Cut":
            continue
        for meta, pols in meta_polarities(s).items():
            if isinstance(meta, (mv.SMetaF, mv.SMetaG)):
                assert len(pols) == 1, (s.variant, meta)


def test_surgical_cut_respects_polarity():
    # the marked occurrence must be antecedent-part: the second coordinate
    # of a succedent arrow is succedent-part and may not be cut into,
    # while the first coordinate flips and is a legal position
    provider = parse_sequent("q |- p")
    blocked = match_name(
        "Cut", parse_sequent("r |- r |> q"), [provider, parse_sequent("r |- r |> p")]
    )
    assert blocked is None
    conclusion, consumer = parse_sequent("r |- q |> r"), parse_sequent("r |- p |> r")
    allowed = match_name("Cut", conclusion, [provider, consumer])
    assert allowed is not None and allowed.surgical
    assert ref_match_surgical(conclusion, provider, consumer) == ("suc", 0)
    premises = (Derivation(provider, "Id"), Derivation(consumer, "Id"))
    assert cut_formula(Derivation(conclusion, "Cut", premises)) == FVar("p")


def _surgical_cases(n, seed):
    """n (conclusion, provider, consumer) triples for the surgical cut.
    The consumer is a random sequent of either sort with the cut formula
    planted at one or two Flat positions of any polarity; the conclusion
    puts the provider's antecedent into one of them, into both, into one
    and changes something else, into some other position, or leaves the
    consumer as it is.  A fifth of the providers are the cut formula
    itself, and a few are not Flat formula providers."""
    rng = random.Random(seed)
    made = 0
    while made < n:
        make = (rand_flat_structure, rand_general_structure)[made % 2]
        consumer = Sequent(make(rng, 3), make(rng, 3))
        hole = FlatFml(rand_flat(rng, 1))
        planted = []
        for _ in range(rng.choice((1, 2))):
            spots = [
                path for path, t, _ in ref_sequent_occurrences(consumer)
                if isinstance(t, FlatStructure)
                and not any(path == q[:len(path)] for q in planted)
            ]
            if spots:
                planted.append(rng.choice(spots))
                consumer = ref_replace(consumer, planted[-1], hole)
        if not planted:
            continue
        gamma = hole if rng.random() < 0.2 else rand_flat_structure(rng, 2)
        provider = Sequent(gamma, hole)
        if rng.random() < 0.03:
            odd = (Sequent(gamma, Comma(hole, hole)), parse_sequent("Dn(p) |- Dn(q)"))
            provider = rng.choice(odd)
        kind = rng.randrange(5)
        conclusion = ref_replace(consumer, planted[0], gamma)
        if kind == 1:
            for path in planted[1:]:
                conclusion = ref_replace(conclusion, path, gamma)
        elif kind == 2:
            others = [
                (path, t) for path, t, _ in ref_sequent_occurrences(conclusion)
                if path[:len(planted[0])] != planted[0] and path != planted[0][:len(path)]
            ]
            if others:
                path, t = rng.choice(others)
                grow = rand_flat_structure if isinstance(t, FlatStructure) else rand_general_structure
                conclusion = ref_replace(conclusion, path, grow(rng, 1))
        elif kind == 3:
            conclusion = consumer
        elif kind == 4:
            path, t, _ = rng.choice(list(ref_sequent_occurrences(consumer)))
            if isinstance(t, FlatStructure):
                conclusion = ref_replace(consumer, path, gamma)
        made += 1
        yield conclusion, provider, consumer


def test_surgical_cut_matches_the_occurrence_search():
    (cut,) = [s for s in lookup("Cut") if s.surgical]
    matched, sorts, same = 0, set(), 0
    for conclusion, provider, consumer in _surgical_cases(4000, 16):
        m = calculus.match_rule(cut, conclusion, [provider, consumer])
        want = ref_match_surgical(conclusion, provider, consumer)
        assert (m is None) == (want is None), (conclusion, provider, consumer)
        if m is not None:
            assert m is cut
            matched += 1
            sorts.add(conclusion.sort)
            same += provider.antecedent is provider.succedent
    assert 1000 < matched < 3000 and sorts == {Sort.FLAT, Sort.GENERAL} and same > 200


def test_weakening_chain_checks_in_linear_time():
    # C1 is proved once per schema and the matcher compares bindings by
    # identity, so matching a node costs the same at every depth; only
    # the records' addresses grow with it, and they are made when read
    d = weakening_chain(1000)
    start = time.perf_counter()
    result = check_derivation(d)
    assert time.perf_counter() - start < 4
    assert result.ok and len(result.records) == 1000


def test_a_10000_node_chain_checks_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    d = weakening_chain(10_000)
    start = time.perf_counter()
    result = check_derivation(d)
    assert time.perf_counter() - start < 10
    assert result.ok and len(result.records) == 10_000


def test_checking_a_deep_chain_makes_no_addresses():
    # an address per node, each as long as the node is deep, would take
    # about 400 MB on this chain
    d = weakening_chain(10_000)
    tracemalloc.start()
    ok = check_derivation(d).ok
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert ok and peak < 16 * 2**20, peak


def _matched_nodes():
    """(node, match) at every node that matches a schema, over the corpus,
    identity derivations, principal cuts and their reductions, hand-made
    surgical cuts into deep holes, weakening chains and planted breaks."""
    rng = random.Random(12)
    derivations = [corpus.load(name) for name in corpus.names()]
    derivations += [plant_leaf(corpus.load(n), rng) for n in LEMMA_SCRIPTS for _ in range(3)]
    for _ in range(10):
        derivations += [identity(rand_flat(rng, 4)), identity(rand_general(rng, 4))]
    cuts = [FVar("p"), FZERO, Down(rand_flat(rng, 3))]
    cuts += [shape(rand_flat(rng, 3), rand_flat(rng, 3)) for shape in (Cap, FImp)]
    cuts += [shape(rand_general(rng, 3), rand_general(rng, 3)) for shape in (GAnd, GOr, GImp)]
    for formula in cuts:
        d = principal_cut_example(formula)
        derivations += [d, reduce_all(d)[0]]
    provider = Derivation(parse_sequent("q , r |- p"), "Id")
    for consumer, conclusion in (
        ("s , (t |> p) |- u", "s , (t |> (q , r)) |- u"),
        ("Dn(s , p) |- Dn(u)", "Dn(s , (q , r)) |- Dn(u)"),
        ("s |- p |> u", "s |- (q , r) |> u"),
    ):
        consumer = Derivation(parse_sequent(consumer), "Id")
        derivations.append(Derivation(parse_sequent(conclusion), "Cut", (provider, consumer)))
    derivations += [weakening_chain(n) for n in (1, 2, 50)]
    for d in derivations:
        for _, node in d.nodes():
            m = match_name(node.rule, node.conclusion, [p.conclusion for p in node.premises])
            if m is not None:
                yield node, m


def test_c1_holds_at_every_matched_node():
    matched, holes = 0, set()
    for node, m in _matched_nodes():
        assert ref_c1_lint(node) is None, node
        matched += 1
        if m.surgical:
            holes.add(ref_match_surgical(node.conclusion, *(p.conclusion for p in node.premises)))
    assert matched > 1000 and {("ant",), ("ant", 1, 1), ("ant", 0, 1), ("suc", 0)} <= holes


def test_the_rule_table_proves_c1_once_per_schema():
    rules._validate_table()
    corrupted = (
        # a premise formula missing from the conclusion
        (schema("capL", "capL-bad", ["a & b |- G"], "a , b |- G"), ""),
        # only the reverse direction of a double-line schema loses it
        (schema("x", "x-bad", ["a , b |- G"], "a & b |- G", bidirectional=True), "reverse"),
        # a metavariable missing from the conclusion
        (schema("W", "W-bad", ["X ; Z |- Y"], "X |- Y"), ""),
        # cuts: a premise formula that is not the cut formula A
        (RuleSchema("Cut", "Cut-bad", (pseq("X |- A"), pseq("A /\\ A |- Y")), pseq("X |- Y")), ""),
        (RuleSchema("Cut", "Cut-lost", (pseq("G , D |- a"),), pseq("G |- a"), surgical=True), ""),
    )
    for s, where in corrupted:
        with pytest.raises(AssertionError, match=f"{s.variant}: {where}"):
            rules._validate_table((s,))
    # the reverse-only fault passes forwards
    rules._validate_table((schema("x", "x-fwd", ["a , b |- G"], "a & b |- G"),))
    # an instance of a rejected schema breaks C1 at its node
    premise = Derivation(parse_sequent("p & q |- r"), "Id")
    node = Derivation(parse_sequent("p , q |- r"), "capL", (premise,))
    m = calculus.match_rule(corrupted[0][0], node.conclusion, [node.premises[0].conclusion])
    assert m is corrupted[0][0] and "p & q" in ref_c1_lint(node)

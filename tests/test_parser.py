import random
import re
import signal
import sys

import pytest

from inqmt import corpus
from inqmt import metavars as mv
from inqmt import parser
from inqmt.calculus import check_derivation
from inqmt.derivations import corpus_derivations, identity, principal_cut_example
from inqmt.errors import MixedSortError, ParseError, SizeCapError
from inqmt.formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    GAnd,
    GImp,
    GOr,
    IAnd,
    IImp,
    IOr,
    IVar,
    IZERO,
    flat_neg,
    formula_size,
    gen_neg,
    subterms,
)
from inqmt.parser import (
    FLAT,
    GENERAL,
    derivation_to_sexp,
    parse_derivation,
    parse_flat,
    parse_general,
    parse_inql,
    parse_sequent,
    parse_structure,
    print_term,
)
from inqmt.structures import (
    Comma,
    Derivation,
    FlatFml,
    GenFml,
    Semi,
    Sequent,
    Sort,
    Sup,
)

from helpers import (
    rand_flat,
    rand_flat_structure,
    rand_general,
    rand_general_structure,
    rand_inql,
    ref_derivation_to_sexp,
    ref_occurrences,
    ref_parse_derivation,
    weakening_chain,
)

p, q = IVar("p"), IVar("q")


def test_parse_inql_examples():
    assert parse_inql("p \\/ ~p") == IOr(p, IImp(p, IZERO))
    assert parse_inql("0") == IZERO
    assert parse_inql("(p -> q) /\\ q") == IAnd(IImp(p, q), q)


def test_question_and_dependence_sugar():
    assert parse_inql("?p") == parse_inql("p \\/ ~p")
    assert parse_inql("=(p)") == parse_inql("?p")
    assert parse_inql("=(p,q)") == parse_inql("?p -> ?q")
    assert parse_inql("=(p,q,r)") == parse_inql("?p /\\ ?q -> ?r")


def test_flat_sugar():
    assert parse_flat("~a") == parse_flat("a ~> 0")
    assert parse_flat("a | b") == parse_flat("(a ~> 0) ~> b")
    assert parse_general("neg dn(a)") == parse_general("dn(a) => dn(0)")


def test_sugar_idempotence():
    for text in ["?p \\/ ~q", "~~p", "=(p,q)"]:
        once = parse_inql(text)
        again = parse_inql(print_term(once))
        assert once == again


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_inql("p -> ")
    assert e.value.pos == 5
    with pytest.raises(ParseError):
        parse_inql("p @ q")
    with pytest.raises(ParseError):
        parse_flat("Dn(p)")
    with pytest.raises(ParseError):
        parse_sequent("p |- q |- r")


def test_sequent_examples():
    s = parse_sequent("p |- p")
    assert s.sort is Sort.FLAT
    with pytest.raises(MixedSortError):
        parse_sequent("p |- dn(p)")
    s = parse_sequent("dn(a1) ; dn(b1) |- dn(a1) /\\ dn(b1)")
    assert s.sort is Sort.GENERAL


def test_sequent_accepts_iff_sorts_agree():
    rng = random.Random(4)
    for _ in range(60):
        flat = print_term(rand_flat_structure(rng, 2))
        gen = print_term(rand_general_structure(rng, 2))
        assert parse_sequent(f"{flat} |- {flat}").sort is Sort.FLAT
        assert parse_sequent(f"{gen} |- {gen}").sort is Sort.GENERAL
        with pytest.raises(MixedSortError):
            parse_sequent(f"{flat} |- {gen}")
        with pytest.raises(MixedSortError):
            parse_sequent(f"{gen} |- {flat}")


def test_roundtrip_formulas():
    rng = random.Random(1)
    for _ in range(300):
        phi = rand_inql(rng, 4)
        assert parse_inql(print_term(phi)) == phi
        alpha = rand_flat(rng, 4)
        assert parse_flat(print_term(alpha)) == alpha
        a = rand_general(rng, 3)
        assert parse_general(print_term(a)) == a


def test_roundtrip_structures():
    rng = random.Random(2)
    for _ in range(300):
        s = rand_flat_structure(rng, 3)
        assert parse_structure(print_term(s)) == s
        g = rand_general_structure(rng, 3)
        assert parse_structure(print_term(g)) == g


def test_roundtrip_sequents_and_scripts():
    rng = random.Random(3)
    for _ in range(100):
        s = rand_flat_structure(rng, 2)
        t = rand_flat_structure(rng, 2)
        seq = Sequent(s, t)
        assert parse_sequent(str(seq)) == seq
    d = Derivation(
        parse_sequent("p , q |- p & q"),
        "capR",
        (
            Derivation(parse_sequent("p |- p"), "Id"),
            Derivation(parse_sequent("q |- q"), "Id"),
        ),
    )
    assert parse_derivation(derivation_to_sexp(d)) == d


def test_corpus_scripts_roundtrip():
    for name in corpus.names():
        d = corpus.load(name)
        assert parse_derivation(derivation_to_sexp(d)) == d


def test_reserved_words_rejected_as_variables():
    with pytest.raises(ParseError):
        parse_inql("dn")
    with pytest.raises(ParseError):
        parse_flat("neg")


def test_corpus_files_are_the_builders_output():
    built = corpus_derivations()
    assert sorted(built) == sorted(corpus.names())
    for name, d in built.items():
        assert corpus.text(name) == derivation_to_sexp(d), name


def test_side_sort_is_read_through_parentheses():
    s = parse_sequent("((dn(p))) |- dn(p)")
    assert s.sort is Sort.GENERAL
    assert s.antecedent == s.succedent == GenFml(Down(FVar("p")))
    s = parse_sequent("((p , q)) |- p")
    assert s.sort is Sort.FLAT
    assert s.antecedent == Comma(FlatFml(FVar("p")), FlatFml(FVar("q")))
    with pytest.raises(MixedSortError):
        parse_sequent("((p)) |- ((dn(p)))")


def test_leading_tokens_name_one_sort():
    def leads(g):
        return {*g.atoms, *g.wrappers, *g.prefix, *g.metas}

    assert not leads(FLAT) & leads(GENERAL)


def test_formulas_bind_tighter_than_structure_operators():
    a, b, c = FVar("a"), FVar("b"), FVar("c")
    assert parse_structure("a ~> b , c") == Comma(FlatFml(FImp(a, b)), FlatFml(c))


def test_sugar_inside_structures():
    assert parse_structure("~p , q") == Comma(FlatFml(flat_neg(FVar("p"))), FlatFml(FVar("q")))
    assert parse_structure("neg A ; X", pattern_mode=True) == Semi(
        GenFml(gen_neg(mv.FMetaG("A"))), mv.SMetaG("X")
    )


def test_formula_connective_on_a_structure_is_an_error():
    for text, pos in (("Ph & p", 3), ("(p , q) & r", 8)):
        with pytest.raises(ParseError) as e:
            parse_structure(text)
        assert e.value.pos == pos
    with pytest.raises(ParseError) as e:
        parse_sequent("p |- Ph & p")
    assert e.value.pos == 8


# ---------------------------------------------------------------------------
# Scripts: one side table per script, checked against a node-by-node reader


HAND_WRITTEN = (
    # prefix sugar: the negated operands are sides of their own
    '(rule "a" (seq "~p , q" "~(p & q) , r") (rule "b" (seq "p" "(p & q)"))'
    ' (rule "c" (seq "p & q" "~p")))',
    '(rule "a" (seq "neg dn(p) ; Dn(q)" "neg (dn(p) /\\ dn(q))")'
    ' (rule "b" (seq "dn(p)" "dn(p) /\\ dn(q)")) (rule "c" (seq "neg dn(p)" "Dn(q)")))',
    # redundant parentheses and irregular spacing
    '(rule "a" (seq "((p ,q))  ,( r)" " (p ,q)") (rule "b" (seq "p ,q" "( r)"))'
    ' (rule "c" (seq "r" "((p))")))',
    # a side inside another side, parenthesised there
    '(rule "a" (seq "r , (p |> q)" "(p ~> q) ~> r") (rule "b" (seq "p |> q" "p ~> q")))',
    '(rule "a" (seq "F(dn(p) ; (Dn(q) > Dn(p)))" "p") (rule "b" (seq "Dn(q) > Dn(p)" "dn(p)")))',
)


def _generated_derivations():
    rng = random.Random(8)
    for _ in range(12):
        yield identity(rand_flat(rng, 4))
        yield identity(rand_general(rng, 4))
    for n in (1, 2, 7, 40):
        yield weakening_chain(n)
    shapes = (Cap, FImp, GAnd, GOr, GImp)
    for _ in range(4):
        yield principal_cut_example(FVar(rng.choice("pqr")))
        yield principal_cut_example(FZERO)
        yield principal_cut_example(Down(rand_flat(rng, 3)))
        for shape in shapes:
            make = rand_flat if shape in (Cap, FImp) else rand_general
            yield principal_cut_example(shape(make(rng, 3), make(rng, 3)))


def test_scripts_match_the_per_node_reference():
    texts = [corpus.text(name) for name in corpus.names()]
    for d in _generated_derivations():
        text = ref_derivation_to_sexp(d)
        assert derivation_to_sexp(d) == text
        texts.append(text)
    for text in [*texts, *HAND_WRITTEN]:
        d = parse_derivation(text)
        assert d == ref_parse_derivation(text), text
        assert derivation_to_sexp(d) == ref_derivation_to_sexp(d), text


def test_a_chain_is_read_by_two_readers_and_printed_side_by_side(monkeypatch):
    d = weakening_chain(300)
    text = ref_derivation_to_sexp(d)
    readers = []

    class Counting(parser._Reader):
        def __init__(self, text, *args, **kwargs):
            readers.append(text)
            super().__init__(text, *args, **kwargs)

    monkeypatch.setattr(parser, "_Reader", Counting)
    assert parse_derivation(text) == d
    # the root's antecedent holds every other antecedent as an operand;
    # the one-token side p is read on its own
    assert readers == [str(d.conclusion.antecedent), "p"]

    sides = {t for _, n in d.nodes() for t in (n.conclusion.antecedent, n.conclusion.succedent)}
    printed = []
    plain = parser.print_term

    def spy(t, texts=None):
        # every side inside t already has its text, so the walk stops there
        assert all(s in texts for s in subterms(t) if s in sides and s is not t)
        printed.append(t)
        return plain(t, texts)

    monkeypatch.setattr(parser, "print_term", spy)
    assert derivation_to_sexp(d) == text
    assert len(printed) == len(set(printed)) == len(sides) == 300


def test_print_term_emits_stored_texts_in_context():
    arrow = parse_structure("p |> q")
    texts = {arrow: "A"}
    assert print_term(Comma(FlatFml(FVar("r")), arrow), texts) == "r , (A)"
    assert print_term(Sup(FlatFml(FVar("r")), arrow), texts) == "r |> A"
    assert print_term(Sup(arrow, FlatFml(FVar("r"))), texts) == "(A) |> r"
    imp = parse_flat("p ~> q")
    assert print_term(FlatFml(FImp(imp, FVar("r"))), {imp: "B"}) == "(B) ~> r"
    assert print_term(FlatFml(FImp(FVar("r"), imp)), {imp: "B"}) == "r ~> B"


def test_script_errors_come_shape_first_then_in_text_order():
    # a shape error beats any side error, wherever that side is
    shape = '(rule "a" (seq "p" "p") (rule "b" (seq "p @" "p")) junk)'
    with pytest.raises(ParseError) as e:
        parse_derivation(shape)
    assert e.value.message == "expected ')', found 'junk'"
    with pytest.raises(ParseError) as e:
        ref_parse_derivation(shape)  # node by node, the premise's side came first
    assert e.value.message == "unexpected character '@'"
    # between faulty sides the one earlier in the text wins: the
    # conclusion's before its premise's, the antecedent before the succedent
    for conclusion, message in (
        ('"(q" "q"', "expected ')', found '<eof>'"),
        ('"q" "(q"', "expected ')', found '<eof>'"),
        ('"(q" "q @"', "expected ')', found '<eof>'"),
        ('"q @" "(q"', "unexpected character '@'"),
    ):
        with pytest.raises(ParseError) as e:
            parse_derivation(f'(rule "a" (seq {conclusion}) (rule "b" (seq "p @" "p")))')
        assert e.value.message == message
    mixed = '(rule "a" (seq "q" "dn(q)") (rule "b" (seq "p @" "p")))'
    with pytest.raises(MixedSortError):
        parse_derivation(mixed)
    with pytest.raises(ParseError):
        ref_parse_derivation(mixed)


# ---------------------------------------------------------------------------
# Sides assembled from sides already read: each script reads its parts
# first, and lists the sides it reads in full.  Everything else is built
# from the parts, and must be what reading it in full gives.

ASSEMBLY = (
    # precedence traps: X , Y |> Z is (X , Y) |> Z ...
    ('(rule "a" (seq "p , q" "r") (rule "b" (seq "p , q |> r" "r")))', ["p , q", "r"]),
    # ... but X |> Y , Z is X |> (Y , Z), never (X |> Y) , Z
    ('(rule "a" (seq "p" "q , r") (rule "b" (seq "p |> q , r" "r")))', ["p", "q , r", "r"]),
    ('(rule "a" (seq "p |> q" "r") (rule "b" (seq "p |> q , r" "r")))',
     ["p |> q", "r", "p |> q , r"]),
    # left-associative runs split at their last operator, right-associative at their first
    ('(rule "a" (seq "dn(p) ; dn(q)" "dn(r)") (rule "b" (seq "dn(p) ; dn(q) ; dn(r)" "Dn(Ph)")))',
     ["dn(p) ; dn(q)", "dn(r)", "Dn(Ph)"]),
    ('(rule "a" (seq "dn(p)" "dn(q) ; dn(r)") (rule "b" (seq "dn(p) ; dn(q) ; dn(r)" "Dn(Ph)")))',
     ["dn(p)", "dn(q) ; dn(r)", "dn(p) ; dn(q) ; dn(r)", "Dn(Ph)"]),
    ('(rule "a" (seq "dn(p)" "dn(q) > dn(r)") (rule "b" (seq "dn(p) > dn(q) > dn(r)" "Dn(Ph)")))',
     ["dn(p)", "dn(q) > dn(r)", "Dn(Ph)"]),
    ('(rule "a" (seq "dn(p) > dn(q)" "dn(r)") (rule "b" (seq "dn(p) > dn(q) > dn(r)" "Dn(Ph)")))',
     ["dn(p) > dn(q)", "dn(r)", "dn(p) > dn(q) > dn(r)", "Dn(Ph)"]),
    # sugar binds tighter than its stored connective
    ('(rule "a" (seq "~p" "q") (rule "b" (seq "~p , q" "q")))', ["~p", "q"]),
    ('(rule "a" (seq "neg dn(p)" "dn(q)") (rule "b" (seq "neg dn(p) ; dn(q)" "dn(q)")))',
     ["neg dn(p)", "dn(q)"]),
    # other spellings are read in full
    ('(rule "a" (seq "p" "q") (rule "b" (seq "p,q" "q")))', ["p", "q", "p,q"]),
    ('(rule "a" (seq "p" "q") (rule "b" (seq "(p , q)" "q")))', ["p", "q", "(p , q)"]),
    # wrappers, dn taking the formula of a lifted side
    ('(rule "a" (seq "(p , q)" "q") (rule "b" (seq "Dn((p , q))" "Dn(q)")))', ["(p , q)", "q"]),
    ('(rule "a" (seq "p & q" "F(Dn(p))") (rule "b" (seq "dn(p & q)" "Dn(p)")))',
     ["p & q", "F(Dn(p))"]),
    ('(rule "a" (seq "Dn(p)" "Dn(q)") (rule "b" (seq "F(Dn(p))" "q")))', ["Dn(p)", "Dn(q)", "q"]),
    # wrong sorts are read in full, and fail there
    ('(rule "a" (seq "p" "q") (rule "b" (seq "F(p)" "q")))', ["p", "q", "F(p)"]),
    ('(rule "a" (seq "p , q" "r") (rule "b" (seq "dn(p , q)" "dn(r)")))',
     ["p , q", "r", "dn(p , q)"]),
    ('(rule "a" (seq "dn(p)" "Dn(Ph)") (rule "b" (seq "Dn(dn(p))" "Dn(Ph)")))',
     ["dn(p)", "Dn(Ph)", "Dn(dn(p))"]),
    ('(rule "a" (seq "dn(p)" "Dn(Ph)") (rule "b" (seq "q" "q"))'
     ' (rule "c" (seq "dn(p) ; q" "Dn(Ph)")))',
     ["dn(p)", "Dn(Ph)", "q", "dn(p) ; q"]),
)


def _full_reads(monkeypatch) -> list:
    texts = []

    class Counting(parser._Reader):
        def __init__(self, text, *args, **kwargs):
            texts.append(text)
            super().__init__(text, *args, **kwargs)

    monkeypatch.setattr(parser, "_Reader", Counting)
    return texts


def _outcome(read, text):
    try:
        return read(text)
    except (ParseError, MixedSortError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("script, full", ASSEMBLY)
def test_sides_are_assembled_only_where_a_full_read_agrees(monkeypatch, script, full):
    expected = _outcome(ref_parse_derivation, script)
    texts = _full_reads(monkeypatch)
    assert _outcome(parse_derivation, script) == expected
    assert texts == full


def test_an_identity_derivation_reads_few_sides_in_full(monkeypatch):
    rng = random.Random(200)
    formula = rand_general(rng, 10)
    while formula_size(formula) < 200:
        formula = rand_general(rng, 10)
    d = identity(formula)
    text = derivation_to_sexp(d)
    texts = _full_reads(monkeypatch)
    assert parse_derivation(text) == d
    # 425 nodes, 195 distinct sides: the conclusion's antecedent holds every
    # General side as an operand or as an assembly of operands; the Flat
    # leaves are read before their parts
    assert formula_size(formula) == 219 and len(d.conclusion.antecedent.formula.parts) == 2
    assert texts == [str(formula), "r , p", "r", "p", "Dn(q)", "q", "0 |> p", "0", "Ph"]


# ---------------------------------------------------------------------------
# Side texts: one side of a script rewritten, so that it is assembled, or
# read in full, from other parts than the printer gave it; checked against
# the node-by-node reader on seeded rewrites of the corpus scripts and the
# generated derivations

_SIDE_TOKEN_RE = re.compile(r"~>|\|>|/\\|\\/|=>|[&|~?>;,()=]|[A-Za-z][A-Za-z0-9_]*|0")
_SEQ_RE = re.compile(r'\(seq "([^"]*)" "([^"]*)"\)')
_INFIX_TOKENS = frozenset(("|>", ",", "~>", "|", "&", ">", ";", "=>", "\\/", "/\\"))
_LEADING_WORDS = frozenset(("neg", "F", "Dn", "Fs", "dn"))
SWAPS = {",": ";", ";": ",", "|>": ">", ">": "|>", "&": "/\\", "/\\": "&"}


def _operands(text: str) -> list[tuple[int, int]]:
    """The spans of text that can be operands: balanced token runs from a
    token that can start an operand to one that can end one."""
    tokens = list(_SIDE_TOKEN_RE.finditer(text))
    spans = []
    for a, first in enumerate(tokens):
        if first[0] in _INFIX_TOKENS or first[0] == ")":
            continue
        depth = 0
        for last in tokens[a:]:
            depth += (last[0] == "(") - (last[0] == ")")
            if depth < 0:
                break
            ends = last[0] == ")" or last[0][-1].isalnum() and last[0] not in _LEADING_WORDS
            if depth == 0 and ends:
                spans.append((first.start(), last.end()))
    return spans


def _closing(text: str, i: int) -> int:
    """Where the ')' closing the '(' at i stands."""
    depth = 0
    for j in range(i, len(text)):
        depth += (text[j] == "(") - (text[j] == ")")
        if depth == 0:
            return j
    raise ValueError(text)


def _side_mutant(text: str, rng) -> str:
    """A side text with one seeded rewrite."""
    kind = rng.randrange(6)
    spans = _operands(text)
    tokens = list(_SIDE_TOKEN_RE.finditer(text))
    if kind == 0:  # parentheses around an operand
        i, j = rng.choice(spans)
        return f"{text[:i]}({text[i:j]}){text[j:]}"
    if kind == 1:  # parentheses dropped, other than a wrapper's
        opens = [m.start() for m in tokens if m[0] == "(" and not text[: m.start()][-1:].isalnum()]
        if not opens:
            return text.replace(" ", "")
        i = rng.choice(opens)
        j = _closing(text, i)
        return text[:i] + text[i + 1 : j] + text[j + 1:]
    if kind == 2:  # spaces removed around one operator, or everywhere
        ops = [m for m in tokens if m[0] in _INFIX_TOKENS]
        if not ops or rng.random() < 0.2:
            return text.replace(" ", "")
        m = rng.choice(ops)
        return text[: m.start()].rstrip() + m[0] + text[m.end():].lstrip()
    if kind == 3:  # one operator swapped for its look-alike of the other sort
        ops = [m for m in tokens if m[0] in SWAPS]
        if not ops:
            return text + " , p"
        m = rng.choice(ops)
        return text[: m.start()] + SWAPS[m[0]] + text[m.end():]
    i, j = rng.choice(spans)
    if kind == 4:  # a negation inserted
        return text[:i] + rng.choice(("~", "~ ", "neg ")) + text[i:]
    # an operand wrapped
    return f"{text[:i]}{rng.choice(('F(', 'Dn(', 'dn('))}{text[i:j]}){text[j:]}"


def _side_rewritten(text: str, rng) -> str:
    """text with one side of one node rewritten by _side_mutant."""
    m = rng.choice(list(_SEQ_RE.finditer(text)))
    k = rng.randrange(1, 3)
    return text[: m.start(k)] + _side_mutant(m[k], rng) + text[m.end(k):]


def _partly_read_scripts():
    """Scripts whose root sides are a random structure and whose leaves'
    sides are some of its substructures: a few of its parts are read
    before it."""
    rng = random.Random(16)
    for _ in range(80):
        s = rng.choice((rand_flat_structure, rand_general_structure))(rng, 3)
        parts = [t for _, t, _ in ref_occurrences(s)][1:]
        leaves = rng.sample(parts, min(len(parts), rng.randrange(4)))
        premises = "".join(f' (rule "x" (seq "{print_term(t)}" "{print_term(t)}"))' for t in leaves)
        yield f'(rule "r" (seq "{print_term(s)}" "{print_term(s)}"){premises})'


def test_rewritten_sides_read_as_the_per_node_reference_reads_them():
    rng = random.Random(15)
    scripts = [corpus.text(name) for name in corpus.names()]
    scripts += [derivation_to_sexp(d) for d in _generated_derivations()]
    scripts += _partly_read_scripts()
    read = failed = 0
    for text in scripts:
        for _ in range(12):
            mutant = _side_rewritten(text, rng)
            expected = _outcome(ref_parse_derivation, mutant)
            assert _outcome(parse_derivation, mutant) == expected, mutant
            if isinstance(expected, Derivation):
                read += 1
            else:
                failed += 1
    assert read > 600 and failed > 300


# ---------------------------------------------------------------------------
# The skeleton: one pattern match per node header, checked against the
# token walk on seeded mutations of the corpus scripts' s-expressions


def _outside(text: str) -> list[int]:
    """The positions of text outside quoted strings, the quotes included."""
    inside = set()
    for m in re.finditer(r'"[^"]*"', text):
        inside.update(range(m.start() + 1, m.end() - 1))
    return [i for i in range(len(text)) if i not in inside]


def _respace(text: str, space) -> str:
    """text with each whitespace run outside quoted strings replaced by space()."""
    return re.sub(r'("[^"]*")|\s+', lambda m: m.group(1) or space(), text)


def _word(text: str, rng, word: str, replacement: str) -> str:
    """text with one occurrence of word outside quoted strings replaced,
    if there is one."""
    hits = [m.start() for m in re.finditer(f'"[^"]*"|{re.escape(word)}', text) if m[0] == word]
    if not hits:
        return text
    i = rng.choice(hits)
    return text[:i] + replacement + text[i + len(word):]


SKELETON_CHARS = '() "\n\t@%x-_0r'
JUNK = (" junk", ")", "(", " @", '"', ' "p"', '(rule "x" (seq "p" "p"))', "\n\t ", "rule")


def _mutant(text: str, rng) -> str:
    kind = rng.randrange(11)
    spots = _outside(text)
    at = rng.choice(spots)
    char = rng.choice(SKELETON_CHARS)
    if kind == 0:
        return text[:at] + char + text[at:]
    if kind == 1:
        return text[:at] + text[at + 1:]
    if kind == 2:
        return text[:at] + char + text[at + 1:]
    if kind == 3:
        return _respace(text, lambda: "")
    if kind == 4:
        return _respace(text, lambda: rng.choice(("\n", "\t", "\n\t  ", " \r\n", "  ")))
    if kind == 5:
        return _word(text, rng, rng.choice(("rule ", "seq ")), rng.choice(("rule", "seq")))
    if kind == 6:
        word = rng.choice(("rule", "seq"))
        return _word(text, rng, word, word + rng.choice(("x", "q", "-", "_", "0")))
    if kind == 7:
        return _word(text, rng, ")", "")
    if kind == 8:
        return text[:at] + ")" + text[at:]
    if kind == 9:
        return text + rng.choice(JUNK)
    # a shape error, then an unexpected character after it
    broken = _word(text, rng, "seq", "seqq")
    at = rng.randrange(max(broken.find("seqq"), 0), len(broken) + 1)
    return broken[:at] + rng.choice("@%!") + broken[at:]


def test_the_skeleton_pattern_accepts_what_the_token_walk_accepts(monkeypatch):
    rng = random.Random(11)
    accepted = refused = 0
    for name in corpus.names():
        text = corpus.text(name)
        for _ in range(60):
            mutant = _mutant(text, rng)
            if rng.random() < 0.2:
                mutant = _mutant(mutant, rng)
            try:
                walked = ref_parse_derivation(mutant)
            except ParseError as e:
                with pytest.raises(ParseError) as got:
                    parse_derivation(mutant)
                assert (got.value.message, got.value.pos) == (e.message, e.pos), mutant
                refused += 1
            else:
                assert parse_derivation(mutant) == walked, mutant
                accepted += 1
    assert accepted > 150 and refused > 400
    # a well-formed script is never tokenized as a whole
    monkeypatch.setattr(parser, "_SEXP_TOKEN_RE", None)
    for name in corpus.names():
        parse_derivation(corpus.text(name))


def test_a_script_too_deep_for_the_pattern_is_walked_token_by_token():
    text = derivation_to_sexp(weakening_chain(1000))
    with pytest.raises(SizeCapError):
        parse_derivation(text)
    # at the cap depth an unexpected character still wins
    with pytest.raises(ParseError) as e:
        parse_derivation(text + "@")
    assert (e.value.message, e.value.pos) == ("unexpected character '@' in script", len(text))


def test_a_signal_at_the_readers_deepest_point_has_frames_to_spend():
    """The reader spends no frame per node, so a timer's handler that
    lands while it refuses the 1,000-node chain can still call."""
    text = derivation_to_sexp(weakening_chain(1000))
    stuck = []

    def nested(depth):
        return nested(depth - 1) if depth > 1 else 0

    def handler(signum, frame):
        try:
            nested(3)
        except RecursionError:
            stuck.append(True)

    old = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 50e-6, 50e-6)
        for _ in range(20):
            with pytest.raises(SizeCapError):
                parse_derivation(text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert not stuck


def _under_frames(frames, call):
    """call() run with frames more interpreter frames below it."""
    return _under_frames(frames - 1, call) if frames else call()


def test_scripts_nest_one_level_short_of_the_recursion_limit_from_any_stack():
    """The root is level 1; a script whose nodes nest as deep as the
    recursion limit is a size cap, however deep the caller's stack."""
    assert sys.getrecursionlimit() == 1000
    text = derivation_to_sexp(weakening_chain(999))
    for frames in (0, 900):
        d = _under_frames(frames, lambda: parse_derivation(text))
        assert derivation_to_sexp(d) == text
    deeper = derivation_to_sexp(weakening_chain(1000))
    for frames in (0, 900):
        with pytest.raises(SizeCapError):
            _under_frames(frames, lambda: parse_derivation(deeper))


def test_a_higher_recursion_limit_reads_deeper_scripts():
    text = derivation_to_sexp(weakening_chain(3000))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        d = parse_derivation(text)
    finally:
        sys.setrecursionlimit(old)
    assert derivation_to_sexp(d) == text
    result = check_derivation(d)
    assert result.ok and len(result.records) == 3000


def test_the_first_fault_in_the_text_wins_over_the_depth_cap():
    text = derivation_to_sexp(weakening_chain(1000))
    lines = text.split("\n")
    # a shape fault in the header of the deepest node read (level 999)
    faulty = "\n".join(lines[:998] + [lines[998].replace("(seq", "(seqq")] + lines[999:])
    with pytest.raises(ParseError) as e:
        parse_derivation(faulty)
    assert (e.value.message, e.value.pos) == ("expected 'seq', found 'seqq'", faulty.index("seqq"))
    # a ')' missing after the level-1,000 header comes after the cap
    with pytest.raises(SizeCapError):
        parse_derivation(text[:-2] + "\n")
    # an unexpected character anywhere wins, after the cap depth too
    for script in (text, faulty):
        at = len(script) - 10
        with pytest.raises(ParseError) as e:
            parse_derivation(script[:at] + "%" + script[at:])
        assert (e.value.message, e.value.pos) == ("unexpected character '%' in script", at)

"""Parser and printer for formulas, structures, sequents, and derivation scripts.

Concrete syntax (ASCII):

    variables        [a-z][a-z0-9_]*  (dn, neg reserved)
    Flat formulas    0   a & b   a ~> b      sugar: ~a = a ~> 0, a | b = ~a ~> b
    InqL formulas    0   /\\  ->  \\/         sugar: ~f, ?f = f \\/ ~f,
                                              =(p1,...,pn,q) = ?p1 /\\ ... /\\ ?pn -> ?q
    General formulas dn(alpha)  /\\  \\/  =>   sugar: neg A = A => dn(0)
    Flat structures  Ph   G , D   G |> D   F(X)   plus formulas as atoms
    General structs  Dn(G)   Fs(G)   X ; Y   X > Y   plus formulas as atoms
    Sequents         <structure> |- <structure>, both sides of one sort

Each sort has one table of infix operators: token, binding strength,
associativity and constructor.  In the Flat and General tables the
structural operators bind looser than every formula connective, so a
formula is an atomic structure wherever it stands.  One precedence-
climbing routine reads every table, and one printer reads them back:
sugar rows are parse-only, so parse(print(t)) = t.  Every atom and
prefix belongs to exactly one sort, so a sequent side is read in the
sort named by its first token after any opening parentheses.

Derivation scripts are s-expressions, one derivation per UTF-8 file:

    (rule "<name>" (seq "<antecedent>" "<succedent>") <premise>*)

A script is read in two phases.  First its skeleton: one anchored
pattern reads a node's whole header, or the ')' closing a node, in each
match, and one loop over the matches lists every node's rule name, two
side texts and number of premises in pre-order, without reading any
side.  Only a script the pattern stops on, or nesting as deep as the
recursion limit (a SizeCapError), is tokenized, to word the error: an
unexpected character anywhere, else the first token where it stopped
that is out of the shape of a header, a ')' or the end.
The sides are then read in text order, conclusion before premises and
antecedent before succedent, through one table per script from side
text to (side, sort): a side is read once, and while it is read every
operand built by an operator, a parenthesis or a wrapper whose exact
text is another side of the script is stored under that text.  A side
not stored so is first assembled, if it can be, from sides already
read: W(X) from X, and X op Y from X and Y for a structural operator op
that their binding strengths show would not split them differently.
Only the rest is read in full.
Terms are interned, so a stored or assembled side is the very term
reading its text would give.  An assembled side could not fail to read,
so errors come from the reader alone: script-shape errors before side
errors, and of two faulty sides the earlier in the text.  Printing a
derivation likewise prints each distinct side once, premises before
conclusions, and a side containing one already printed copies its text.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from . import metavars as mv
from .errors import MixedSortError, ParseError, SizeCapError
from .formulas import (
    Cap,
    FImp,
    FVar,
    FZERO,
    Down,
    GAnd,
    GImp,
    GOr,
    IAnd,
    IImp,
    IOr,
    IVar,
    IZERO,
    InqFormula,
    FlatFormula,
    GeneralFormula,
    flat_join,
    flat_neg,
    fold,
    gen_neg,
    inq_dependence,
    inq_neg,
    inq_question,
)
from .structures import (
    Comma,
    Derivation,
    DownOf,
    FOf,
    FStarOf,
    FlatFml,
    FlatStructure,
    GenFml,
    GeneralStructure,
    Gt,
    PHI,
    Semi,
    Sequent,
    Structure,
    Sup,
)

_TOKEN_RE = re.compile(r"\s*(?:(~>|\|>|\|-|/\\|\\/|->|=>|[&|~?>;,()=]|[A-Za-z][A-Za-z0-9_]*|0)|(\S)|\Z)")
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*")
_KEYWORDS = frozenset(("Ph", "F", "Fs", "Dn", "dn", "neg"))
EOF = "<eof>"


def _tokenize(text: str, token_re=_TOKEN_RE, where: str = "") -> list[tuple[str, int]]:
    """(token, position) pairs and a final EOF, in one pass of a pattern
    that skips whitespace, then reads a token (group 1), a character no
    token starts with (group 2) or the end."""
    tokens = []
    for m in token_re.finditer(text):
        if m.lastindex == 2:
            raise ParseError(f"unexpected character {m.group(2)!r}{where}", m.start(2))
        if m.lastindex == 1:
            tokens.append((m.group(1), m.start(1)))
    tokens.append((EOF, len(text)))
    return tokens


def _is_variable(tok: str) -> bool:
    return tok not in _KEYWORDS and _VAR_RE.fullmatch(tok) is not None


# ---------------------------------------------------------------------------
# The operator tables


@dataclass(frozen=True, eq=False)
class Grammar:
    """The syntax of one sort."""

    name: str
    infix: dict  # token -> (binding strength, right-associative, constructor)
    prefix: dict  # token -> constructor; all of them sugar
    atoms: dict  # token -> constant
    wrappers: dict  # token -> (constructor, body sort or None for variables, body a formula)
    metas: dict  # token -> metavariable class, in pattern mode
    variable: type | None  # constructor of variables
    formula: type  # base class of the sort's formulas
    structure: type | None = None  # base class of its structures
    lift: type | None = None  # a formula as an atomic structure
    floor: int = 1  # weakest formula connective; weaker rows are structural


def _dependence(names: list[str]) -> InqFormula:
    args = [IVar(n) for n in names]
    return inq_dependence(args[:-1], args[-1])


INQL = Grammar(
    "InqL",
    infix={"->": (1, True, IImp), "\\/": (2, False, IOr), "/\\": (3, False, IAnd)},
    prefix={"~": inq_neg, "?": inq_question},
    atoms={"0": IZERO},
    wrappers={"=": (_dependence, None, True)},
    metas={},
    variable=IVar,
    formula=InqFormula,
)

FLAT = Grammar(
    "Flat",
    infix={
        "|>": (1, True, Sup),
        ",": (2, False, Comma),
        "~>": (3, True, FImp),
        "|": (4, False, flat_join),
        "&": (5, False, Cap),
    },
    prefix={"~": flat_neg},
    atoms={"0": FZERO, "Ph": PHI},
    wrappers={"F": (FOf, "General", False)},
    metas={
        **dict.fromkeys(mv.PMETA_NAMES, mv.PMeta),
        **dict.fromkeys(mv.FLAT_FMETA_NAMES, mv.FMetaF),
        **dict.fromkeys(mv.FLAT_SMETA_NAMES, mv.SMetaF),
    },
    variable=FVar,
    formula=FlatFormula,
    structure=FlatStructure,
    lift=FlatFml,
    floor=3,
)

GENERAL = Grammar(
    "General",
    infix={
        ">": (1, True, Gt),
        ";": (2, False, Semi),
        "=>": (3, True, GImp),
        "\\/": (4, False, GOr),
        "/\\": (5, False, GAnd),
    },
    prefix={"neg": gen_neg},
    atoms={},
    wrappers={
        "dn": (Down, "Flat", True),
        "Dn": (DownOf, "Flat", False),
        "Fs": (FStarOf, "Flat", False),
    },
    metas={
        **dict.fromkeys(mv.GEN_FMETA_NAMES, mv.FMetaG),
        **dict.fromkeys(mv.GEN_SMETA_NAMES, mv.SMetaG),
    },
    variable=None,
    formula=GeneralFormula,
    structure=GeneralStructure,
    lift=GenFml,
    floor=3,
)

_GRAMMARS = (INQL, FLAT, GENERAL)
_SORTS = {g.name: g for g in _GRAMMARS}
_PREFIX = 9  # the strength of a prefix: tighter than every infix row
# the sort each leading token names; variables lead Flat sides
_SIDE_SORTS = {
    tok: g for g in (FLAT, GENERAL) for tok in (*g.atoms, *g.wrappers, *g.prefix, *g.metas)
}


# ---------------------------------------------------------------------------
# Reading


class _Reader:
    """A token list read by precedence climbing over the sort tables.

    Given the side table of a script, it stores there every operand built
    by an operator, a parenthesis or a wrapper whose source text is a
    side of that script."""

    def __init__(self, text: str, pattern_mode: bool = False, sides: _Sides | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.pattern_mode = pattern_mode
        self.sides = sides

    def expect(self, want: str):
        tok, pos = self.tokens[self.i]
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", pos)
        self.i += 1

    def end(self, stop: str = EOF):
        tok, pos = self.tokens[self.i]
        if tok != stop:
            raise ParseError(f"unexpected trailing input {tok!r}", pos)

    def whole(self, g: Grammar):
        """A formula of g that is the whole input."""
        t = self.read(g, formula=True)
        self.end()
        return t

    def side(self, stop: str) -> tuple[Structure, Grammar]:
        """A sequent side up to the stop token, in the sort its first token
        after any '(' names."""
        j = self.i
        while self.tokens[j][0] == "(":
            j += 1
        tok, pos = self.tokens[j]
        g = _SIDE_SORTS.get(tok) or (FLAT if _is_variable(tok) else None)
        if g is None:
            raise ParseError(f"expected a structure, found {tok!r}", pos)
        s = self.read(g, formula=False)
        self.end(stop)
        return s, g

    @staticmethod
    def lifted(g: Grammar, t):
        return t if isinstance(t, g.structure) else g.lift(t)

    def read(self, g: Grammar, formula: bool):
        """One formula of g, or one structure of g lifted if it is a
        formula, by precedence climbing over explicit stacks: nesting costs
        no interpreter frames.

        A group (the whole input, or a parenthesised or wrapped part of
        it) keeps its grammar, lo, its operands, its pending operators,
        how it closes and where its operands and pending prefixes start.
        lo is the weakest operator the group admits: 1 where structures
        may stand, the sort's floor where only formulas may.  An operator
        first builds the pending ones that bind at least as tightly (more
        tightly, when it is right-associative); one weaker than lo ends
        the group.  Prefixes are pending operators binding tighter than
        any infix one.  An operand is formula-only in a formula-only group
        and after a prefix or a formula connective.
        """
        tokens = self.tokens
        group = (g, g.floor if formula else 1, [], [], None, [])
        groups = [group]
        while True:
            g, lo, operands, ops, _, starts = group
            tok, pos = tokens[self.i]
            self.i += 1
            formula_only = lo >= g.floor or bool(ops) and ops[-1][0] >= g.floor
            if tok in g.prefix:
                ops.append((_PREFIX, True, g.prefix[tok]))
                starts.append(pos)
                continue
            body = None
            if tok == "(":
                body, body_formula, build = g, formula_only, None
            elif tok in g.wrappers:
                build, sort, body_formula = g.wrappers[tok]
                self.expect("(")
                body = _SORTS.get(sort)
            if body is not None:
                close = (build, body_formula, formula_only, tok, pos)
                group = (body, body.floor if body_formula else 1, [], [], close, [])
                groups.append(group)
                continue
            t = None
            if tok in g.atoms:
                t = g.atoms[tok]
            elif tok in g.wrappers:  # =(...), a list of variables
                t = build(self.variables())
                self.expect(")")
            elif self.pattern_mode:
                t = g.metas[tok](tok) if tok in g.metas else None
            elif g.variable is not None and _is_variable(tok):
                t = g.variable(tok)
            if t is None or (formula_only and not isinstance(t, g.formula)):
                what = "formula" if formula_only else "structure"
                raise ParseError(f"expected a {what} in {g.name}, found {tok!r}", pos)
            while True:  # t, starting at pos, completes an operand of the current group
                operands.append(t)
                starts.append(pos)
                tok, pos = tokens[self.i]
                row = g.infix.get(tok)
                if row is not None and row[0] >= lo:
                    self._reduce(g, operands, ops, starts, row[0])
                    if row[0] >= g.floor and not isinstance(operands[-1], g.formula):
                        raise ParseError(f"{tok!r} joins {g.name} formulas, not structures", pos)
                    ops.append(row)
                    self.i += 1
                    break
                self._reduce(g, operands, ops, starts, 0)
                (t,) = operands
                groups.pop()
                if group[4] is None:
                    return t if formula else self.lifted(g, t)
                self.expect(")")
                build, body_formula, formula_only, tok, pos = group[4]
                if build is not None:  # a wrapper, not a parenthesis
                    t = build(t if body_formula else self.lifted(g, t))
                group = groups[-1]
                g, lo, operands, ops, _, starts = group
                if formula_only and not isinstance(t, g.formula):
                    raise ParseError(f"expected a formula in {g.name}, found {tok!r}", pos)
                if self.sides is not None:
                    self._keep(g, t, pos)

    def _reduce(self, g: Grammar, operands: list, ops: list, starts: list, strength: int):
        """Build the pending operators that bind at least as tightly as
        an operator of this strength (more tightly if it is right-associative).
        A built operand starts where its left operand or its prefix does."""
        while ops and (ops[-1][0] > strength or (ops[-1][0] == strength and not ops[-1][1])):
            row_strength, _, build = ops.pop()
            right = operands.pop()
            starts.pop()
            if row_strength == _PREFIX:
                t = build(right)
            elif row_strength < g.floor:
                t = build(self.lifted(g, operands.pop()), self.lifted(g, right))
            else:
                t = build(operands.pop(), right)
            operands.append(t)
            if self.sides is not None:
                self._keep(g, t, starts[-1])

    def _keep(self, g: Grammar, t, start: int):
        """Store the operand t of g, which starts at start and ends with the
        last token read, if its text is a side of the script: reading that
        text gives the same term, since terms are interned."""
        tok, pos = self.tokens[self.i - 1]
        end = pos + len(tok)
        if end - start in self.sides.lengths:
            text = self.text[start:end]
            if text in self.sides.entries:
                self.sides.entries[text] = (self.lifted(g, t), g)

    def variables(self) -> list[str]:
        names = [self.variable()]
        while self.tokens[self.i][0] == ",":
            self.i += 1
            names.append(self.variable())
        return names

    def variable(self) -> str:
        tok, pos = self.tokens[self.i]
        if not _is_variable(tok):
            raise ParseError(f"expected a variable, found {tok!r}", pos)
        self.i += 1
        return tok


# ---------------------------------------------------------------------------
# Entry points


def parse_inql(text: str) -> InqFormula:
    return _Reader(text).whole(INQL)


def parse_flat(text: str, pattern_mode: bool = False) -> FlatFormula:
    return _Reader(text, pattern_mode).whole(FLAT)


def parse_general(text: str, pattern_mode: bool = False) -> GeneralFormula:
    return _Reader(text, pattern_mode).whole(GENERAL)


def parse_structure(text: str, pattern_mode: bool = False) -> Structure:
    return _Reader(text, pattern_mode).side(EOF)[0]


def _mixed(ant_sort: Grammar, suc_sort: Grammar, text: str) -> MixedSortError:
    return MixedSortError(
        f"mixed types: antecedent is {ant_sort.name}, succedent is {suc_sort.name}: {text}"
    )


def parse_sequent(text: str, pattern_mode: bool = False) -> Sequent:
    r = _Reader(text, pattern_mode)
    turnstiles = [pos for tok, pos in r.tokens if tok == "|-"]
    if len(turnstiles) != 1:
        raise ParseError(
            "a sequent needs exactly one |-", turnstiles[1] if turnstiles else len(text)
        )
    ant, ant_sort = r.side("|-")
    r.i += 1
    suc, suc_sort = r.side(EOF)
    if ant_sort is not suc_sort:
        raise _mixed(ant_sort, suc_sort, text)
    return Sequent(ant, suc)


# ---------------------------------------------------------------------------
# Printing: the tables read backwards.  A child binding looser than its
# context is parenthesised; sugar rows, whose constructors are functions,
# are never printed.

_INFIX_OF = {
    build: (tok, strength, right)
    for g in _GRAMMARS
    for tok, (strength, right, build) in g.infix.items()
    if isinstance(build, type)
}
_WORD_OF = {type(t): tok for g in _GRAMMARS for tok, t in g.atoms.items()}
_WRAPPER_OF = {
    build: tok
    for g in _GRAMMARS
    for tok, (build, *_) in g.wrappers.items()
    if isinstance(build, type)
}
_LIFTS = frozenset(g.lift for g in _GRAMMARS if g.lift is not None)


def print_term(t, texts: dict | None = None) -> str:
    """The text of a formula or structure of any sort.  The walk keeps
    an explicit stack of terms still to print, each with the weakest
    operator its context admits unparenthesised, and of literal text.
    A term that texts maps to a text is not walked: its text is emitted,
    parenthesised if the term binds looser than its context admits."""
    out: list[str] = []
    todo: list = [(t, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, min_strength = item
        cls = type(t)
        row = _INFIX_OF.get(cls)
        if texts is not None and t in texts:
            text = texts[t]
            out.append(f"({text})" if row is not None and row[1] < min_strength else text)
        elif row is not None:
            tok, strength, right = row
            # the operand on the associative side may bind as loosely as the operator
            items = [(t.left, strength + 1 if right else strength), f" {tok} "]
            items.append((t.right, strength if right else strength + 1))
            todo += reversed(["(", *items, ")"] if strength < min_strength else items)
        elif cls in _LIFTS:
            todo.append((t.formula, 0))
        elif cls in _WRAPPER_OF:
            todo += (")", (t.body, 0), f"{_WRAPPER_OF[cls]}(")
        else:  # a constant or a named leaf
            word = _WORD_OF.get(cls, getattr(t, "name", None))
            if not isinstance(word, str):
                raise TypeError(f"not a formula or structure: {t!r}")
            out.append(word)
    return "".join(out)


# ---------------------------------------------------------------------------
# Derivation scripts

_SEXP_TOKEN_RE = re.compile(r'\s*(?:(\(|\)|"[^"]*"|[A-Za-z][A-Za-z0-9_-]*)|(\S)|\Z)')


# wrapper token -> (its sort, constructor, body sort, body a formula)
_SIDE_WRAPPERS = {
    tok: (g, build, _SORTS[sort], formula)
    for g in (FLAT, GENERAL)
    for tok, (build, sort, formula) in g.wrappers.items()
}
# (" op ", sort, binding strength, right-associative, constructor), weakest first
_STRUCTURAL = sorted(
    ((f" {tok} ", g, strength, right, build)
     for g in (FLAT, GENERAL)
     for tok, (strength, right, build) in g.infix.items()
     if strength < g.floor),
    key=lambda row: row[2],
)


def _strength(t) -> int:
    """A lower bound on the binding strength of the text of t: that of
    its top constructor's operator row, atoms and wrappers binding
    tightest.  Sugar and parentheses only make the text bind tighter."""
    if type(t) in _LIFTS:
        t = t.formula
    row = _INFIX_OF.get(type(t))
    return _PREFIX if row is None else row[1]


class _Sides:
    """The side table of one script: every distinct side text, mapped to
    its (side, sort) once read, and the lengths of those texts."""

    def __init__(self, texts):
        self.entries: dict = dict.fromkeys(texts)
        self.lengths = frozenset(map(len, self.entries))

    def side(self, text: str) -> tuple[Structure, Grammar]:
        entry = self.entries[text]
        if entry is None:
            entry = self._assembled(text) or _Reader(text, sides=self).side(EOF)
            self.entries[text] = entry
        return entry

    def _known(self, text: str, g: Grammar):
        """The side of sort g already read from text, or None."""
        entry = self.entries.get(text)
        return entry[0] if entry is not None and entry[1] is g else None

    def _assembled(self, text: str) -> tuple[Structure, Grammar] | None:
        """The side of text built from sides already read, when reading
        text in full would build that very term; None otherwise.

        text is W(X), W a wrapper and X a side of W's body sort (a
        formula, for dn), or X op Y, op a structural operator and X and Y
        sides of its sort that op would not split: X binds more tightly
        than op, or as tightly with op left-associative, and Y likewise
        with op right-associative, as _strength bounds them.  Read sides
        are balanced, so op stands between them at the top level; that
        makes the last occurrence of a left-associative op whose right
        part is a read side the only one that can split text, and the
        first of a right-associative op whose left part is."""
        paren = text.find("(")
        if paren > 0 and text[-1] == ")" and text[:paren] in _SIDE_WRAPPERS:
            g, build, body, formula = _SIDE_WRAPPERS[text[:paren]]
            x = self._known(text[paren + 1 : -1], body)
            if x is not None and (not formula or type(x) is body.lift):
                return _Reader.lifted(g, build(x.formula if formula else x)), g
        for sep, g, strength, right, build in _STRUCTURAL:
            # as in printing, the operand on the associative side may bind as loosely as op
            x_min, y_min = (strength + 1, strength) if right else (strength, strength + 1)
            i = text.find(sep) if right else text.rfind(sep)
            while i >= 0:
                j = i + len(sep)
                if (i if right else len(text) - j) in self.lengths:
                    near = self._known(text[:i] if right else text[j:], g)
                    if near is not None:
                        far = self._known(text[j:] if right else text[:i], g)
                        x, y = (near, far) if right else (far, near)
                        if far is not None and _strength(x) >= x_min and _strength(y) >= y_min:
                            return build(x, y), g
                        break
                i = text.find(sep, i + 1) if right else text.rfind(sep, 0, i)
        return None


def parse_derivation(text: str) -> Derivation:
    nodes = _skeleton(text)
    sides = _Sides(side for _, ant, suc, _ in nodes for side in (ant, suc))
    sequents = []
    for _, ant_text, suc_text, _ in nodes:
        ant, ant_sort = sides.side(ant_text)
        suc, suc_sort = sides.side(suc_text)
        if ant_sort is not suc_sort:
            raise _mixed(ant_sort, suc_sort, f"{ant_text} |- {suc_text}")
        sequents.append(Sequent(ant, suc))
    # built backwards, a node's premises are the last ones built, its first on top
    built: list[Derivation] = []
    for (name, _, _, count), seq in zip(reversed(nodes), reversed(sequents)):
        kids = tuple(built.pop() for _ in range(count))
        built.append(Derivation(seq, name, kids))
    (d,) = built
    return d


# A node's header, or the ')' closing a node (group 4).  Tokens are spelled
# as in _SEXP_TOKEN_RE, and rule and seq must be followed by a string, so
# rulex is refused: the pattern accepts exactly the well-formed scripts.
_SKELETON_RE = re.compile(
    r'\s*(?:\(\s*rule\s*"([^"]*)"\s*\(\s*seq\s*"([^"]*)"\s*"([^"]*)"\s*\)|(\)))'
)
_BLANK_RE = re.compile(r"\s*\Z")
# the tokens of a node's header, '"' standing for a quoted string
_HEADER = ("(", "rule", '"', "(", "seq", '"', '"', ")")


def _skeleton(text: str) -> list[tuple]:
    """The skeleton of a script: (rule, antecedent text, succedent text,
    number of premises) per node, in pre-order, which is text order.

    One loop reads a match per node header and per ')', keeping a stack
    of [node index, premises so far] for the open nodes.  A script whose
    nodes nest sys.getrecursionlimit() or more levels deep, the root
    being level 1, is refused with SizeCapError.  Where the pattern
    stops, or at that depth, the script is tokenized to word the error
    of its first fault: an unexpected character anywhere, else the first
    token out of shape or the depth, whichever comes first."""
    nodes: list = []
    stack: list = []
    cap = sys.getrecursionlimit()
    end = 0
    while (m := _SKELETON_RE.match(text, end)) is not None:
        if m.lastindex != 4:  # a header
            if len(stack) + 1 >= cap:
                _tokenize(text, _SEXP_TOKEN_RE, " in script")
                raise SizeCapError(f"a script's nodes nest as deep as the recursion limit ({cap})")
            if stack:
                stack[-1][1] += 1
            stack.append([len(nodes), 0])
            nodes.append(m)  # its texts are copied when it closes, not for a refused script
        elif stack:
            at, count = stack.pop()
            nodes[at] = (*nodes[at].group(1, 2, 3), count)
        else:  # a ')' where the root's header belongs
            break
        end = m.end()
        if not stack:
            if _BLANK_RE.match(text, end) is None:
                _refuse(text, end, trailing=True)
            return nodes
    _refuse(text, end)


def _refuse(text: str, at: int, trailing: bool = False):
    """Raise the error of a script the skeleton pattern stops on at at: an
    unexpected character anywhere, else trailing input after the root, else
    the first token from at out of the shape of a header or a ')'."""
    tokens = _tokenize(text, _SEXP_TOKEN_RE, " in script")
    i = bisect_left(tokens, at, key=itemgetter(1))
    if trailing:
        raise ParseError("unexpected trailing input in script", tokens[i][1])
    # within a node, a premise's header or the node's ')' comes next
    shape = _HEADER if at == 0 or tokens[i][0] == "(" else (")",)
    for want, (tok, pos) in zip(shape, tokens[i:]):
        if want != ('"' if tok[0] == '"' else tok):
            break
    want = "a quoted string" if want == '"' else repr(want)
    raise ParseError(f"expected {want}, found {tok!r}", pos)


def derivation_to_sexp(d: Derivation) -> str:
    texts: dict = {}  # each distinct side, and the formula of a lifted one -> its text

    def print_sides(node, done):  # premises before their conclusions
        for side in (node.conclusion.antecedent, node.conclusion.succedent):
            if side not in texts:
                texts[side] = print_term(side, texts)
                if type(side) in _LIFTS:
                    texts[side.formula] = texts[side]

    fold(d, print_sides)
    out: list[str] = []
    for (_, _, depth), node in d.nodes():
        if out:  # close the nodes that end before this one, and the line
            out.append(")" * (last + 1 - depth) + "\n")
        ant, suc = texts[node.conclusion.antecedent], texts[node.conclusion.succedent]
        out.append(f'{"  " * depth}(rule "{node.rule}" (seq "{ant}" "{suc}")')
        last = depth
    out.append(")" * (last + 1) + "\n")
    return "".join(out)

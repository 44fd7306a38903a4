"""The benchmark's own reading of the package's text formats.

Inputs are generated, and outputs are checked, on this representation
alone, so that the benchmark builds the same inputs and draws the same
conclusions whatever the package's internal term classes look like.

A term is a nested tuple: ``(op, child, ...)`` for connectives and
structural operators, or a plain string for an atom (a variable, ``0``
or ``Ph``).  One precedence table covers every sort, because the
package's syntax keeps their operator spellings apart and lets
structural operators bind looser than any formula connective:

    level 1, right-assoc   |>  >           structural arrows
    level 2, left-assoc    ,   ;           structural products
    level 3, right-assoc   ~>  =>  ->      implications
    level 4, left-assoc    \\/             disjunctions
    level 5, left-assoc    &   /\\          conjunctions
    unary                  dn( ) F( ) Dn( ) Fs( )   and the InqL sugar ~ ?

A derivation is ``(rule, antecedent, succedent, premises)`` where the two
sides are terms and ``premises`` is a tuple of derivations.  Every walk
here is iterative: chains hundreds of nodes deep must not hit the
interpreter's recursion limit on the benchmark's side.
"""

from __future__ import annotations

import re

LEVEL = {
    "|>": 1, ">": 1,
    ",": 2, ";": 2,
    "~>": 3, "=>": 3, "->": 3,
    "\\/": 4,
    "&": 5, "/\\": 5,
}
RIGHT_ASSOC = frozenset(("|>", ">", "~>", "=>", "->"))
CALLS = frozenset(("dn", "F", "Dn", "Fs"))
PREFIX = frozenset(("~", "?"))
ATOM_LEVEL = 9

_TOKEN_RE = re.compile(r"\s*(~>|\|>|/\\|\\/|->|=>|[&~?>;,()]|[A-Za-z][A-Za-z0-9_]*|0)")


def tokenize(text: str) -> list[str]:
    out, i, n = [], 0, len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            if text[i:].strip() == "":
                break
            raise ValueError(f"bad character {text[i]!r} at {i} in {text!r}")
        out.append(m.group(1))
        i = m.end()
    return out


def parse(text: str):
    """Parse a formula or structure of any sort into a term.

    Precedence climbing with an explicit stack of pending operators, so
    nesting depth costs no interpreter frames."""
    toks = tokenize(text)
    toks.append(None)
    pos = 0
    # each frame: [operands, operators, closer] where closer is the
    # token that ends the frame and the wrapper applied to its result
    frames = [([], [], None)]

    def reduce_to(frame, level):
        operands, operators, _ = frame
        while operators and (
            LEVEL[operators[-1]] > level
            or (LEVEL[operators[-1]] == level and operators[-1] not in RIGHT_ASSOC)
        ):
            op = operators.pop()
            right = operands.pop()
            operands.append((op, operands.pop(), right))

    pending_prefix: list[list[str]] = [[]]
    while True:
        tok = toks[pos]
        pos += 1
        # operand position
        if tok in PREFIX:
            pending_prefix[-1].append(tok)
            continue
        if tok in CALLS or tok == "(":
            if tok in CALLS:
                if toks[pos] != "(":
                    raise ValueError(f"expected '(' after {tok} in {text!r}")
                pos += 1
            frames.append(([], [], tok))
            pending_prefix.append([])
            continue
        if tok is None or tok == ")" or tok in LEVEL:
            raise ValueError(f"expected an operand, found {tok!r} in {text!r}")
        operand = tok
        while True:
            for p in reversed(pending_prefix[-1]):
                operand = (p, operand)
            pending_prefix[-1] = []
            frames[-1][0].append(operand)
            tok = toks[pos]
            pos += 1
            if tok in LEVEL:
                reduce_to(frames[-1], LEVEL[tok])
                frames[-1][1].append(tok)
                break
            if tok == ")" and len(frames) > 1:
                frame = frames.pop()
                pending_prefix.pop()
                reduce_to(frame, 0)
                (inner,) = frame[0]
                operand = inner if frame[2] == "(" else (frame[2], inner)
                continue
            if tok is None and len(frames) == 1:
                reduce_to(frames[0], 0)
                (result,) = frames[0][0]
                return result
            raise ValueError(f"unexpected {tok!r} in {text!r}")


def level(t) -> int:
    if isinstance(t, tuple) and len(t) == 3:
        return LEVEL[t[0]]
    return ATOM_LEVEL


def show(t) -> str:
    """Print a term with the fewest parentheses the precedence table needs."""
    out: list[str] = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
            continue
        if len(t) == 2:
            op, body = t
            if op in CALLS:
                stack.extend((")", body, f"{op}("))
            elif level(body) == ATOM_LEVEL:
                stack.extend((body, op))
            else:
                stack.extend((")", body, f"{op}("))
            continue
        op, left, right = t
        lv = LEVEL[op]
        right_assoc = op in RIGHT_ASSOC
        lp = level(left) < lv or (level(left) == lv and right_assoc)
        rp = level(right) < lv or (level(right) == lv and not right_assoc)
        stack.extend(
            ([")"] if rp else []) + [right] + (["("] if rp else [])
            + [f" {op} "]
            + ([")"] if lp else []) + [left] + (["("] if lp else [])
        )
    return "".join(out)


def size(t) -> int:
    """Node count, a call such as dn( ) counting as one node."""
    n, stack = 0, [t]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, tuple):
            stack.extend(t[1:])
    return n


def atoms(t) -> set:
    out, stack = set(), [t]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):
            stack.extend(t[1:])
        else:
            out.add(t)
    return out


# ---------------------------------------------------------------------------
# Derivation scripts: (rule "<name>" (seq "<ant>" "<suc>") <premise>*)

_SEXP_RE = re.compile(r'\s*(\(|\)|"[^"]*"|[A-Za-z][A-Za-z0-9_-]*)')


def script(d) -> str:
    """Write a derivation as a script, two spaces of indent per level."""
    lines: list[str] = []
    stack = [(d, 0)]
    closers: list[int] = []  # per open node, how many premises are still to come
    while stack:
        (rule, ant, suc, premises), depth = stack.pop()
        lines.append(f'{"  " * depth}(rule "{rule}" (seq "{show(ant)}" "{show(suc)}")')
        closers.append(len(premises))
        for p in reversed(premises):
            stack.append((p, depth + 1))
        while closers and closers[-1] == 0:
            closers.pop()
            lines[-1] += ")"
            if closers:
                closers[-1] -= 1
    return "\n".join(lines) + "\n"


def read_script(text: str):
    """Parse a script into a derivation; sequent sides become terms."""
    toks, i, n = [], 0, len(text)
    while i < n:
        m = _SEXP_RE.match(text, i)
        if m is None:
            if text[i:].strip() == "":
                break
            raise ValueError(f"bad script character at {i}")
        toks.append(m.group(1))
        i = m.end()
    pos = 0
    stack: list[list] = []  # [rule, ant, suc, premises]
    while True:
        if toks[pos] == "(":
            if toks[pos + 1 : pos + 2] != ["rule"] or toks[pos + 3 : pos + 5] != ["(", "seq"]:
                raise ValueError(f"malformed node at token {pos}")
            rule, ant, suc = toks[pos + 2], toks[pos + 5], toks[pos + 6]
            if toks[pos + 7] != ")":
                raise ValueError(f"malformed sequent at token {pos}")
            stack.append([rule[1:-1], parse(ant[1:-1]), parse(suc[1:-1]), []])
            pos += 8
        elif toks[pos] == ")":
            rule, ant, suc, premises = stack.pop()
            node = (rule, ant, suc, tuple(premises))
            pos += 1
            if not stack:
                if pos != len(toks):
                    raise ValueError("trailing input after the root node")
                return node
            stack[-1][3].append(node)
        else:
            raise ValueError(f"unexpected token {toks[pos]!r}")


def nodes(d):
    """(address, node) pairs, root first, as the package's checker walks them."""
    stack = [((), d)]
    while stack:
        addr, node = stack.pop()
        yield addr, node
        premises = node[3]
        for i in range(len(premises) - 1, -1, -1):
            stack.append((addr + (i,), premises[i]))

"""Parser for the `.cis` input format.

A file is a sequence of declarations, each terminated by a period:

    ante <formula> .        antecedent formula (universal prefix allowed)
    succ <formula> .        succedent formula (existential prefix allowed)
    inst <N>: <tuples> .    instance tuples for formula number N

    formula := "all" v+ ":" qf | "ex" v+ ":" qf | qf
    qf      := precedence  ~  >  &  >  |  >  ->   (binary ops right-assoc)
    atom    := p | p(t, ...) | t = t
    term    := x | f(t, ...)
    tuples  := tuple (";" tuple)* ; tuple := term | "(" term ("," term)* ")"

`%` starts a line comment.  Formula numbers are 1-based in
antecedent-then-succedent order.  Identifiers bound in a prefix are
variables inside that formula's matrix; everything else is a function
symbol or constant.  Names in the generated-variable namespace are
rejected.

The tokenizer is one pass of a regular expression, which keeps only the
token texts; a token's kind is read off its text.  An error finds its
token's offset by a second pass, and its line and column from that.
Terms and matrices are parsed in loops over explicit stacks, so no parse
step recurses once per nesting level.
"""

from __future__ import annotations

import re
from pathlib import Path

from .formulas import And, Atom, Eq, Formula, Imp, Not, Or, QuantBlock, symbols
from .herbrand import HerbrandStructure
from .sequents import Sequent
from .terms import App, Term, Var, is_alpha, render_tuple


class InputError(ValueError):
    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.msg = msg
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{msg}{where}")


# A token is an identifier, a natural number, a punctuation mark or any
# other character but whitespace, which is an error: the one group of
# ``_TOKEN_RE``.  A comment matches outside it, and whitespace not at all.
_IDENT_RE = re.compile(r"[^\W\d]\w*'*")
_TOKEN_RE = re.compile(
    rf"%[^\n]*|({_IDENT_RE.pattern}|\d+|->|[().,:;=~&|]|\S)"
)
_PUNCT = frozenset(["->", "(", ")", ".", ",", ":", ";", "=", "~", "&", "|"])
# The token texts that are no identifier, but for numbers; "" is the end
# of the input.
_NOT_IDENT = _PUNCT | {""}

# How tightly each binary connective binds ("(" least, so it stays on
# the operator stack until its ")"), and the node it builds.
_BINDS = {"(": 0, "->": 1, "|": 2, "&": 3}
_BINARY = {"->": Imp, "|": Or, "&": And}


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_input(path) -> str:
    """The text of an input file: UTF-8, with line ends read as text
    mode reads them.  A byte that is not UTF-8 is an ``InputError`` at
    its line and column."""
    data = Path(path).read_bytes()
    try:
        return _universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        head = _universal_newlines(data[: err.start].decode("utf-8"))
        raise InputError(
            f"byte {data[err.start]:#04x} is not UTF-8",
            *_position(head, len(head)),
        ) from None


def _tokenize(text: str) -> list[str]:
    """The texts of the tokens of ``text``, then "" for its end.  A
    character that starts no token, or an identifier in the reserved
    variable namespace, is an error at the first of them."""
    toks = _TOKEN_RE.findall(text)
    if "%" in text:
        toks = [t for t in toks if t]
    bad = {t for t in set(toks) if _is_bad(t)}
    if bad:
        i = next(i for i, t in enumerate(toks) if t in bad)
        if _IDENT_RE.match(toks[i]):
            msg = f"identifier {toks[i]!r} is in the reserved variable namespace"
        else:
            msg = f"unexpected character {toks[i]!r}"
        raise InputError(msg, *_position(text, _offset(text, i)))
    toks.append("")
    return toks


def _is_bad(tok: str) -> bool:
    if is_alpha(tok):
        return True
    return not (tok in _PUNCT or tok[0].isdecimal() or _IDENT_RE.match(tok))


def _offset(text: str, i: int) -> int:
    """The offset in ``text`` of its token ``i``: a token's offset is
    worked out only for an error."""
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex:
            if not i:
                return m.start()
            i -= 1
    return len(text)


def _is_nat(tok: str) -> bool:
    return tok[:1].isdecimal()


def _is_ident(tok: str) -> bool:
    return tok not in _NOT_IDENT and not tok[0].isdecimal()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The text of the next token; "" at the end of the input."""
        return self.toks[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.toks[self.pos - 1]

    def position(self, i: int) -> tuple[int, int]:
        """The line and column of token ``i``."""
        return _position(self.text, _offset(self.text, i))

    def err(self, msg: str) -> InputError:
        return InputError(msg, *self.position(self.pos))

    def expect(self, text: str) -> None:
        if self.peek() != text:
            raise self.err(
                f"expected {text!r}, found {self.peek() or 'end of input'!r}"
            )
        self.pos += 1

    # --- declarations -------------------------------------------------

    def parse_file(self):
        ante: list[Formula] = []
        succ: list[Formula] = []
        # (formula number, tuples, token) resolved after all formulas.
        insts: list[tuple[int, list[tuple[Term, ...]], int]] = []
        while self.peek():
            t = self.peek()
            if t == "ante":
                self.next()
                ante.append(self.parse_prenex("all"))
            elif t == "succ":
                self.next()
                succ.append(self.parse_prenex("ex"))
            elif t == "inst":
                self.next()
                if not _is_nat(self.peek()):
                    raise self.err("expected a formula number after 'inst'")
                at = self.pos
                n = int(self.next())
                self.expect(":")
                insts.append((n, self.parse_instlist(), at))
            else:
                raise self.err(f"expected 'ante', 'succ' or 'inst', found {t!r}")
            self.expect(".")
        return ante, succ, insts

    def parse_prenex(self, kind: str) -> Formula:
        t = self.peek()
        if t not in ("all", "ex"):
            return self.parse_matrix(frozenset())
        if t != kind:
            side = "antecedent" if kind == "all" else "succedent"
            raise self.err(f"{t!r} prefix is a strong quantifier in the {side}")
        self.next()
        names: list[str] = []
        while _is_ident(self.peek()):
            names.append(self.next())
        if not names:
            raise self.err("expected at least one bound variable")
        if len(set(names)) != len(names):
            raise self.err("repeated bound variable in prefix")
        self.expect(":")
        return QuantBlock(kind, tuple(names), self.parse_matrix(frozenset(names)))

    # --- formulas -----------------------------------------------------

    def parse_matrix(self, bound: frozenset[str]) -> Formula:
        # Shunting-yard: ``ops`` holds the "~", "(" and connectives still
        # open, ``lhs`` the left operand of each open connective.  A "~"
        # applies as soon as its operand is complete; a connective first
        # closes the ones on the stack that bind tighter, so equal ones
        # nest to the right.
        ops: list[str] = []
        lhs: list[Formula] = []
        while True:
            while self.peek() in ("~", "("):
                ops.append(self.next())
            if self.peek() in ("all", "ex"):
                raise self.err("quantifiers are only allowed as a top-level prefix")
            f = self.parse_atom(bound)
            while True:
                while ops and ops[-1] == "~":
                    ops.pop()
                    f = Not(f)
                op = self.peek()
                if op in _BINARY:
                    self.next()
                    while ops and _BINDS[ops[-1]] > _BINDS[op]:
                        f = _BINARY[ops.pop()](lhs.pop(), f)
                    ops.append(op)
                    lhs.append(f)
                    break
                while ops and ops[-1] != "(":
                    f = _BINARY[ops.pop()](lhs.pop(), f)
                if not ops:
                    return f
                # The group its ")" closes is an operand of what encloses it.
                self.expect(")")
                ops.pop()

    def parse_atom(self, bound: frozenset[str]) -> Formula:
        t = self.parse_term(bound)
        if self.peek() == "=":
            self.next()
            return Eq(t, self.parse_term(bound))
        # Not an equation: reinterpret the application as a predicate atom.
        if isinstance(t, Var):
            raise self.err(
                f"bound variable {t.name!r} cannot stand alone as an atom"
            )
        return Atom(t.head, t.args)

    # --- terms ----------------------------------------------------------

    def parse_term(self, bound: frozenset[str]) -> Term:
        # An explicit stack of the applications still open, each with
        # the arguments read so far, so nesting depth costs no frames.
        # The token index is a local, stored back before an error and
        # at the end.
        toks, pos = self.toks, self.pos
        stack: list[tuple[str, list[Term]]] = []
        while True:
            name = toks[pos]
            if not _is_ident(name):
                self.pos = pos
                raise self.err(
                    f"expected a term, found {name or 'end of input'!r}"
                )
            pos += 1
            if toks[pos] == "(":
                if name in bound:
                    self.pos = pos
                    raise self.err(
                        f"quantified variable {name!r} used as a function symbol"
                    )
                pos += 1
                stack.append((name, []))
                continue
            term: Term = Var(name) if name in bound else App(name, ())
            while stack:
                stack[-1][1].append(term)
                tok = toks[pos]
                if tok == ",":
                    pos += 1
                    break
                if tok != ")":
                    self.pos = pos
                    self.expect(")")
                pos += 1
                head, args = stack.pop()
                term = App(head, tuple(args))
            if not stack:
                self.pos = pos
                return term

    # --- instance tuples ----------------------------------------------

    def parse_instlist(self) -> list[tuple[Term, ...]]:
        if self.peek() == ".":
            return []
        tuples = [self.parse_tuple()]
        while self.peek() == ";":
            self.next()
            tuples.append(self.parse_tuple())
        return tuples

    def parse_tuple(self) -> tuple[Term, ...]:
        if self.peek() != "(":
            return (self.parse_term(frozenset()),)
        self.next()
        ts = [self.parse_term(frozenset())]
        while self.peek() == ",":
            self.next()
            ts.append(self.parse_term(frozenset()))
        self.expect(")")
        return tuple(ts)


def _check_signature(seq: Sequent, structure: HerbrandStructure) -> None:
    """Arity consistency for functions and predicates across the input."""
    arity: dict[str, dict[str, int]] = {"fun": {}, "pred": {}}
    items: list = [*seq.ante, *seq.succ]
    for h in structure.instances:
        for tup in h:
            items.extend(tup)
    for kind, name, n in symbols(items):
        if kind == "var":
            continue
        old = arity[kind].setdefault(name, n)
        if old != n:
            what = "function symbol" if kind == "fun" else "predicate"
            raise InputError(f"{what} {name!r} used with arity {n} and {old}")
    clash = set(arity["fun"]) & set(arity["pred"])
    if clash:
        raise InputError(
            f"symbols used both as function and predicate: {sorted(clash)}"
        )


def parse_input(text: str) -> tuple[Sequent, HerbrandStructure]:
    parser = _Parser(text)
    ante, succ, insts = parser.parse_file()
    seq = Sequent(tuple(ante), tuple(succ))
    collected: list[set[tuple[Term, ...]]] = [set() for _ in range(seq.q)]
    for n, tuples, at in insts:
        if not 1 <= n <= seq.q:
            raise InputError(
                f"inst refers to formula {n}, but there are only {seq.q}",
                *parser.position(at),
            )
        k = seq.k(n)
        if k == 0:
            raise InputError(
                f"formula {n} has no quantifier prefix, instances not allowed",
                *parser.position(at),
            )
        for tup in tuples:
            if len(tup) != k:
                raise InputError(
                    f"instance {render_tuple(tup)} for formula {n} has arity"
                    f" {len(tup)}, expected {k}",
                    *parser.position(at),
                )
        collected[n - 1].update(tuples)
    structure = HerbrandStructure(tuple(frozenset(s) for s in collected))
    _check_signature(seq, structure)
    return seq, structure

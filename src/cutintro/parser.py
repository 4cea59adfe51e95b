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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class _Tok:
    kind: str  # IDENT NAT PUNCT EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<ident>[^\W\d]\w*'*)
    | (?P<nat>\d+)
    | (?P<punct>->|[().,:;=~&|])
    """,
    re.VERBOSE | re.UNICODE,
)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise InputError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind == "ident":
            if is_alpha(s):
                raise InputError(
                    f"identifier {s!r} is in the reserved variable namespace",
                    line,
                    col,
                )
            toks.append(_Tok("IDENT", s, line, col))
        elif kind == "nat":
            toks.append(_Tok("NAT", s, line, col))
        elif kind == "punct":
            toks.append(_Tok("PUNCT", s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
        i = m.end()
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg: str) -> InputError:
        t = self.peek()
        return InputError(msg, t.line, t.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or t.kind == "EOF":
            raise self.err(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind != "EOF" and t.text == text

    # --- declarations -------------------------------------------------

    def parse_file(self):
        ante: list[Formula] = []
        succ: list[Formula] = []
        # (formula number, tuples, position) resolved after all formulas.
        insts: list[tuple[int, list[tuple[Term, ...]], _Tok]] = []
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.text == "ante":
                self.next()
                ante.append(self.parse_prenex("all"))
            elif t.text == "succ":
                self.next()
                succ.append(self.parse_prenex("ex"))
            elif t.text == "inst":
                self.next()
                at = self.peek()
                if at.kind != "NAT":
                    raise self.err("expected a formula number after 'inst'")
                n = int(self.next().text)
                self.expect(":")
                insts.append((n, self.parse_instlist(), at))
            else:
                raise self.err(
                    f"expected 'ante', 'succ' or 'inst', found {t.text!r}"
                )
            self.expect(".")
        return ante, succ, insts

    def parse_prenex(self, kind: str) -> Formula:
        t = self.peek()
        if t.text in ("all", "ex"):
            if t.text != kind:
                side = "antecedent" if kind == "all" else "succedent"
                raise self.err(
                    f"{t.text!r} prefix is a strong quantifier in the {side}"
                )
            self.next()
            names: list[str] = []
            while self.peek().kind == "IDENT" and not self.at(":"):
                names.append(self.next().text)
            if not names:
                raise self.err("expected at least one bound variable")
            if len(set(names)) != len(names):
                raise self.err("repeated bound variable in prefix")
            self.expect(":")
            matrix = self.parse_imp(frozenset(names))
            return QuantBlock(kind, tuple(names), matrix)
        return self.parse_imp(frozenset())

    # --- formulas -----------------------------------------------------

    def parse_imp(self, bound: frozenset[str]) -> Formula:
        lhs = self.parse_or(bound)
        if self.at("->"):
            self.next()
            return Imp(lhs, self.parse_imp(bound))
        return lhs

    def parse_or(self, bound: frozenset[str]) -> Formula:
        lhs = self.parse_and(bound)
        if self.at("|"):
            self.next()
            return Or(lhs, self.parse_or(bound))
        return lhs

    def parse_and(self, bound: frozenset[str]) -> Formula:
        lhs = self.parse_unary(bound)
        if self.at("&"):
            self.next()
            return And(lhs, self.parse_and(bound))
        return lhs

    def parse_unary(self, bound: frozenset[str]) -> Formula:
        if self.at("~"):
            self.next()
            return Not(self.parse_unary(bound))
        if self.at("("):
            self.next()
            f = self.parse_imp(bound)
            self.expect(")")
            return f
        if self.peek().text in ("all", "ex"):
            raise self.err("quantifiers are only allowed as a top-level prefix")
        return self.parse_atom(bound)

    def parse_atom(self, bound: frozenset[str]) -> Formula:
        t = self.parse_term(bound)
        if self.at("="):
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
        stack: list[tuple[str, list[Term]]] = []
        while True:
            t = self.peek()
            if t.kind != "IDENT":
                raise self.err(
                    f"expected a term, found {t.text or 'end of input'!r}"
                )
            name = self.next().text
            if self.at("("):
                if name in bound:
                    raise self.err(
                        f"quantified variable {name!r} used as a function symbol"
                    )
                self.next()
                stack.append((name, []))
                continue
            term: Term = Var(name) if name in bound else App(name, ())
            while stack:
                stack[-1][1].append(term)
                if self.at(","):
                    self.next()
                    break
                self.expect(")")
                head, args = stack.pop()
                term = App(head, tuple(args))
            if not stack:
                return term

    # --- instance tuples ----------------------------------------------

    def parse_instlist(self) -> list[tuple[Term, ...]]:
        if self.at("."):
            return []
        tuples = [self.parse_tuple()]
        while self.at(";"):
            self.next()
            tuples.append(self.parse_tuple())
        return tuples

    def parse_tuple(self) -> tuple[Term, ...]:
        if self.at("("):
            self.next()
            ts = [self.parse_term(frozenset())]
            while self.at(","):
                self.next()
                ts.append(self.parse_term(frozenset()))
            self.expect(")")
            return tuple(ts)
        return (self.parse_term(frozenset()),)


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
    ante, succ, insts = _Parser(text).parse_file()
    seq = Sequent(tuple(ante), tuple(succ))
    collected: list[set[tuple[Term, ...]]] = [set() for _ in range(seq.q)]
    for n, tuples, tok in insts:
        if not 1 <= n <= seq.q:
            raise InputError(
                f"inst refers to formula {n}, but there are only {seq.q}",
                tok.line,
                tok.col,
            )
        k = seq.k(n)
        if k == 0:
            raise InputError(
                f"formula {n} has no quantifier prefix, instances not allowed",
                tok.line,
                tok.col,
            )
        for tup in tuples:
            if len(tup) != k:
                raise InputError(
                    f"instance {render_tuple(tup)} for formula {n} has arity"
                    f" {len(tup)}, expected {k}",
                    tok.line,
                    tok.col,
                )
        collected[n - 1].update(tuples)
    structure = HerbrandStructure(tuple(frozenset(s) for s in collected))
    _check_signature(seq, structure)
    return seq, structure

"""Quantifier-free formulas with equality, plus top-level quantifier blocks.

Atoms are predicate applications or equations; Top/Bottom exist for
degenerate constructions (they cannot be written in input files).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .terms import (
    App,
    Term,
    Var,
    render_term,
    subst_term,
    term_key,
    term_vars,
)


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Imp:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class QuantBlock:
    kind: str  # "all" or "ex"
    vars: tuple[str, ...]
    body: "Formula"


Formula = Union[Atom, Eq, Top, Bottom, Not, And, Or, Imp, QuantBlock]

TOP = Top()
BOTTOM = Bottom()


def conj(fs: Iterable[Formula]) -> Formula:
    """Right-nested conjunction; empty yields Top."""
    fs = list(fs)
    if not fs:
        return TOP
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = And(f, out)
    return out


def disj(fs: Iterable[Formula]) -> Formula:
    fs = list(fs)
    if not fs:
        return BOTTOM
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Or(f, out)
    return out


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, QuantBlock):
        return False
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (And, Or, Imp)):
        return is_quantifier_free(f.lhs) and is_quantifier_free(f.rhs)
    return True


def formula_vars(f: Formula) -> set[str]:
    """Free variable names."""
    if isinstance(f, Atom):
        out: set[str] = set()
        for t in f.args:
            out |= term_vars(t)
        return out
    if isinstance(f, Eq):
        return term_vars(f.lhs) | term_vars(f.rhs)
    if isinstance(f, (Top, Bottom)):
        return set()
    if isinstance(f, Not):
        return formula_vars(f.body)
    if isinstance(f, (And, Or, Imp)):
        return formula_vars(f.lhs) | formula_vars(f.rhs)
    return formula_vars(f.body) - set(f.vars)


def symbols(
    items: Iterable[Union[Formula, Term]]
) -> Iterator[tuple[str, str, int]]:
    """Every symbol occurrence in the formulas and terms, in pre-order, as
    (kind, name, arity): kind "pred" for a predicate, "fun" for a
    function symbol or constant, "var" for a variable or a name that a
    quantifier block binds.  Top and Bottom yield nothing.  Iterative, so
    nesting depth is unbounded."""
    stack = list(items)
    stack.reverse()
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is App:
            yield "fun", x.head, len(x.args)
            stack.extend(reversed(x.args))
        elif cls is Var:
            yield "var", x.name, 0
        elif cls is Atom:
            yield "pred", x.pred, len(x.args)
            stack.extend(reversed(x.args))
        elif cls is Eq:
            stack += (x.rhs, x.lhs)
        elif cls is Not:
            stack.append(x.body)
        elif cls is QuantBlock:
            for v in x.vars:
                yield "var", v, 0
            stack.append(x.body)
        elif cls is And or cls is Or or cls is Imp:
            stack += (x.rhs, x.lhs)


def apply_subst(f: Formula, sub: Mapping[str, Term]) -> Formula:
    """Simultaneous substitution.  On a quantifier block the bound names are
    excluded from the domain; capture is a caller error and is rejected."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(subst_term(t, sub) for t in f.args))
    if isinstance(f, Eq):
        return Eq(subst_term(f.lhs, sub), subst_term(f.rhs, sub))
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(apply_subst(f.body, sub))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(apply_subst(f.lhs, sub), apply_subst(f.rhs, sub))
    inner = {k: v for k, v in sub.items() if k not in f.vars}
    for v in inner.values():
        if term_vars(v) & set(f.vars):
            raise ValueError("substitution would capture a bound variable")
    return QuantBlock(f.kind, f.vars, apply_subst(f.body, inner))


def formula_size(f: Formula) -> int:
    """Number of connective + atom nodes (an atom or equation counts 1)."""
    if isinstance(f, (Atom, Eq, Top, Bottom)):
        return 1
    if isinstance(f, Not):
        return 1 + formula_size(f.body)
    if isinstance(f, (And, Or, Imp)):
        return 1 + formula_size(f.lhs) + formula_size(f.rhs)
    return 1 + formula_size(f.body)


# Rendering uses the input syntax: ~ binds tighter than &, then |, then ->.
# Binary connectives are right-associative, matching the parser.
_PREC = {Imp: 1, Or: 2, And: 3}


def render_formula(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, ctx: int) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(render_term(t) for t in f.args)})"
    if isinstance(f, Eq):
        return f"{render_term(f.lhs)} = {render_term(f.rhs)}"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "~" + _render(f.body, 4)
    if isinstance(f, QuantBlock):
        head = f"{f.kind} {' '.join(f.vars)}: {_render(f.body, 0)}"
        return f"({head})" if ctx > 0 else head
    prec = _PREC[type(f)]
    op = {Imp: " -> ", Or: " | ", And: " & "}[type(f)]
    # Right operand renders at the same level (right-associative chains stay
    # unparenthesized); left operand must bind strictly tighter.
    s = _render(f.lhs, prec + 1) + op + _render(f.rhs, prec)
    return f"({s})" if ctx >= prec + 1 else s


def formula_key(f: Formula) -> tuple:
    """Deterministic structural order on formulas."""
    if isinstance(f, Atom):
        return (0, f.pred, tuple(term_key(t) for t in f.args))
    if isinstance(f, Eq):
        return (1, term_key(f.lhs), term_key(f.rhs))
    if isinstance(f, Top):
        return (2,)
    if isinstance(f, Bottom):
        return (3,)
    if isinstance(f, Not):
        return (4, formula_key(f.body))
    if isinstance(f, And):
        return (5, formula_key(f.lhs), formula_key(f.rhs))
    if isinstance(f, Or):
        return (6, formula_key(f.lhs), formula_key(f.rhs))
    if isinstance(f, Imp):
        return (7, formula_key(f.lhs), formula_key(f.rhs))
    return (8, f.kind, f.vars, formula_key(f.body))

"""JSON encodings for terms, formulas, sequents, and proofs.

The encodings are plain dicts/lists so proof artifacts survive a
round-trip through files and can be rechecked by a separate process;
``json.dumps`` writes them and ``json.loads`` reads them back.
"""

from __future__ import annotations

from typing import Any

from .formulas import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Eq,
    Formula,
    Imp,
    Not,
    Or,
    QuantBlock,
    Top,
)
from .sequents import Sequent
from .terms import App, Term, Var


def term_to_json(t: Term) -> Any:
    if isinstance(t, Var):
        return {"var": t.name}
    return {"app": t.head, "args": [term_to_json(a) for a in t.args]}


def name_from_json(x: Any) -> str:
    """A variable, function, predicate or bound-variable name."""
    if not isinstance(x, str):
        raise ValueError(f"bad name encoding: {x!r}")
    return x


def term_from_json(d: Any) -> Term:
    if not isinstance(d, dict):
        raise ValueError(f"bad term encoding: {d!r}")
    if "var" in d:
        return Var(name_from_json(d["var"]))
    if "app" in d:
        return App(
            name_from_json(d["app"]),
            tuple(term_from_json(a) for a in d["args"]),
        )
    raise ValueError(f"bad term encoding: {d!r}")


def formula_to_json(f: Formula) -> Any:
    if isinstance(f, Atom):
        return {"atom": f.pred, "args": [term_to_json(t) for t in f.args]}
    if isinstance(f, Eq):
        return {"eq": [term_to_json(f.lhs), term_to_json(f.rhs)]}
    if isinstance(f, Top):
        return {"top": True}
    if isinstance(f, Bottom):
        return {"bottom": True}
    if isinstance(f, Not):
        return {"not": formula_to_json(f.body)}
    if isinstance(f, And):
        return {"and": [formula_to_json(f.lhs), formula_to_json(f.rhs)]}
    if isinstance(f, Or):
        return {"or": [formula_to_json(f.lhs), formula_to_json(f.rhs)]}
    if isinstance(f, Imp):
        return {"imp": [formula_to_json(f.lhs), formula_to_json(f.rhs)]}
    if isinstance(f, QuantBlock):
        return {
            "quant": f.kind,
            "vars": list(f.vars),
            "body": formula_to_json(f.body),
        }
    raise TypeError(f"cannot encode {f!r}")


def formula_from_json(d: Any) -> Formula:
    if not isinstance(d, dict):
        raise ValueError(f"bad formula encoding: {d!r}")
    if "atom" in d:
        return Atom(
            name_from_json(d["atom"]),
            tuple(term_from_json(t) for t in d["args"]),
        )
    if "eq" in d:
        l, r = d["eq"]
        return Eq(term_from_json(l), term_from_json(r))
    if "top" in d:
        return TOP
    if "bottom" in d:
        return BOTTOM
    if "not" in d:
        return Not(formula_from_json(d["not"]))
    if "and" in d:
        l, r = d["and"]
        return And(formula_from_json(l), formula_from_json(r))
    if "or" in d:
        l, r = d["or"]
        return Or(formula_from_json(l), formula_from_json(r))
    if "imp" in d:
        l, r = d["imp"]
        return Imp(formula_from_json(l), formula_from_json(r))
    if "quant" in d:
        return QuantBlock(
            d["quant"],
            tuple(name_from_json(x) for x in d["vars"]),
            formula_from_json(d["body"]),
        )
    raise ValueError(f"bad formula encoding: {d!r}")


def sequent_to_json(s: Sequent) -> Any:
    return {
        "ante": [formula_to_json(f) for f in s.ante],
        "succ": [formula_to_json(f) for f in s.succ],
    }


def sequent_from_json(d: Any) -> Sequent:
    return Sequent(
        tuple(formula_from_json(f) for f in d["ante"]),
        tuple(formula_from_json(f) for f in d["succ"]),
    )

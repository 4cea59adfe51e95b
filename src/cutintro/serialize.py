"""JSON encodings for terms, formulas, sequents, and proofs.

The encodings are plain dicts/lists so proof artifacts survive a
round-trip through files and can be rechecked by a separate process.
``dumps_indented`` writes them as ``json.dumps(obj, indent=2)`` would,
encoding a container that occurs several times only once.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .formulas import (
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
        return Top()
    if "bottom" in d:
        return Bottom()
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


def sequent_to_json(
    s: Sequent, formula: Callable[[Formula], Any] = formula_to_json
) -> Any:
    return {
        "ante": [formula(f) for f in s.ante],
        "succ": [formula(f) for f in s.succ],
    }


def sequent_from_json(d: Any) -> Sequent:
    return Sequent(
        tuple(formula_from_json(f) for f in d["ante"]),
        tuple(formula_from_json(f) for f in d["succ"]),
    )


def _scalar_text(o: Any) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (float("inf"), float("-inf")):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(
        f"Object of type {type(o).__name__} is not JSON serializable"
    )


def _repeated_containers(obj: Any) -> set[int]:
    """Ids of the dicts, lists and tuples reached more than once in obj."""
    seen: set[int] = set()
    repeated: set[int] = set()
    stack = [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, dict):
            children = o.values()
        elif isinstance(o, (list, tuple)):
            children = o
        else:
            continue
        if id(o) in seen:
            repeated.add(id(o))
            continue
        seen.add(id(o))
        stack.extend(children)
    return repeated


_IN_PROGRESS = ("", "")


def dumps_indented(obj: Any) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, for any JSON value (dict
    keys must be strings).

    Pieces are appended to one list at their absolute indentation and
    joined once.  A container reached more than once (the same object,
    by identity) is encoded the first time only; where it recurs, that
    text is re-indented by replacing the newline-plus-padding it was
    written at.  Strings never hold a raw newline (JSON escapes it), so
    every newline in the text is one the encoder wrote.
    """
    repeated = _repeated_containers(obj)
    memo: dict[int, tuple[str, str]] = {}
    parts: list[str] = []
    append = parts.append

    def encode(o: Any, pad: str) -> None:
        if not isinstance(o, (dict, list, tuple)):
            append(_scalar_text(o))
        elif id(o) not in repeated:
            body(o, pad)
        else:
            hit = memo.get(id(o))
            if hit is _IN_PROGRESS:
                raise ValueError("Circular reference detected")
            if hit is not None:
                text, first_pad = hit
                if first_pad != pad:
                    text = text.replace("\n" + first_pad, "\n" + pad)
                append(text)
                return
            memo[id(o)] = _IN_PROGRESS
            start = len(parts)
            body(o, pad)
            text = "".join(parts[start:])
            del parts[start:]
            append(text)
            memo[id(o)] = (text, pad)

    def body(o: Any, pad: str) -> None:
        if not o:
            append("{}" if isinstance(o, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(o, dict):
            sep = "{\n" + inner
            for key, value in o.items():
                if not isinstance(key, str):
                    raise TypeError(
                        f"keys must be str, not {type(key).__name__}"
                    )
                append(sep + encode_basestring_ascii(key) + ": ")
                encode(value, inner)
                sep = ",\n" + inner
            append("\n" + pad + "}")
        else:
            sep = "[\n" + inner
            for value in o:
                append(sep)
                encode(value, inner)
                sep = ",\n" + inner
            append("\n" + pad + "]")

    encode(obj, "")
    return "".join(parts)

"""JSON forms of terms and formulas: the node table of ``proof.json``
and ``decomposition.json``.

The table lists each term and formula once, children first.  An entry
has the keys of its class and gives each child as the index of an
earlier entry: ``{"app": "f", "args": [0]}``, ``{"eq": [1, 2]}``,
``{"not": 3}``, ``{"quant": "all", "vars": ["x"], "body": 5}``.  Only
tables are written; where an entry gives an index, the reader also
takes an inline object, the nested form of earlier versions.
"""

from __future__ import annotations

from typing import Any, Callable

from .formulas import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Eq,
    Imp,
    Not,
    Or,
    QuantBlock,
    Top,
)
from .terms import App, Var

_PAIRS = {Eq: "eq", And: "and", Or: "or", Imp: "imp"}


def _children(f) -> tuple:
    cls = f.__class__
    if cls is App or cls is Atom:
        return f.args
    if cls is Not or cls is QuantBlock:
        return (f.body,)
    if cls in _PAIRS:
        return (f.lhs, f.rhs)
    return ()


def _entry(f, index: dict) -> dict:
    """The entry of ``f``, whose children ``index`` numbers."""
    cls = f.__class__
    if cls is Var:
        return {"var": f.name}
    if cls is App:
        return {"app": f.head, "args": [index[a] for a in f.args]}
    if cls is Atom:
        return {"atom": f.pred, "args": [index[a] for a in f.args]}
    if cls is Top:
        return {"top": True}
    if cls is Bottom:
        return {"bottom": True}
    if cls is Not:
        return {"not": index[f.body]}
    if cls is QuantBlock:
        return {"quant": f.kind, "vars": list(f.vars), "body": index[f.body]}
    return {_PAIRS[cls]: [index[f.lhs], index[f.rhs]]}


def _post_order(f, done: dict, visit) -> None:
    """Call ``visit`` on ``f`` and on each descendant not in ``done``,
    children first, once each; ``visit`` adds its node to ``done``."""
    stack = [f]
    while stack:
        g = stack[-1]
        if g in done:
            stack.pop()
            continue
        missing = [c for c in _children(g) if c not in done]
        if missing:
            stack.extend(reversed(missing))
        else:
            visit(stack.pop())


def node_to_json(f, index: dict, entries: list) -> int:
    """The index of ``f`` in the table ``entries``, which ``index`` maps
    from node to index; appends ``f`` and its new descendants."""

    def add(g) -> None:
        index[g] = len(entries)
        entries.append(_entry(g, index))

    _post_order(f, index, add)
    return index[f]


def tree_size(f, sizes: dict) -> int:
    """The node count of ``f`` written out as a tree, where a shared
    node counts once per occurrence; ``sizes`` keeps the counts found,
    so each node is visited once."""

    def add(g) -> None:
        sizes[g] = 1 + sum(sizes[c] for c in _children(g))

    _post_order(f, sizes, add)
    return sizes[f]


def index_from_json(x: Any, bound: int) -> int:
    """An index of one of the first ``bound`` entries of a table."""
    if type(x) is not int:  # not a bool either
        raise ValueError(f"bad index: {x!r}")
    if not 0 <= x < bound:
        raise ValueError(f"index {x} does not name an earlier entry")
    return x


def name_from_json(x: Any) -> str:
    """A variable, function, predicate or bound-variable name."""
    if not isinstance(x, str):
        raise ValueError(f"bad name encoding: {x!r}")
    return x


def names_from_json(x: Any) -> tuple[str, ...]:
    if not isinstance(x, list):
        raise ValueError(f"bad name list: {type(x).__name__}")
    return tuple(name_from_json(y) for y in x)


def slot_from_json(x: Any, nodes: list, term: bool):
    """The term (``term``) or formula a slot gives, inline or by index
    into the ``nodes`` read so far."""
    if isinstance(x, dict):
        f = node_from_json(x, nodes)
    else:
        f = nodes[index_from_json(x, len(nodes))]
    if isinstance(f, (Var, App)) is not term:
        got, want = ("formula", "term") if term else ("term", "formula")
        raise ValueError(f"a {got} in a {want} slot")
    return f


def slots_from_json(x: Any, nodes: list, term: bool) -> tuple:
    return tuple(slot_from_json(y, nodes, term) for y in x)


def node_from_json(d: Any, nodes: list):
    """One table entry or inline object, over the ``nodes`` read so far."""
    if not isinstance(d, dict):
        raise ValueError(f"bad node encoding: {type(d).__name__}")
    if "var" in d:
        return Var(name_from_json(d["var"]))
    for cls, key in ((App, "app"), (Atom, "atom")):
        if key in d:
            args = slots_from_json(d["args"], nodes, True)
            return cls(name_from_json(d[key]), args)
    for cls, key in _PAIRS.items():
        if key in d:  # a wrong count makes the constructor raise TypeError
            return cls(*slots_from_json(d[key], nodes, cls is Eq))
    if "top" in d:
        return TOP
    if "bottom" in d:
        return BOTTOM
    if "not" in d:
        return Not(slot_from_json(d["not"], nodes, False))
    if "quant" in d:
        body = slot_from_json(d["body"], nodes, False)
        return QuantBlock(d["quant"], names_from_json(d["vars"]), body)
    raise ValueError(f"bad node encoding: keys {sorted(d)}")


def entries_from_json(
    x: Any, what: str, read: Callable[[Any, list], Any]
) -> list:
    """The entries of the list ``x``, each read over those before it; a
    failure names the entry, as ``what[i]``."""
    if not isinstance(x, list):
        raise ValueError(f"{what!r} is not a list")
    out: list = []
    for i, d in enumerate(x):
        try:
            out.append(read(d, out))
        except KeyError as err:
            raise ValueError(f"{what}[{i}]: missing key {err}") from None
        except (TypeError, ValueError) as err:
            raise ValueError(f"{what}[{i}]: {err}") from None
    return out

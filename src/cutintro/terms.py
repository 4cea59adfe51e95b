"""First-order terms: variables and applications, substitution, ordering.

Terms and formulas (``formulas``) are nodes of one hash-consed bank, on
one base class ``Node``: equal nodes are one object.  Constructing a
node looks it up in one module-level table, keyed by its class and field
values, and returns the stored node when there is one.  Since the
children are themselves unique, that lookup compares them by identity,
and ``==`` on nodes is identity; no comparison ever walks a node.
Constants are zero-argument applications.

The table holds its nodes weakly: an entry dies with the last reference
to its node, so the table neither outlives a pipeline run nor grows
across a corpus batch.  Construction assumes one thread, as the package
runs; corpus workers are processes, each with a table of its own.

Each node computes once, when it is first built, from the values its
children already hold, so no later use walks it again:

- its hash.  It is structural rather than an address, and it starts
  from string hashes alone: a variable hashes its name with the empty
  tuple, not with None, whose hash is its address before Python 3.12.
  String hashes are salted per process, so the iteration order of node
  sets and dicts differs between runs, but repeats at one
  ``PYTHONHASHSEED``.  Outputs do not depend on that order: every output
  is sorted before it is written;
- ``key``, its total-order sort key.  For a term it is what ``term_key``
  returns (variables before applications, then by name and arguments);
- for a term, ``tagged``: whether some subterm has a reserved
  formula-tag head.

See Filliâtre and Conchon, "Type-safe modular hash-consing" (ML Workshop
2006).
"""

from __future__ import annotations

import weakref
from typing import Mapping, Union

# Names starting with this prefix are the generated cut variables alpha_1,
# alpha_2, ...; the input parser rejects them so user symbols never collide.
ALPHA_PREFIX = "α"

# Reserved head symbols tagging which end-sequent formula an instance tuple
# belongs to.  '#' is not a token character, so they are unparseable.
TAG_PREFIX = "#f"


_set = object.__setattr__

# Every live node, keyed by its class and field values.  Lookups read the
# table's dict of weak references, ``_refs``, without the Python-level
# ``_table.get``; a missing key yields ``_no_ref``, which returns None.
_table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_refs = _table.data
_no_ref = type(None)


class Node:
    """An immutable, hash-consed node.  A subclass names its fields in
    ``_fields``, gives the values of trailing optional ones in
    ``_defaults``, and derives ``key`` in ``_key``; its constructor takes
    the field values positionally.  The hash is that of the tuple of
    field values, as a frozen dataclass's; a subclass may derive its
    cached values otherwise by overriding ``_derive``.  A node pickles
    through its constructor (``__reduce__``), so an unpickled node joins
    the receiving process's table, and its cached hash is recomputed
    there: string hashes differ between processes, such as corpus
    workers."""

    __slots__ = ("key", "_hash", "__weakref__")
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __new__(cls, *values):
        ident = (cls, *values)
        self = _refs.get(ident, _no_ref)()
        if self is not None:
            return self
        missing = len(cls._fields) - len(values)
        if missing:
            if 0 < missing <= len(cls._defaults):
                return cls(*values, *cls._defaults[-missing:])
            raise TypeError(f"{cls.__name__} takes fields {cls._fields}")
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            _set(self, name, value)
        self._derive(values)
        _table[ident] = self
        return self

    def _derive(self, values: tuple) -> None:
        """Cache the hash and ``key``; runs once, when the node is built."""
        _set(self, "_hash", hash(values))
        _set(self, "key", self._key())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), self._values())

    def __repr__(self) -> str:
        values = self._values()
        # Trailing fields at their defaults are left out: App('a').
        n = len(self._defaults)
        if n and values[-n:] == self._defaults:
            values = values[:-n]
        return f"{type(self).__name__}({', '.join(map(repr, values))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Var(Node):
    __slots__ = _fields = ("name",)
    tagged = False

    def _derive(self, values: tuple) -> None:
        # () marks a variable apart from the constant of its name, whose
        # hash is that of (name,); its hash, unlike None's, is the same
        # in every process.
        _set(self, "_hash", hash((self.name, ())))
        _set(self, "key", (0, _name_key(self.name)))


class App(Node):
    __slots__ = ("head", "args", "tagged")
    _fields = ("head", "args")
    _defaults = ((),)

    def _derive(self, values: tuple) -> None:
        head, args = values
        tagged = is_tag_head(head)
        keys = []
        hashes = [head]
        for a in args:
            keys.append(a.key)
            hashes.append(a._hash)
            if a.tagged:
                tagged = True
        _set(self, "_hash", hash(tuple(hashes)))
        _set(self, "key", (1, _name_key(head), tuple(keys)))
        _set(self, "tagged", tagged)


Term = Union[Var, App]


def const(name: str) -> App:
    return App(name, ())


def alpha(i: int) -> Var:
    """The i-th generated variable (1-based)."""
    return Var(f"{ALPHA_PREFIX}{i}")


def is_alpha(name: str) -> bool:
    return name.startswith(ALPHA_PREFIX)


def alpha_index(name: str) -> int:
    return int(name[len(ALPHA_PREFIX):])


def alpha_subst(row) -> dict[str, Term]:
    """The substitution α_i ↦ row[i-1]."""
    return {f"{ALPHA_PREFIX}{i}": t for i, t in enumerate(row, start=1)}


def tag_head(i: int) -> str:
    """Reserved head symbol for formula position i (1-based)."""
    return f"{TAG_PREFIX}{i}"


def is_tag_head(head: str) -> bool:
    return head.startswith(TAG_PREFIX)


def tag_index(head: str) -> int:
    return int(head[len(TAG_PREFIX):])


def term_vars(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            out.add(x.name)
        else:
            stack.extend(x.args)
    return out


def subst_term(t: Term, sub: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return sub.get(t.name, t)
    if not t.args:
        return t
    return App(t.head, tuple(subst_term(a, sub) for a in t.args))


def replace_at(t: Term, pos: tuple[int, ...], repl: Term) -> Term:
    """Replace the subterm at position pos (child indices from the root)."""
    if not pos:
        return repl
    assert isinstance(t, App)
    i = pos[0]
    args = list(t.args)
    args[i] = replace_at(args[i], pos[1:], repl)
    return App(t.head, tuple(args))


def positions_of(t: Term, s: Term) -> list[tuple[int, ...]]:
    """All positions where s occurs as a subterm of t, in pre-order, left
    to right.  One list holds the path to the node visited, and a
    position tuple is built only at a match, so the walk is linear in
    the size of t."""
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    # (subterm, its depth, its index among its siblings)
    stack: list[tuple[Term, int, int]] = [(t, 0, 0)]
    while stack:
        x, depth, i = stack.pop()
        if depth:
            del path[depth - 1:]
            path.append(i)
        if x is s:
            out.append(tuple(path))
        if x.__class__ is App:
            args = x.args
            for j in range(len(args) - 1, -1, -1):
                stack.append((args[j], depth + 1, j))
    return out


def render_term(t: Term) -> str:
    """``f(a, x)`` for a term, with an explicit stack, so a term of any
    depth renders."""
    if t.__class__ is Var:
        return t.name
    if not t.args:
        return t.head
    out = [t.head, "("]
    # The argument iterators of the applications open at this point.
    open_args = [iter(t.args)]
    sep = ""
    while open_args:
        for a in open_args[-1]:
            out.append(sep)
            if a.__class__ is Var:
                out.append(a.name)
            elif not a.args:
                out.append(a.head)
            else:
                out.append(a.head)
                out.append("(")
                open_args.append(iter(a.args))
                sep = ""
                break
            sep = ", "
        else:
            open_args.pop()
            out.append(")")
            sep = ", "
    return "".join(out)


def _name_key(name: str) -> tuple:
    # Generated variables sort by their index so that alpha_2 < alpha_10.
    if is_alpha(name):
        return (0, alpha_index(name), "")
    return (1, 0, name)


def term_key(t: Term) -> tuple:
    """Total structural order: variables before applications, then by name
    and arguments.  Used everywhere a deterministic term order is needed."""
    return t.key


def tuple_key(ts: tuple[Term, ...]) -> tuple:
    return tuple(t.key for t in ts)


def render_tuple(ts: tuple[Term, ...]) -> str:
    return "(" + ", ".join(render_term(t) for t in ts) + ")"

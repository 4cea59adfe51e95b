"""First-order terms: variables and applications, substitution, ordering.

Terms are immutable and hash-consed: equal terms are one object.  ``Var``
and ``App`` look each new term up in one module-level table, keyed by its
name or by its head and arguments, and return the stored object when
there is one.  Since the arguments are themselves unique, that lookup
compares them by identity, and ``==`` on terms is identity; no
comparison ever walks a term.  Terms serve as dictionary keys and set
members throughout the decomposition machinery.  Constants are
zero-argument applications.

The table holds its terms weakly: an entry dies with the last reference
to its term.  So the table holds only terms in use; it does not outlive
the terms of a pipeline run, nor grow across a corpus batch.
Construction assumes one thread, as the package runs; corpus workers
are processes, each with a table of its own.

Each term computes three values once, when it is first built, from the
values its children already hold, so no later use walks the term again:

- its hash, combined from the head or name and the children's hashes.
  It is structural rather than an address, so the iteration order of
  term sets and dicts, and with it every output, is the same in every
  run;
- ``key``, the total-order sort key that ``term_key`` returns (variables
  before applications, then by name and arguments);
- ``tagged``, whether some subterm has a reserved formula-tag head.

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

# Every live term, keyed by (None, name) for a variable and by
# (head, args) for an application.
_table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Frozen:
    """Refuses attribute assignment.  Subclasses pickle through their
    constructor (``__reduce__``), so an unpickled term joins the
    receiving process's table, and its cached hash is recomputed there:
    string hashes differ between processes, such as corpus workers."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Var(_Frozen):
    __slots__ = ("name", "key", "tagged", "_hash", "__weakref__")

    def __new__(cls, name: str) -> "Var":
        ident = (None, name)
        self = _table.get(ident)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set(self, "name", name)
        _set(self, "key", (0, _name_key(name)))
        _set(self, "tagged", False)
        _set(self, "_hash", hash((name, None)))
        _table[ident] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class App(_Frozen):
    __slots__ = ("head", "args", "key", "tagged", "_hash", "__weakref__")

    def __new__(cls, head: str, args: tuple["Term", ...] = ()) -> "App":
        ident = (head, args)
        self = _table.get(ident)
        if self is not None:
            return self
        tagged = is_tag_head(head)
        if args:
            keys = []
            hashes = [head]
            for a in args:
                keys.append(a.key)
                hashes.append(a._hash)
                if a.tagged:
                    tagged = True
            key = (1, _name_key(head), tuple(keys))
            h = hash(tuple(hashes))
        else:
            key = (1, _name_key(head), ())
            h = hash((head,))
        self = object.__new__(cls)
        _set(self, "head", head)
        _set(self, "args", args)
        _set(self, "key", key)
        _set(self, "tagged", tagged)
        _set(self, "_hash", h)
        _table[ident] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (App, (self.head, self.args))

    def __repr__(self) -> str:
        if not self.args:
            return f"App({self.head!r})"
        return f"App({self.head!r}, {self.args!r})"


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
    """All positions where s occurs as a subterm of t."""
    out: list[tuple[int, ...]] = []

    def walk(x: Term, pos: tuple[int, ...]) -> None:
        if x == s:
            out.append(pos)
        if isinstance(x, App):
            for i, a in enumerate(x.args):
                walk(a, pos + (i,))

    walk(t, ())
    return out


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.head
    return f"{t.head}({', '.join(render_term(a) for a in t.args)})"


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

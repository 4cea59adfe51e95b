"""How a term set gets compressed into patterns plus witness vectors.

A decomposition of a term set T is a pair (U, W): a set of patterns U
over variables α1..αm and a set of ground vectors W such that
instantiating every pattern with every vector regenerates T exactly.
Its size |U| + |W| can be far below |T|, and that gap is exactly the
quantifier work a cut formula over α1..αm saves in a proof.

Run with:  python3 demos/decomposition_search.py
"""

from cutintro import (
    App,
    build_delta_table,
    fold_delta_table,
    render_term,
)
from cutintro.terms import alpha_subst, const, subst_term, term_key, tuple_key


def s(t):
    return App("s", (t,))


def f(t):
    return App("f", (t,))


def g(x, y):
    return App("g", (x, y))


def power(fn, t, n):
    for _ in range(n):
        t = fn(t)
    return t


def anti_unify(terms):
    """The least general pattern of the terms and their witness rows: the
    Δ-table's pair whose cover is the whole list.  The table is built to
    a few terms per subset, so it is grown to all of them first.  Lifted
    copies of the pair sit under keys of higher arity, so the native
    pair is the one of least arity."""
    table = build_delta_table(terms)
    while table.grow() is not None:
        pass
    whole = (1 << len(table.terms)) - 1
    key, u = min(
        ((key, u) for key, pairs in table.pairs.items()
         for u, mask in pairs if mask == whole),
        key=lambda pair: len(next(iter(pair[0]))),
    )
    return u, sorted(key, key=tuple_key)


def rows_text(rows):
    return ", ".join(
        "(" + ", ".join(render_term(x) for x in row) + ")" for row in rows
    )


def show(title, terms):
    print()
    print(f"--- {title} " + "-" * max(0, 66 - len(title)))
    print(f"T = {{{', '.join(render_term(t) for t in sorted(terms, key=term_key))}}}")


a, b, c = const("a"), const("b"), const("c")

# ---------------------------------------------------------------------
# Anti-unification: the least general pattern of a term list.
show("anti-unification", [f(s(a)), f(s(b)), f(c)])
u, rows = anti_unify([f(s(a)), f(s(b)), f(c)])
print(f"pattern  {render_term(u)}")
print(f"  rows {rows_text(rows)}")
# Positions that disagree become variables; equal disagreement columns
# share one variable:
u2, rows2 = anti_unify([g(a, a), g(b, b)])
print(f"equal columns share: {render_term(u2)}  rows {rows_text(rows2)}")

# ---------------------------------------------------------------------
# A chain: nine iterates of one function compress to 3 + 3.  The fold
# returns the minimal decompositions one |W| class at a time, the least
# |W| first; ``after=`` the last of a class asks for the next.
chain = frozenset(power(f, a, i) for i in range(9))
show("one-variable compression", chain)
table = build_delta_table(chain)
decs = fold_delta_table(table)
while decs:
    print(f"|W| = {len(decs[0].w)}:")
    for dec in decs:
        print(f"size {dec.size}:  {dec.render()}")
        regenerated = {
            subst_term(u, alpha_subst(row)) for u in dec.u for row in dec.w
        }
        print(f"  regenerates T exactly: {regenerated == chain}")
    decs = fold_delta_table(table, after=decs[-1])

# ---------------------------------------------------------------------
# Two moving parts: four pairs sliding in opposite directions, started
# from two seeds.  No single-variable pattern family covers this, but
# two variables do — the same effect the bundled running example uses.
slide = frozenset(
    g(power(s, x, i), power(s, y, 3 - i))
    for i in range(4)
    for (x, y) in [(a, b), (b, a)]
)
show("two-variable compression", slide)
decs = fold_delta_table(build_delta_table(slide))
print(f"unrestricted search, size {decs[0].size} of {len(slide)}:")
print(f"  {decs[0].render()}")
narrow = fold_delta_table(build_delta_table(slide), ci1=True)
print(f"single-variable search finds {len(narrow)} decomposition(s) "
      f"— two moving parts need two variables")

# ---------------------------------------------------------------------
# Nothing to share: for a flat set of unrelated constants the best
# (U, W) is worse than the set itself, so the pipeline refuses it and
# reports the input as uncompressible.
flat = frozenset([a, b, c])
show("uncompressible set", flat)
worst = fold_delta_table(build_delta_table(flat))[0]
print(f"best available: size {worst.size} > |T| = {len(flat)}")
print(f"  {worst.render()}")

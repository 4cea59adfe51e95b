"""Decomposition search for encoded term sets.

A decomposition of a ground term set T is a pair (U, W): a set of
patterns U over variables α₁..α_m and a set of ground m-vectors W such
that instantiating every pattern with every vector yields exactly T.
Its size is |U| + |W|; finding a minimum-size decomposition is the
combinatorial core of cut introduction.

The search works in three stages:

1. ``_AntiUnifier.step`` anti-unifies a pattern with one more term,
   the step of Plotkin's least general generalization: positions that
   disagree become variables, numbered by first occurrence in
   pre-order, and equal columns share one.  A column that mentions a
   reserved formula-tag head ends the step.  ``_AntiUnifier.rows``
   reads each term's witness vector at the first-occurrence paths of
   the pattern's variables.
2. ``build_delta_table`` enumerates the subsets of T depth first, in
   ``term_key`` order, extending each subset's pattern by its last term,
   and indexes the results by witness-vector set (the key).  From the
   enumeration on, a subset (the pattern's cover) is an ``int`` bitmask,
   bit j standing for the j-th term in ``term_key`` order.  A subset
   carries its pattern, mask and key, not its columns: many subsets
   share a pattern, so each (pattern, term) step is made once per build
   and remembered.  When the step keeps the pattern, the variables and
   so the columns stay as they are, and the child's key is the parent's
   grown by the new term's row; only when it generalizes the pattern is
   the key read off the subset's terms at the new variable paths.  A
   subset whose key is unclean (see below) is neither stored nor
   extended: every superset generalizes it, so its key is unclean too.
   The table is then closed
   under arity-raising coordinate injections so that patterns found at a
   smaller arity are also visible at every compatible larger key; a
   lifted pair keeps its cover's mask.
3. ``fold_delta_table`` scans the keys whose covers together cover T,
   the only ones that can tile it; it skips the others before sorting
   the keys into scan order.  For each key scanned it solves a
   set-cover problem: pick pattern groups whose covers tile T.
   Selection is by cover — a chosen mask contributes every pattern the
   table associates with it — which keeps the expansion property exact.
   The groups are the pairs of a key grouped by mask, so the fold looks
   up no cover's terms.

The walks of the anti-unifier and of the fold's search keep their
state in arguments and explicit stacks, not in self-referencing
closures, so a search leaves no reference cycles for the cyclic garbage
collector: what it allocates is freed by reference counting.

Keys whose vectors mention the reserved formula-tag heads are unclean
and never used: a tag head inside W would smuggle formula structure into
the ground witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, permutations
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .herbrand import TermSet
from .limits import NO_DEADLINE, LimitReached
from .terms import (
    App,
    Term,
    Var,
    alpha,
    alpha_index,
    positions_of,
    render_term,
    render_tuple,
    subst_term,
    term_key,
    term_vars,
    tuple_key,
)


DEFAULT_TERMSET_LIMIT = 22

Row = tuple  # ground instantiation vector, one term per variable
Key = frozenset  # of Row

# The key of a pattern without variables: one empty row.
_NO_COLUMNS: Key = frozenset({()})


def _subterm_at(t: Term, path: tuple) -> Term:
    for i in path:
        t = t.args[i]
    return t


class _AntiUnifier:
    """Anti-unification of a pattern with one more term.

    The positions where the pattern and the term disagree become
    variables, numbered by first occurrence in pre-order, and positions
    with equal columns share a variable.  The pattern's variables are
    the ones this anti-unifier made, and its columns are clean.

    Equal terms are one object (see ``terms``), so the walk tells a
    position where the terms agree by identity, and a pattern subterm
    that does not change is returned as the same object.
    """

    def __init__(self) -> None:
        self.alphas: list[Var] = []
        self.paths: dict[Term, tuple] = {}

    def step(self, u: Term, t: Term) -> Optional[tuple[Term, Optional[Row]]]:
        """(v, row) for the pattern v of u's terms and t: ``row`` is t's
        witness row when v is u, and None when v generalizes u.  None
        when a column of v mentions a reserved formula-tag head.
        """
        news: list[Term] = []
        v = self._walk(u, t, {}, news)
        if v is None:
            return None
        return v, (tuple(news) if v is u else None)

    def _walk(
        self, p: Term, s: Term, fresh: dict, news: list
    ) -> Optional[Term]:
        """The new pattern at a position, from pattern subterm ``p`` and
        new subterm ``s``; None when a column is tagged.

        A variable of the new pattern is keyed in ``fresh`` by its
        (pattern subterm, new subterm) pair: two positions have equal
        columns exactly when their pairs are equal.  Its instance in the
        new term, ``s``, is appended to ``news``.  The state travels as
        arguments: a closure calling itself would leave a reference
        cycle per call.
        """
        if p is s:
            return p
        if (
            p.__class__ is App
            and s.__class__ is App
            and p.head == s.head
            and len(p.args) == len(s.args)
        ):
            pargs, sargs = p.args, s.args
            out = None
            for i in range(len(pargs)):
                c = self._walk(pargs[i], sargs[i], fresh, news)
                if c is None:
                    return None
                if out is not None:
                    out.append(c)
                elif c is not pargs[i]:
                    out = list(pargs[:i])
                    out.append(c)
            return p if out is None else App(p.head, tuple(out))
        pair = (p, s)
        n = fresh.get(pair)
        if n is None:
            # A pattern subterm's instances are tagged when it is: the
            # old columns are clean.
            if p.tagged or s.tagged:
                return None
            n = fresh[pair] = len(news)
            news.append(s)
            alphas = self.alphas
            if n == len(alphas):
                v = alpha(n + 1)
                alphas.append(v)
        return self.alphas[n]

    def rows(self, v: Term, terms: Iterable[Term]) -> tuple[Row, ...]:
        """The witness row of each of ``terms`` under pattern ``v``: its
        subterms at the first occurrences of v's variables."""
        paths = self.paths.get(v)
        if paths is None:
            # v's variables are the first ones made, numbered by first
            # occurrence.
            found = []
            for x in self.alphas:
                at = positions_of(v, x)
                if not at:
                    break
                found.append(at[0])
            paths = self.paths[v] = tuple(found)
        return tuple(tuple(_subterm_at(x, p) for p in paths) for x in terms)


def _pattern_var_indices(u: Term) -> set[int]:
    return {alpha_index(v) for v in term_vars(u)}


def _key_is_clean(key: Key) -> bool:
    """True when no coordinate mentions a reserved formula-tag head."""
    return not any(map(_tagged, chain.from_iterable(key)))


_tagged = attrgetter("tagged")


Pair = tuple  # (pattern term, cover bitmask)


@dataclass(frozen=True)
class DeltaTable:
    """Anti-unification results of the subsets with clean keys, indexed
    by witness key.

    ``pairs`` maps each key to a tuple of its distinct (pattern, cover)
    pairs, a cover being a bitmask over ``terms``: bit j stands for
    ``terms[j]``, the term set in ``term_key`` order.
    """

    pairs: dict  # Key -> tuple[Pair, ...]
    terms: tuple  # of Term, in term_key order

    @property
    def entries(self) -> dict:
        """The table with each cover as the frozenset of its terms:
        {key: frozenset of (pattern, frozenset of terms)}.  A view built
        anew on every access, for readers that compare tables."""
        terms = self.terms
        covers: dict[int, frozenset] = {}

        def cover(mask: int) -> frozenset:
            c = covers.get(mask)
            if c is None:
                c = covers[mask] = frozenset(
                    terms[i] for i in _bits(mask)
                )
            return c

        return {
            k: frozenset((u, cover(mask)) for u, mask in v)
            for k, v in self.pairs.items()
        }


@cache
def _byte_bits(k: int) -> tuple[tuple[int, ...], ...]:
    """For each byte value b, the indices of its set bits as byte k of a
    mask, ascending."""
    return tuple(
        tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256)
    )


def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, ascending."""
    out: tuple[int, ...] = ()
    k = 0
    while mask:
        out += _byte_bits(k)[mask & 255]
        mask >>= 8
        k += 1
    return out


def _key_arity(key: Key) -> int:
    return len(next(iter(key)))


def _inject_pattern(u: Term, injection: Sequence[int]) -> Term:
    """Rename αⱼ to the coordinate it is injected into (1-based)."""
    mapping = {
        alpha(j + 1).name: alpha(injection[j] + 1)
        for j in range(len(injection))
    }
    return subst_term(u, mapping)


# A step of ``_clean_subsets`` not made yet (None is a step that met a
# tagged column).
_UNMADE = object()


def _clean_subsets(
    terms: Sequence[Term],
    top: int,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> Iterator[tuple[Key, Term, int]]:
    """(key, pattern, mask) for each subset of at most ``top`` terms
    whose key is clean, depth first.  Bit j of the mask stands for
    ``terms[j]``, which are ground.  The pattern is the least general
    generalization of the subset's terms, its variables numbered by
    first occurrence, and the key holds their witness rows.

    A subset is extended by one anti-unification step of its pattern
    with the new term, made once per (pattern, term) pair: many subsets
    share a pattern.  When the step keeps the pattern, the new term's
    row joins the subset's key; the variables, and so the columns, are
    those of the subset.  When it generalizes the pattern, the key is
    read off the terms at the new pattern's variables.

    ``cancel`` runs once per subset visited, including those found
    unclean (which are not extended).
    """
    au = _AntiUnifier()
    n = len(terms)
    # steps[u][j]: the step of pattern u with terms[j], once made.
    steps: dict[Term, list] = {}
    # (index of the last term, pattern, size, mask, key) of a subset
    stack = [(-1, None, 0, 0, None)] if top > 0 else []
    while stack:
        last, u, size, mask, key = stack.pop()
        row_steps = None
        if size:
            row_steps = steps.get(u)
            if row_steps is None:
                row_steps = steps[u] = [_UNMADE] * n
        for j in range(last + 1, n):
            cancel()
            child = mask | 1 << j
            if row_steps is None:
                v, child_key = terms[j], _NO_COLUMNS
            else:
                step = row_steps[j]
                if step is _UNMADE:
                    step = row_steps[j] = au.step(u, terms[j])
                if step is None:
                    continue
                v, row = step
                if row is not None:
                    # The terms are distinct, so the row is new.
                    child_key = key.union((row,))
                else:
                    child_key = frozenset(
                        au.rows(v, [terms[i] for i in _bits(child)])
                    )
            yield child_key, v, child
            if size + 1 < top and j + 1 < n:
                stack.append((j, v, size + 1, child, child_key))


def build_delta_table(
    t: TermSet | Iterable[Term],
    max_subset: Optional[int] = None,
    limit: int = DEFAULT_TERMSET_LIMIT,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> DeltaTable:
    """Anti-unify the subsets of the term set and index by witness key.

    Only subsets with clean keys are stored; the enumeration never
    extends a subset whose key is unclean.  After the subset pass the
    table is closed under lifting: a pair found at a key of arity m₀ is
    copied to every key of arity m > m₀ that projects onto it
    injectively (coordinate selection keeping all rows distinct), with
    the pattern variables renamed to the selected coordinates.  Lifting
    only raises arity; it never permutes a key onto itself.
    """
    terms = sorted(
        set(t.terms if isinstance(t, TermSet) else t), key=term_key
    )
    if len(terms) > limit:
        raise LimitReached("termset_limit", limit, (
            f"term set has {len(terms)} terms; the subset table is limited "
            f"to {limit} (raise the limit explicitly to override)"
        ))
    top = len(terms) if max_subset is None else min(max_subset, len(terms))

    # No pair repeats: each subset has a mask of its own, a lift an arity.
    table: dict[Key, list[Pair]] = {}
    for key, u, mask in _clean_subsets(terms, top, cancel):
        pairs = table.get(key)
        if pairs is None:
            table[key] = [(u, mask)]
        else:
            pairs.append((u, mask))

    # Lift only the pairs found by the subset pass, never lifted copies:
    # the lifted pairs join the table after the pass.
    lifted: list[tuple[Key, Pair]] = []
    for key in table:
        m = _key_arity(key)
        if m < 2:
            continue
        rows = list(key)
        for m0 in range(1, m):
            for inj in permutations(range(m), m0):
                cancel()
                projected = [tuple(row[i] for i in inj) for row in rows]
                if len(set(projected)) != len(rows):
                    continue
                src = table.get(frozenset(projected))
                if not src:
                    continue
                for u0, mask in src:
                    lifted.append((key, (_inject_pattern(u0, inj), mask)))
    for key, pair in lifted:
        table[key].append(pair)

    for key, pairs in table.items():
        table[key] = tuple(pairs)
    return DeltaTable(pairs=table, terms=tuple(terms))


@dataclass(frozen=True)
class Decomposition:
    """A (U, W) decomposition of a ground term set."""

    u: frozenset  # of Term
    w: Key

    @property
    def arity(self) -> int:
        return _key_arity(self.w) if self.w else 0

    @property
    def size(self) -> int:
        return len(self.u) + len(self.w)

    def sort_key(self) -> tuple:
        return (
            len(self.w),
            tuple(sorted(term_key(u) for u in self.u)),
            tuple(sorted(tuple_key(r) for r in self.w)),
        )

    def render(self) -> str:
        us = ", ".join(render_term(u) for u in sorted(self.u, key=term_key))
        ws = ", ".join(map(render_tuple, sorted(self.w, key=tuple_key)))
        return f"U = {{{us}}}  W = {{{ws}}}"


def _fold_order(keys: list[Key]) -> list[Key]:
    """``keys`` in scan order: by arity, then size, then their rows sorted
    by ``tuple_key``.  Each witness term is ranked by ``term_key`` once,
    and a row is coded as the number whose digits in base ``len(rank)``
    are its ranks; rows of one arity compare as their codes, in the same
    order.  The order is total, so sorting a subset of the keys gives
    that subset in the order of the whole.
    """
    witnesses = {x for k in keys for row in k for x in row}
    rank = {x: i for i, x in enumerate(sorted(witnesses, key=term_key))}
    base = len(rank)

    def code(row: Row) -> int:
        c = 0
        for x in row:
            c = c * base + rank[x]
        return c

    def order(k: Key) -> tuple:
        return (_key_arity(k), len(k), tuple(sorted(map(code, k))))

    return sorted(keys, key=order)


def fold_delta_table(
    dt: DeltaTable,
    t: TermSet | Iterable[Term],
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> list[Decomposition]:
    """All minimum-size decompositions recoverable from the table.

    Only the keys that can tile T are scanned: those of nonzero arity,
    clean, whose covers together cover T.  For each such key W the
    pairs are grouped by cover; a branch and bound search picks groups
    that tile T.  Picking a group means taking every pattern associated
    with that cover, so |U| counts all of them.  Covers that leave some
    coordinate of W unused in every chosen pattern are discarded (the
    same decomposition already appears under the projected key).
    Results are sorted by (|W|, patterns, vectors) and deduplicated;
    only sizes equal to the global minimum survive.

    The covers are the table's bitmasks over ``dt.terms``, so ``t`` is
    looked up in the table's terms once, and never a cover.  The keys
    that cover T are scanned in ``_fold_order``, groups in the order of
    their sorted terms (ascending bit lists), and the search branches on
    the uncovered term in the fewest groups, the first in ``term_key``
    order on a tie.
    """
    target = frozenset(t.terms if isinstance(t, TermSet) else t)
    index = {x: i for i, x in enumerate(dt.terms)}
    if not target.issubset(index):
        return []  # no group covers a term outside the table
    full = 0
    for x in target:
        full |= 1 << index[x]

    covering = []
    for key, pairs in dt.pairs.items():
        union = 0
        for _, mask in pairs:
            union |= mask
        if union == full and _key_arity(key) and _key_is_clean(key):
            covering.append(key)

    best: float = math.inf
    found: set[Decomposition] = set()
    for key in _fold_order(covering):
        m = _key_arity(key)
        groups: dict[int, list[Term]] = {}
        for u, mask in dt.pairs[key]:
            groups.setdefault(mask, []).append(u)
        glist = [(_bits(mask), mask, us) for mask, us in groups.items()]
        glist.sort(key=itemgetter(0))
        by_term: list[list[int]] = [[] for _ in dt.terms]
        for gi, (bits, _, _) in enumerate(glist):
            for i in bits:
                by_term[i].append(gi)

        # Depth first with an explicit stack.  A node is (uncovered mask,
        # patterns chosen, depth, group chosen last), and chosen[:depth]
        # holds the groups chosen on the way to it.  Children are pushed
        # in reverse, so nodes are visited, and ``cancel`` runs, in the
        # order of a recursive search.
        base_cost = len(key)
        chosen: list[int] = []
        stack = [(full, 0, 0, -1)]
        while stack:
            uncovered, n_patterns, depth, gi = stack.pop()
            del chosen[depth:]
            if gi >= 0:
                chosen.append(gi)
            cancel()
            if not uncovered:
                u_set = frozenset(u for gi in chosen for u in glist[gi][2])
                used = set()
                for u in u_set:
                    used |= _pattern_var_indices(u)
                if used != set(range(1, m + 1)):
                    continue
                size = len(u_set) + base_cost
                if size > best:
                    continue
                if size < best:
                    best = size
                    found.clear()
                found.add(Decomposition(u=u_set, w=key))
                continue
            lower = n_patterns + math.ceil(uncovered.bit_count() / base_cost)
            if lower + base_cost > best:
                continue
            pivot = -1
            rest = uncovered
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                if pivot < 0 or len(by_term[i]) < len(by_term[pivot]):
                    pivot = i
                rest ^= low
            depth = len(chosen)
            for gi in reversed(by_term[pivot]):
                _, mask, us = glist[gi]
                stack.append(
                    (uncovered & ~mask, n_patterns + len(us), depth, gi)
                )

    results = [d for d in found if d.size == best]
    results.sort(key=Decomposition.sort_key)
    return results


def restrict_ci1(dt: DeltaTable) -> DeltaTable:
    """Keep only keys of vector arity one (single-variable search)."""
    return DeltaTable(
        pairs={k: v for k, v in dt.pairs.items() if _key_arity(k) == 1},
        terms=dt.terms,
    )

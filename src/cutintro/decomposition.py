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
2. ``DeltaTable.grow`` enumerates the subsets of T one size at a
   time, in ``term_key`` order, extending each subset of the last size
   by a later term, and indexes the results by witness-vector set (the
   key).  From the enumeration on, a subset (the pattern's cover) is an
   ``int`` bitmask, bit j standing for the j-th term in ``term_key``
   order.  A subset carries its pattern, mask and key, not its columns:
   many subsets share a pattern, so each (pattern, term) step is made
   once per build and remembered.  When the step keeps the pattern, the
   variables and so the columns stay as they are, and the child's key
   is the parent's grown by the new term's row; only when it
   generalizes the pattern is the key read off the subset's terms at
   the new variable paths.  A subset whose key is unclean (see below)
   is neither stored nor extended: every superset generalizes it, so
   its key is unclean too.  Each size is closed under arity-raising
   coordinate injections as it is added, so that patterns found at a
   smaller arity are also visible at every compatible larger key; a
   lifted pair keeps its cover's mask, and its key has as many rows as
   the source's.  A key tries only the injections whose first
   coordinate holds the first column of a smaller key of its size, and
   a size whose keys share one arity lifts nothing; a column is read
   into a set only when one of its terms is in such a first column.
   The table keeps the subsets of the last size it added, so it can
   grow by the next; ``build_delta_table`` adds the sizes up to
   ⌊√|T|⌋ + 1 terms.  A size is spent when it lifts nothing and no two
   of its subsets have keys equal up to column order (``_spent``); no
   later size but |T| then holds a key whose covers cover T.  So a
   table capped at |T| stops growing at its first spent size, and then
   adds only the key of the whole set, by one anti-unification over T.
   A table that would enumerate more than ``DELTA_ENTRIES_CAP`` subsets
   ends with ``LimitReached("delta_entries")``.
3. ``fold_delta_table`` scans the keys whose covers together cover T,
   the only ones that can tile it, in ascending |W|; it skips the others
   before sorting the keys into scan order.  Every pair under a key of
   k rows covers k terms, so a decomposition on that key has size at
   least k + ⌈|T|/k⌉; a key whose bound exceeds the best size found is
   skipped before its pairs are grouped.  For each other key it solves
   a set-cover problem: pick pattern groups whose covers tile T.
   Selection is by cover — a chosen mask contributes every pattern the
   table associates with it — which keeps the expansion property exact.
   The groups are the pairs of a key grouped by mask, so the fold looks
   up no cover's terms.  A key with more rows than the best found so
   far only counts when it does strictly better, so the fold returns
   the minimum-size decompositions of the least |W|, one class; a call
   with ``after`` gives the next.  The table is then grown one size at
   a time, and the new keys folded, while a larger size can still beat
   the best size found (or meet it, while none is found): branch and
   bound over the table's sizes, deepened one size at a time.  After a
   spent size only |T| is left, so a fold that finds nothing folds the
   whole set's key next.  Both search modes fold the same table: the
   single-variable mode (``ci1``) scans only the keys of arity one.

The walks of the anti-unifier and of the fold's search keep their
state in arguments and explicit stacks, not in self-referencing
closures, so a search leaves no reference cycles for the cyclic garbage
collector: what it allocates is freed by reference counting.

Keys whose vectors mention the reserved formula-tag heads are unclean
and never stored: a tag head inside W would smuggle formula structure into
the ground witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

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


Pair = tuple  # (pattern term, cover bitmask)


def _lift(new: dict[Key, Sequence[Pair]], cancel: Callable[[], None]) -> list:
    """The lifted copies of one size's pairs, as (key, pair), by key,
    source arity m₀, injection (in ``permutations`` order) and source
    pair.  A key of arity m tries only the injections whose first
    coordinate's column is the first column of a key of arity m₀ < m.
    A column is read into a set only when one of its terms is in the
    first column of such a key.  ``cancel`` runs once per key of arity
    two or more and per injection tried, unless all keys share one
    arity, when nothing can lift.
    """
    arity = {key: _key_arity(key) for key in new}
    top = max(arity.values(), default=0)
    sources = {
        (m, frozenset(r[0] for r in k)) for k, m in arity.items() if m < top
    }
    if not sources:
        return []
    firsts = {x for _, col in sources for x in col}
    lifted: list[tuple[Key, Pair]] = []
    for key, m in arity.items():
        if m < 2:
            continue
        cancel()
        row = next(iter(key))
        columns = {
            j: frozenset(r[j] for r in key)
            for j in range(m)
            if row[j] in firsts
        }
        for m0 in range(1, m):
            for j, column in columns.items():
                if (m0, column) not in sources:
                    continue
                rest = [i for i in range(m) if i != j]
                for tail in permutations(rest, m0 - 1):
                    inj = (j, *tail)
                    cancel()
                    projected = [tuple(r[i] for i in inj) for r in key]
                    if len(set(projected)) != len(key):
                        continue
                    for u0, mask in new.get(frozenset(projected), ()):
                        lifted.append(
                            (key, (_inject_pattern(u0, inj), mask))
                        )
    return lifted


def _spent(new: dict[Key, Sequence[Pair]]) -> bool:
    """Whether a size whose subset pass gave ``new``, and which lifts
    nothing, is spent: no two distinct covers have keys equal up to
    column order.  Keys equal up to column order have one arity and the
    same rows as sets, so the test compares those: it may miss a spent
    size, and never calls a size spent that is not.

    Claim: when a size s < |T| of the whole table is spent, so is every
    larger size, and no key of a size from s to |T| - 1 has covers that
    together cover T.

    Let S = u·K be a clean subset of k + 1 terms with key K, and S' the
    subset u·(K ∖ {w}) left by dropping a row w.  Every column of S' is
    a subterm of one of S, so S' is clean, and the subset pass of size
    k holds it: it holds every clean subset of k terms, since every
    subset of a clean subset is clean.  The pattern u uses every column
    of K, and the least general generalization of S' replaces each αⱼ
    of u by the generalization of column j of K ∖ {w}: two positions
    share a variable when their columns over K ∖ {w} are equal.  So up
    to column order the key of S' is read off K ∖ {w} alone, at its
    distinct columns.  Two subsets S₁ ≠ S₂ of one size give S₁' ≠ S₂'
    for some w: were S₁ ∖ S₂ the term of row w for each of the
    k + 1 ≥ 2 rows, two rows would name one term.  Now suppose the size
    k + 1 is not spent.

    - Two covers S₁ ≠ S₂ of k + 1 terms whose keys are equal up to
      column order: renaming the variables of u₂, both are over one K,
      and for such a w the keys of S₁' ≠ S₂' are equal up to column
      order, both read off K ∖ {w}.
    - A lifted pair: the key K of S = u·K takes the pattern of
      S₀ = u₀·K₀, where K₀ ≠ K is the image of K under an injective
      projection.  Drop w from K and its image from K₀, with w such
      that S' ≠ S₀'.  The distinct columns of the projection of
      K ∖ {w} are some of those of K ∖ {w}, so the key of S₀' is, up to
      column order, a projection of the key of S', injective since both
      have k distinct rows.  If it keeps every column the two keys are
      equal up to column order, and if not S₀' lifts into S''s key.

    Either way size k is not spent.  At a spent size every key has one
    cover, its own subset; below |T| that cover leaves a term out.  The
    one subset of |T| terms is T, whose key has one pair, its least
    general generalization; nothing lifts into a size of one key.
    """
    if any(len(found) > 1 for found in new.values()):
        return False
    shapes = set()
    for key in new:
        shape = (_key_arity(key), frozenset(map(frozenset, key)))
        if shape in shapes:
            return False
        shapes.add(shape)
    return True


# A step of ``DeltaTable._extend`` not made yet (None is a step that met
# a tagged column).
_UNMADE = object()

# The most subsets one Δ-table enumerates, clean or not, however far it
# grows; one more ends the growth with ``LimitReached("delta_entries")``.
# A set of at most 18 terms has fewer subsets than this.
DELTA_ENTRIES_CAP = 1 << 18


def _past_cap(n: int) -> LimitReached:
    return LimitReached("delta_entries", DELTA_ENTRIES_CAP, (
        f"delta_entries passed its cap of {DELTA_ENTRIES_CAP}: the subset "
        f"table of {n} terms would enumerate more subsets than that"
    ))


class DeltaTable:
    """Anti-unification results of the subsets with clean keys, indexed
    by witness key, built one subset size at a time.

    ``terms`` is the term set in ``term_key`` order.  ``pairs`` maps
    each key to a tuple of its distinct (pattern, cover) pairs, a cover
    being a bitmask over ``terms``: bit j stands for ``terms[j]``.  It
    holds the subsets of at most ``size`` terms; ``grow`` adds the next
    size, up to ``top``, the table's cap.

    The table grows from the clean subsets of ``size`` terms: the
    pattern, mask and key of each, in three parallel lists (a tuple per
    subset would be one more object for the cyclic collector to track).
    At size 0 they hold the empty subset.  A subset's pattern is the
    least general generalization of its terms, its variables numbered by
    first occurrence, and its key holds their witness rows.  The
    anti-unifier and the (pattern, term) step memo are kept for the life
    of the table, so each step is made once per table.
    ``_visited`` counts the subsets enumerated so far, against
    ``DELTA_ENTRIES_CAP``.

    ``spent`` tells that a size added was spent (see ``_spent``), which
    ``grow`` checks only when ``top`` is |T|.  No later size but |T| can
    then hold a key whose covers cover T, so the next ``grow`` adds only
    the key of the whole set, and the table reaches ``top``.
    """

    def __init__(
        self,
        terms: Iterable[Term],
        max_subset: Optional[int] = None,
    ) -> None:
        self.terms = tuple(sorted(set(terms), key=term_key))
        n = len(self.terms)
        self.top = n if max_subset is None else min(max_subset, n)
        self.size = 0
        self.spent = False
        self.pairs: dict[Key, tuple[Pair, ...]] = {}
        self._patterns: list = [None]
        self._masks: list[int] = [0]
        self._keys: list = [None]
        self._visited = 0
        self._au = _AntiUnifier()
        # _steps[u][j]: the step of pattern u with terms[j], once made.
        self._steps: dict[Term, list] = {}

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

    def grow(
        self, cancel: Callable[[], None] = NO_DEADLINE.poll
    ) -> Optional[list[Key]]:
        """Add the keys of the clean subsets of ``size + 1`` terms, closed
        under lifting; return those keys.  None, and nothing added, at
        ``top``.  After a spent size, add the key of the whole set
        instead, as ``_whole_set`` says.

        Every key of a size comes from subsets of that size, and lifting
        keeps the number of rows, so a size is whole once it is added: it
        takes no pair from a later size.  Only the pairs found by the
        subset pass are lifted, never lifted copies; no lifted pair
        repeats, since each lift has an arity of its own.  ``cancel`` runs
        once per subset visited, and in lifting as ``_lift`` says.
        """
        if self.size == self.top:
            return None
        if self.spent:
            return self._whole_set(cancel)
        new = self._extend(cancel)
        lifted = _lift(new, cancel)
        if self.size < self.top == len(self.terms) and not lifted:
            self.spent = _spent(new)
        for key, pair in lifted:
            found = new[key]
            if found.__class__ is tuple:
                found = new[key] = list(found)
            found.append(pair)

        # Each list is freed as its tuple replaces it.
        for key, found in new.items():
            if found.__class__ is list:
                new[key] = tuple(found)
        self.pairs.update(new)
        return list(new)

    def _whole_set(self, cancel: Callable[[], None]) -> list[Key]:
        """Grow to ``top``, |T|, by the key of T alone, the one key left
        that can cover T; return the keys added.  T is clean only if its
        first ``size`` terms are, and they are then the first subset the
        last size kept: its pattern is anti-unified with each later term
        in order, the steps ``_extend`` would make on its way to T.  The
        key is added with its one pair when it is clean.  When T is
        reached, it counts as one subset visited, and ``cancel`` runs
        once.
        """
        terms, au = self.terms, self._au
        first = self.size
        self.size = self.top
        if not self._masks or self._masks[0] != (1 << first) - 1:
            return []
        self._visited += 1
        if self._visited > DELTA_ENTRIES_CAP:
            raise _past_cap(len(terms))
        cancel()
        v = self._patterns[0]
        for t in terms[first:]:
            step = au.step(v, t)
            if step is None:
                return []
            v = step[0]
        key = frozenset(au.rows(v, terms))
        self.pairs[key] = ((v, (1 << len(terms)) - 1),)
        return [key]

    def _extend(self, cancel: Callable[[], None]) -> dict[Key, Sequence[Pair]]:
        """The (pattern, mask) pair of each subset of ``size + 1`` terms
        whose key is clean, by key, in lexicographic order of the
        subsets' bit lists; the table then grows from those subsets.  A
        key's pairs are a tuple while it has one, and a list from the
        second on: most keys of a large table have one pair, and a list
        each, frozen later, would be twice the objects for the cyclic
        collector to track.

        A subset is extended by one anti-unification step of its
        pattern with the new term.  When the step keeps the pattern, the
        new term's row joins the subset's key; the variables, and so the
        columns, are those of the subset.  When it generalizes the
        pattern, the key is read off the terms at the new pattern's
        variables.  A subset whose key is unclean is neither returned
        nor kept: every superset generalizes it, so its key is unclean
        too.  No pair repeats: each subset has a mask of its own.

        ``cancel`` runs once per subset visited, including those found
        unclean.
        """
        terms, au, steps = self.terms, self._au, self._steps
        n = len(terms)
        keep = self.size + 1 < self.top
        out: dict[Key, Sequence[Pair]] = {}
        patterns: list = []
        masks: list[int] = []
        keys: list = []
        visited = self._visited
        for u, mask, key in zip(self._patterns, self._masks, self._keys):
            # The terms after the subset's last one.
            first = mask.bit_length()
            visited += n - first
            if visited > DELTA_ENTRIES_CAP:
                raise _past_cap(n)
            row_steps = None
            if u is not None:
                row_steps = steps.get(u)
                if row_steps is None:
                    row_steps = steps[u] = [_UNMADE] * n
            for j in range(first, n):
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
                found = out.get(child_key)
                if found is None:
                    out[child_key] = ((v, child),)
                elif found.__class__ is tuple:
                    out[child_key] = [*found, (v, child)]
                else:
                    found.append((v, child))
                if keep and j + 1 < n:
                    patterns.append(v)
                    masks.append(child)
                    keys.append(child_key)
        self._visited = visited
        self.size += 1
        self._patterns, self._masks, self._keys = patterns, masks, keys
        return out


def build_delta_table(
    t: TermSet | Iterable[Term],
    max_subset: Optional[int] = None,
    limit: int = DEFAULT_TERMSET_LIMIT,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> DeltaTable:
    """Anti-unify the subsets of the term set and index by witness key.

    The subsets are enumerated one size at a time, up to ⌊√|T|⌋ + 1
    terms and at most ``max_subset``: a key of k rows gives a
    decomposition of size at least k + ⌈|T|/k⌉, least near k = √|T|, and
    ``fold_delta_table`` grows the table by the larger sizes that can
    still hold a decomposition of the class it looks for.  Without
    ``max_subset`` below |T|, a spent size among the first ends the
    enumeration, and the table then holds the whole set's key as well
    (``DeltaTable.grow``).  Only subsets with clean keys are stored; the
    enumeration never extends a subset whose key is unclean.
    Each size is closed under lifting as it is added: a pair found at a
    key of arity m₀ is copied to every key of arity m > m₀ that projects
    onto it injectively (coordinate selection keeping all rows
    distinct), with the pattern variables renamed to the selected
    coordinates.  Lifting only raises arity; it never permutes a key onto
    itself.  ``cancel`` runs as ``DeltaTable.grow`` says.
    """
    table = DeltaTable(t.terms if isinstance(t, TermSet) else t, max_subset)
    n = len(table.terms)
    if n > limit:
        raise LimitReached("termset_limit", limit, (
            f"term set has {n} terms; the subset table is limited "
            f"to {limit} (raise the limit explicitly to override)"
        ))
    while table.size < min(table.top, math.isqrt(n) + 1):
        table.grow(cancel)
    return table


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
    """``keys`` in scan order: by size |W|, then arity, then their rows
    sorted by ``tuple_key``.  Each witness term is ranked by ``term_key``
    once, and a row is coded as the number whose digits in base
    ``len(rank)`` are its ranks; rows of one arity compare as their
    codes, in the same order.  The order is total, so sorting a subset of
    the keys gives that subset in the order of the whole.
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
        return (len(k), _key_arity(k), tuple(sorted(map(code, k))))

    return sorted(keys, key=order)


def _search_key(
    dt: DeltaTable,
    key: Key,
    full: int,
    best: float,
    ties: bool,
    found: set[Decomposition],
    cancel: Callable[[], None],
) -> float:
    """Branch and bound over the groups of ``key``'s pairs for tilings
    of the terms in mask ``full``.  Each decomposition on ``key`` smaller
    than ``best``, or no larger with ``ties``, joins ``found``, which is
    emptied first when one is smaller; after that, ties count.  Returns
    the best size."""
    m = _key_arity(key)
    base_cost = len(key)
    # The largest size worth reaching: a node whose bound passes it is
    # pruned.
    limit = best if ties else best - 1
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
            if size > limit:
                continue
            if size < best:
                best = limit = size
                found.clear()
            found.add(Decomposition(u=u_set, w=key))
            continue
        lower = n_patterns + math.ceil(uncovered.bit_count() / base_cost)
        if lower + base_cost > limit:
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
    return best


def fold_delta_table(
    dt: DeltaTable,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
    after: Optional[Decomposition] = None,
    ci1: bool = False,
) -> list[Decomposition]:
    """The minimum-size decompositions of T = ``dt.terms`` recoverable
    from the table whose |W| is least: the first |W| class of the
    minimum, sorted by ``Decomposition.sort_key``.  With ``after``, a
    decomposition of minimum size b, the next class: the decompositions
    of size b with the least |W| above ``after``'s.  Each call, with
    ``after`` set to the last decomposition of the class before, gives
    the next class, and the classes joined are every minimum-size
    decomposition in ``sort_key`` order, which orders by |W| first.
    With ``ci1`` only the decompositions of arity one count, those of a
    single-variable cut formula: the scan takes the keys of one witness
    column alone, of the same table.

    One branch and bound, strict towards larger |W|.  Only the keys that
    can tile T are scanned, in ascending |W|: those of nonzero arity
    (one, with ``ci1``) whose covers together cover T (and, with
    ``after``, more rows than its W).  A key W of k rows gives a
    decomposition of size at least k + ⌈|T|/k⌉, since each of its pairs
    covers k terms.  A key of the |W| of the best found, or any key
    while nothing is found, takes the decompositions no larger than the
    best size (b, with ``after``); a key with a larger |W| takes only
    smaller ones, which replace the best.  A key whose bound passes what
    it may take is skipped before its pairs are grouped.  For every
    other key the pairs are grouped by cover; the search picks groups
    that tile T.  Picking a group means taking every pattern associated
    with that cover, so |U| counts all of them.  Covers that leave some coordinate of W unused in every chosen
    pattern are discarded (the same decomposition already appears under
    the projected key).

    The table is grown after the keys it holds are folded: by one subset
    size at a time, each folded in turn, while some size up to its cap
    can still be taken by that rule.  After a spent size the one size
    left to take is |T|, by the whole set's key (``DeltaTable.grow``).
    With nothing found, the table grows to its cap, by every size up to
    its first spent size and then by the whole set.  So the result is
    that of the whole table.

    The keys of each size step that cover T are scanned in
    ``_fold_order``, groups in the order of their sorted terms
    (ascending bit lists), and the search branches on the uncovered term
    in the fewest groups, the first in ``term_key`` order on a tie.
    ``cancel`` runs once per search node, the root of a skipped key
    included, and as ``DeltaTable.grow`` says for the sizes it adds.
    """
    n = len(dt.terms)
    full = (1 << n) - 1
    floor, best = (0, math.inf) if after is None else (len(after.w), after.size)
    max_arity = 1 if ci1 else math.inf
    found: set[Decomposition] = set()
    keys: Optional[list[Key]] = list(dt.pairs)
    while keys is not None:
        covering = []
        for key in keys:
            if len(key) <= floor or not 0 < _key_arity(key) <= max_arity:
                continue
            union = 0
            for _, mask in dt.pairs[key]:
                union |= mask
            if union == full:
                covering.append(key)

        for key in _fold_order(covering):
            k = len(key)
            # All found share one |W|, at most k: the scan ascends.
            ties = not found or len(next(iter(found)).w) == k
            if k + math.ceil(n / k) > (best if ties else best - 1):
                cancel()  # the root node, which the bound prunes
                continue
            best = _search_key(dt, key, full, best, ties, found, cancel)

        # Grow by one size while a larger one can still be taken: the
        # keys it adds may lower ``best``, and with it the sizes worth
        # building.  They have more rows than every key held.
        limit = best - 1 if found else best
        ahead = range(dt.size + 1, dt.top + 1)
        if dt.spent:
            ahead = ahead[-1:]
        keys = None
        if any(k + math.ceil(n / k) <= limit for k in ahead):
            keys = dt.grow(cancel)

    return sorted(found, key=Decomposition.sort_key)

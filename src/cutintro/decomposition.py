"""Decomposition search for encoded term sets.

A decomposition of a ground term set T is a pair (U, W): a set of
patterns U over variables α₁..α_m and a set of ground m-vectors W such
that instantiating every pattern with every vector yields exactly T.
Its size is |U| + |W|; finding a minimum-size decomposition is the
combinatorial core of cut introduction.

The search works in three stages:

1. ``delta_g`` anti-unifies a list of terms into the least general
   pattern together with the witness vectors (one per input term).
2. ``build_delta_table`` runs delta_g over every subset of T and indexes
   the results by witness-vector set, then closes the table under
   arity-raising coordinate injections so that patterns found at a
   smaller arity are also visible at every compatible larger key.
3. ``fold_delta_table`` scans each key and solves a set-cover problem:
   pick pattern groups whose covered subsets tile T.  Selection is by
   covered subset — a chosen subset contributes every pattern the table
   associates with it — which keeps the expansion property exact.

Keys whose vectors mention the reserved formula-tag heads are skipped:
a tag head inside W would smuggle formula structure into the ground
witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterable, Optional, Sequence

from .herbrand import TermSet
from .terms import (
    App,
    Term,
    alpha,
    alpha_index,
    is_tag_head,
    render_term,
    subst_term,
    tag_index,
    term_key,
    term_vars,
    tuple_key,
)


class TermSetTooLarge(Exception):
    """The subset enumeration would be astronomically large."""

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"term set has {size} terms; the subset table is limited to "
            f"{limit} (raise the limit explicitly to override)"
        )
        self.size = size
        self.limit = limit


DEFAULT_TERMSET_LIMIT = 22

Row = tuple  # ground instantiation vector, one term per variable
Key = frozenset  # of Row


@dataclass(frozen=True)
class SimpleDecomposition:
    """Least general pattern of a term list plus its witness vectors.

    ``rows[i]`` instantiates the pattern back to the i-th input term;
    variable αⱼ corresponds to coordinate j-1 of each row.
    """

    u: Term
    rows: tuple[Row, ...]

    @property
    def key(self) -> Key:
        return frozenset(self.rows)

    @property
    def arity(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def delta_g(terms: Sequence[Term]) -> SimpleDecomposition:
    """Anti-unify a nonempty term list.

    Positions where the terms disagree (and cannot be descended into
    because the heads differ) become variables; columns of identical
    disagreement are shared, numbered by first occurrence in the
    pattern.
    """
    ts = tuple(terms)
    if not ts:
        raise ValueError("delta_g needs at least one term")
    columns: list[tuple[Term, ...]] = []
    seen: dict[tuple[Term, ...], int] = {}

    def gen(col: tuple[Term, ...]) -> Term:
        first = col[0]
        if all(t == first for t in col):
            return first
        if isinstance(first, App) and all(
            isinstance(t, App)
            and t.head == first.head
            and len(t.args) == len(first.args)
            for t in col
        ):
            return App(
                first.head,
                tuple(
                    gen(tuple(t.args[j] for t in col))
                    for j in range(len(first.args))
                ),
            )
        idx = seen.get(col)
        if idx is None:
            idx = len(columns)
            seen[col] = idx
            columns.append(col)
        return alpha(idx + 1)

    u = gen(ts)
    rows = tuple(
        tuple(col[i] for col in columns) for i in range(len(ts))
    )
    return SimpleDecomposition(u, rows)


def _pattern_var_indices(u: Term) -> set[int]:
    return {alpha_index(v) for v in term_vars(u)}


def _row_is_clean(row: Row) -> bool:
    """True when no coordinate mentions a reserved formula-tag head."""
    return not any(t.tagged for t in row)


Pair = tuple  # (pattern term, frozenset of covered terms)


@dataclass(frozen=True)
class DeltaTable:
    """Anti-unification results of all subsets, indexed by witness key."""

    entries: dict  # Key -> frozenset[Pair]
    termset: frozenset
    max_subset: Optional[int]


def _key_arity(key: Key) -> int:
    return len(next(iter(key)))


def _inject_pattern(u: Term, injection: Sequence[int]) -> Term:
    """Rename αⱼ to the coordinate it is injected into (1-based)."""
    mapping = {
        alpha(j + 1).name: alpha(injection[j] + 1)
        for j in range(len(injection))
    }
    return subst_term(u, mapping)


def build_delta_table(
    t: TermSet | Iterable[Term],
    max_subset: Optional[int] = None,
    limit: int = DEFAULT_TERMSET_LIMIT,
    cancel: Optional[Callable[[], None]] = None,
) -> DeltaTable:
    """Anti-unify every subset of the term set and index by witness key.

    After the subset pass the table is closed under lifting: a pair
    found at a key of arity m₀ is copied to every key of arity m > m₀
    that projects onto it injectively (coordinate selection keeping all
    rows distinct), with the pattern variables renamed to the selected
    coordinates.  Lifting only raises arity; it never permutes a key
    onto itself.
    """
    terms = sorted(t.terms if isinstance(t, TermSet) else t, key=term_key)
    if len(terms) > limit:
        raise TermSetTooLarge(len(terms), limit)
    top = len(terms) if max_subset is None else min(max_subset, len(terms))

    table: dict[Key, set[Pair]] = {}
    for r in range(1, top + 1):
        for combo in combinations(terms, r):
            if cancel is not None:
                cancel()
            sd = delta_g(combo)
            table.setdefault(sd.key, set()).add(
                (sd.u, frozenset(combo))
            )

    # Lift only the pairs found by the subset pass, never lifted copies.
    native = {k: tuple(v) for k, v in table.items()}
    for key in list(table):
        m = _key_arity(key)
        if m < 2:
            continue
        rows = sorted(key, key=tuple_key)
        for m0 in range(1, m):
            for inj in permutations(range(m), m0):
                if cancel is not None:
                    cancel()
                projected = [tuple(row[i] for i in inj) for row in rows]
                if len(set(projected)) != len(rows):
                    continue
                src = native.get(frozenset(projected))
                if not src:
                    continue
                for u0, covered in src:
                    table[key].add((_inject_pattern(u0, inj), covered))

    frozen = {k: frozenset(v) for k, v in table.items()}
    return DeltaTable(
        entries=frozen, termset=frozenset(terms), max_subset=max_subset
    )


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

    def expand(self) -> frozenset:
        out = set()
        for u in self.u:
            for row in self.w:
                mapping = {
                    alpha(i + 1).name: row[i] for i in range(len(row))
                }
                out.add(subst_term(u, mapping))
        return frozenset(out)

    def sort_key(self) -> tuple:
        return (
            len(self.w),
            tuple(sorted(term_key(u) for u in self.u)),
            tuple(sorted(tuple_key(r) for r in self.w)),
        )

    def render(self) -> str:
        us = ", ".join(render_term(u) for u in sorted(self.u, key=term_key))
        ws = ", ".join(
            "(" + ", ".join(render_term(x) for x in row) + ")"
            for row in sorted(self.w, key=tuple_key)
        )
        return f"U = {{{us}}}  W = {{{ws}}}"


def validate_decomposition(
    d: Decomposition, t: TermSet | Iterable[Term]
) -> bool:
    """Exact expansion check: U instantiated with W reproduces T."""
    target = frozenset(t.terms if isinstance(t, TermSet) else t)
    if not d.u or not d.w:
        return False
    arities = {len(row) for row in d.w}
    if len(arities) != 1:
        return False
    (m,) = arities
    for row in d.w:
        for x in row:
            if term_vars(x):
                return False
    for u in d.u:
        if any(alpha_index(v) > m for v in term_vars(u)):
            return False
    return d.expand() == target


def fold_delta_table(
    dt: DeltaTable,
    t: TermSet | Iterable[Term],
    cancel: Optional[Callable[[], None]] = None,
) -> list[Decomposition]:
    """All minimum-size decompositions recoverable from the table.

    For each key W the pairs are grouped by covered subset; a branch and
    bound search picks groups that tile T.  Picking a group means taking
    every pattern associated with that covered subset, so |U| counts all
    of them.  Covers that leave some coordinate of W unused in every
    chosen pattern are discarded (the same decomposition already appears
    under the projected key).  Results are sorted by (|W|, patterns,
    vectors) and deduplicated; only sizes equal to the global minimum
    survive.
    """
    target = frozenset(t.terms if isinstance(t, TermSet) else t)
    best: list[float] = [math.inf]
    found: set[Decomposition] = set()

    for key in sorted(dt.entries, key=_key_sort):
        m = _key_arity(key)
        if m == 0:
            continue
        if not all(_row_is_clean(row) for row in key):
            continue
        groups: dict[frozenset, list[Term]] = {}
        for u, covered in dt.entries[key]:
            groups.setdefault(covered, []).append(u)
        if set().union(*groups) != target:
            continue
        glist = sorted(
            ((cov, tuple(sorted(us, key=term_key))) for cov, us in groups.items()),
            key=lambda g: tuple(sorted(term_key(x) for x in g[0])),
        )
        by_term: dict[Term, list[int]] = {x: [] for x in target}
        for gi, (cov, _) in enumerate(glist):
            for x in cov:
                by_term[x].append(gi)

        base_cost = len(key)
        chosen: list[int] = []

        def search(uncovered: frozenset, n_patterns: int) -> None:
            if cancel is not None:
                cancel()
            if not uncovered:
                u_set = frozenset(
                    u for gi in chosen for u in glist[gi][1]
                )
                used = set()
                for u in u_set:
                    used |= _pattern_var_indices(u)
                if used != set(range(1, m + 1)):
                    return
                size = len(u_set) + base_cost
                if size > best[0]:
                    return
                if size < best[0]:
                    best[0] = size
                    found.clear()
                found.add(Decomposition(u=u_set, w=key))
                return
            lower = n_patterns + math.ceil(len(uncovered) / len(key))
            if lower + base_cost > best[0]:
                return
            pivot = min(
                uncovered,
                key=lambda x: (len(by_term[x]), term_key(x)),
            )
            for gi in by_term[pivot]:
                cov, us = glist[gi]
                chosen.append(gi)
                search(uncovered - cov, n_patterns + len(us))
                chosen.pop()

        search(target, 0)

    results = [d for d in found if d.size == best[0]]
    results.sort(key=Decomposition.sort_key)
    return results


def _key_sort(key: Key) -> tuple:
    return (
        _key_arity(key),
        len(key),
        tuple(sorted(tuple_key(r) for r in key)),
    )


def restrict_ci1(dt: DeltaTable) -> DeltaTable:
    """Keep only keys of vector arity one (single-variable search)."""
    return DeltaTable(
        entries={
            k: v for k, v in dt.entries.items() if _key_arity(k) == 1
        },
        termset=dt.termset,
        max_subset=dt.max_subset,
    )


@dataclass(frozen=True)
class StructureDecomposition:
    """A termset decomposition split back into per-formula instance sets.

    ``u[i]`` holds the kᵢ₊₁-tuples for the (i+1)-th quantified formula;
    formulas with an empty prefix contribute nothing.
    """

    u: tuple  # of frozenset[tuple[Term, ...]]
    w: Key

    @property
    def arity(self) -> int:
        return _key_arity(self.w) if self.w else 0

    @property
    def size(self) -> int:
        return sum(len(ui) for ui in self.u) + len(self.w)


def to_structure_decomposition(
    d: Decomposition, q: int
) -> StructureDecomposition:
    """Split tagged patterns f_i(ū) into per-formula tuple sets."""
    per: list[set] = [set() for _ in range(q)]
    for u in d.u:
        if not isinstance(u, App) or not is_tag_head(u.head):
            raise ValueError(
                f"pattern {render_term(u)} is not a tagged formula instance"
            )
        i = tag_index(u.head)
        if not 1 <= i <= q:
            raise ValueError(
                f"pattern {render_term(u)} tags formula {i}, "
                f"but the sequent has {q}"
            )
        per[i - 1].add(u.args)
    return StructureDecomposition(
        u=tuple(frozenset(s) for s in per), w=d.w
    )

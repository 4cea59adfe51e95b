"""Anti-unification, the decomposition table, and minimal covers."""

from __future__ import annotations

import gc
import importlib.util
import inspect
import itertools
import math
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import cutintro.decomposition as decomposition
from cutintro.decomposition import (
    DEFAULT_TERMSET_LIMIT,
    DELTA_ENTRIES_CAP,
    Decomposition,
    DeltaTable,
    _AntiUnifier,
    build_delta_table,
    fold_delta_table,
)
from cutintro.herbrand import TermSet, decode_termset, encode_termset
from cutintro.limits import LimitReached
from cutintro.parser import parse_input
from cutintro.terms import (
    App,
    _table,
    alpha,
    const,
    render_term,
    subst_term,
    term_key,
    term_vars,
)

import gen
import oracles

a, b, c, d, e = (const(x) for x in "abcde")


def f(t):
    return App("f", (t,))


def s(t):
    return App("s", (t,))


def _g(x, y):
    return App("g", (x, y))


def _h(x, y):
    return App("h", (x, y))


def _power(fn, t, n):
    for _ in range(n):
        t = fn(t)
    return t


def _chain_termset(n):
    """The term set of P(c), ∀x (P(x) → P(f x)) ⊢ P(fⁿc): one tag."""
    return frozenset(App("#f2", (_power(f, const("c"), k),)) for k in range(n))


def _deep_chain(n=12, depth=40):
    """#f2(fᵏc) for k = depth .. depth + n - 1."""
    return [
        App("#f2", (_power(f, const("c"), depth + k),)) for k in range(n)
    ]


def _random_term_list(rng):
    """A shuffled list drawn from a tagged or an untagged term set, with
    a repeated term now and then."""
    if rng.random() < 0.5:
        ts = list(gen.random_tagged_term_set(rng, max_size=6))
    else:
        ts = list(gen.random_term_set(rng, max_size=6))
    if rng.random() < 0.2:
        ts.append(rng.choice(ts))
    rng.shuffle(ts)
    return ts


def _expand(u, rows):
    """{u} applied to every row, for checking decompositions by hand."""
    out = set()
    for row in rows:
        out.add(subst_term(u, {alpha(i + 1).name: row[i] for i in range(len(row))}))
    return out


def _tagged_rows(rows):
    """Whether a witness row mentions a reserved formula-tag head."""
    return any(x.tagged for row in rows for x in row)


def _clean_subsets(terms, top, cancel=lambda: None):
    """(key, pattern, mask) of each clean subset of at most ``top`` of
    ``terms``, one size after another, by the subset pass a table grows
    by, without lifting."""
    table = DeltaTable(terms, top)
    while table.size < table.top:
        for key, pairs in table._extend(cancel).items():
            for u, mask in pairs:
                yield key, u, mask


def _grown(terms, size=math.inf, max_subset=None):
    """The Δ-table of ``terms`` grown to subsets of ``size`` terms, or to
    its cap where that is smaller: by default the whole table.  Every
    size is added in full: no size is taken for spent."""
    table = DeltaTable(terms, max_subset)
    with mock.patch.object(decomposition, "_spent", lambda new: False):
        while table.size < size and table.grow() is not None:
            pass
    return table


def _classes(table, ci1=False):
    """The fold's |W| classes, joined through ``after``."""
    return oracles.joined_classes(
        lambda after: fold_delta_table(table, after=after, ci1=ci1)
    )


def _fold_calls(fold):
    """The classes of ``fold(after, cancel)`` joined, and the number of
    polls of each call."""
    polls = []

    def call(after):
        polls.append(0)

        def poll():
            polls[-1] += 1

        return fold(after, poll)

    return oracles.joined_classes(call), polls


def _same_fold_as_reference(table, ref, ts):
    """The classes of ``table``'s fold, joined, equal every minimum
    decomposition of the reference table; the package and the reference
    class search visit the same nodes in each call.  Returns the
    classes."""
    got = _fold_calls(
        lambda after, cancel: fold_delta_table(table, cancel, after)
    )
    want = _fold_calls(
        lambda after, cancel: oracles.reference_fold_class(
            ref, ts, after, cancel
        )
    )
    assert got == want
    assert got[0] == oracles.reference_fold_delta_table(ref, ts)
    return got[0]


def _subset(terms, mask):
    """The terms a cover bitmask stands for, bit j being ``terms[j]``."""
    return tuple(t for j, t in enumerate(terms) if mask >> j & 1)


class TestDeltaG:
    """Δ_G of a term list, its least general generalization and witness
    rows, by the package's anti-unifier one step per term."""

    def test_identical_terms_give_ground_pattern(self, anti_unify):
        assert anti_unify([f(a), f(a)]) == (f(a), ((), ()))

    def test_same_head_recurses(self, anti_unify):
        assert anti_unify([f(a), f(b)]) == (f(alpha(1)), ((a,), (b,)))

    def test_head_clash_generalizes_whole_column(self, anti_unify):
        assert anti_unify([f(a), s(a)]) == (alpha(1), ((f(a),), (s(a),)))

    def test_equal_columns_share_a_variable(self, anti_unify):
        t1 = App("g", (f(a), f(a)))
        t2 = App("g", (f(b), f(b)))
        u, rows = anti_unify([t1, t2])
        assert u == App("g", (f(alpha(1)), f(alpha(1))))
        assert rows == ((a,), (b,))

    def test_distinct_columns_get_distinct_variables(self, anti_unify):
        t1 = App("g", (a, b))
        t2 = App("g", (b, a))
        u, rows = anti_unify([t1, t2])
        assert u == App("g", (alpha(1), alpha(2)))
        assert rows == ((a, b), (b, a))

    def test_variables_numbered_by_first_occurrence(self, anti_unify):
        t1 = App("#f3", (s(s(s(f(f(a))))), a))
        t2 = App("#f3", (s(s(f(f(a)))), s(a)))
        u, rows = anti_unify([t1, t2])
        assert render_term(u) == "#f3(s(s(α1)), α2)"
        assert rows == ((s(f(f(a))), a), (f(f(a)), s(a)))

    def test_matches_independent_antiunifier(self, anti_unify):
        for seed in range(120):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            ts = [
                gen.random_ground_term(
                    rng, [("f", 1), ("g", 2), ("h", 1)], ["a", "b"], 3
                )
                for _ in range(n)
            ]
            assert anti_unify(ts) == oracles.antiunify(ts), f"seed {seed}"

    def test_matches_independent_antiunifier_tagged_and_in_any_order(
        self, anti_unify
    ):
        gave_up = 0
        for seed in range(300):
            ts = _random_term_list(random.Random(seed))
            got = anti_unify(ts)
            want = oracles.antiunify(ts)
            if got is None:
                # Only on a tagged column of the reference.
                assert _tagged_rows(want[1]), f"seed {seed}"
                gave_up += 1
            else:
                assert got == want, f"seed {seed}"
        assert 0 < gave_up < 300

    def test_frames_per_nesting_level(self, anti_unify):
        # Anti-unifying terms nested d deep may take at most two frames
        # per level, as the recursive column generalizer it replaced did.
        d = 300
        ts = [_power(f, a, d), _power(f, b, d)]
        here = len(inspect.stack(0))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(here + 2 * d + 50)
        try:
            got = anti_unify(ts)
        finally:
            sys.setrecursionlimit(old)
        assert got == (_power(f, alpha(1), d), ((a,), (b,)))

    def test_expansion_reproduces_input(self, anti_unify):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            ts = [
                gen.random_ground_term(
                    rng, [("f", 1), ("g", 2)], ["a", "b"], 3
                )
                for _ in range(n)
            ]
            u, rows = anti_unify(ts)
            for t, row in zip(ts, rows):
                mapping = {
                    alpha(i + 1).name: row[i] for i in range(len(row))
                }
                assert subst_term(u, mapping) == t, f"seed {seed}"
            assert len(set(rows)) <= len(ts)
            assert term_vars(u) == {
                alpha(i + 1).name for i in range(len(rows[0]))
            }


class TestDeltaTable:
    def test_golden_key_count(self, golden_table, golden_termset):
        # Only clean keys are stored: all 2¹² - 1 subsets give 4023 keys,
        # of which 198 mention no tag head in their vectors.
        assert len(golden_table.entries) == 198
        reference = oracles.reference_build_delta_table(golden_termset.terms)
        assert len(reference.entries) == 4023
        assert len(oracles.reference_clean_entries(reference)) == 198

    def test_enumeration_stores_delta_g_of_each_clean_subset(
        self, golden_termset
    ):
        sets = [golden_termset.terms, _chain_termset(6)]
        for s in range(40):
            sets.append(gen.random_tagged_term_set(random.Random(s)))
            sets.append(gen.random_term_set(random.Random(s)))
        # Tagged and untagged terms mixed: a tagged pattern meets an
        # untagged term.
        sets += [
            gen.random_tagged_term_set(random.Random(s), max_size=4)
            | gen.random_term_set(random.Random(s), max_size=3)
            for s in range(40)
        ]
        for ts in sets:
            terms = sorted(ts, key=term_key)
            stored = set()
            for key, u, mask in _clean_subsets(terms, len(terms)):
                assert 0 < mask < 1 << len(terms)
                subset = _subset(terms, mask)
                ref_u, ref_rows = oracles.antiunify(subset)
                assert (u, key) == (ref_u, frozenset(ref_rows))
                stored.add(subset)
            clean = {
                combo
                for r in range(1, len(terms) + 1)
                for combo in itertools.combinations(terms, r)
                if not _tagged_rows(oracles.antiunify(combo)[1])
            }
            assert stored == clean

    def test_unclean_subsets_are_visited_but_not_extended(self):
        ts = [App("#f1", (a,)), App("#f2", (a,)), App("#f2", (b,))]
        polls = []
        got = list(_clean_subsets(ts, 3, lambda: polls.append(1)))
        assert {_subset(ts, mask) for _, _, mask in got} == {
            (ts[0],), (ts[1],), (ts[2],), (ts[1], ts[2])
        }
        # Three singletons and three pairs are visited.  Both pairs with
        # #f1(a) have a tagged column, so the triple is never visited.
        assert len(polls) == 6

    def test_equals_reference_table_and_fold(self, golden_termset):
        sets = [golden_termset.terms]
        sets += [_chain_termset(n) for n in range(7, 12)]
        sets += [gen.random_term_set(random.Random(s)) for s in range(200)]
        sets += [
            gen.random_tagged_term_set(random.Random(s)) for s in range(300)
        ]
        for i, ts in enumerate(sets):
            ref = oracles.reference_build_delta_table(ts)
            table = _grown(ts)
            assert table.entries == oracles.reference_clean_entries(ref), i
            # The same search nodes, in the bitmask fold and the old one.
            _same_fold_as_reference(table, ref, ts)

    @pytest.mark.parametrize("seed", [180, 624, 1095])
    def test_fold_visits_the_reference_nodes(self, seed):
        # Eleven-term sets on which scanning a key's groups in another
        # order (by bitmask value, say) changes the number of nodes.
        ts = gen.random_tagged_term_set(random.Random(seed), max_size=11)
        ref = oracles.reference_build_delta_table(ts)
        _same_fold_as_reference(_grown(ts), ref, ts)

    def test_every_pair_expands_to_its_cover(self, golden_table):
        checked = 0
        for key, pairs in golden_table.entries.items():
            for u, covered in pairs:
                assert _expand(u, key) >= set(covered)
                checked += 1
                if checked >= 500:
                    return

    def test_keys_are_row_sets_of_their_pairs(self, golden_table):
        for key, pairs in list(golden_table.entries.items())[:200]:
            assert isinstance(key, frozenset)
            assert all(isinstance(row, tuple) for row in key)
            assert pairs

    def test_lifting_adds_higher_arity_patterns(self):
        # {f(a), f(b)} anti-unifies natively at arity 1; the lifted pair
        # embeds those rows into two-column keys that project onto them.
        ts = frozenset({f(a), f(b), App("g", (a, b)), App("g", (b, a))})
        dt = build_delta_table(ts)
        two_col = frozenset({(a, b), (b, a)})
        assert two_col in dt.entries
        lifted = {u for u, _ in dt.entries[two_col]}
        assert f(alpha(1)) in lifted or f(alpha(2)) in lifted

    def test_max_subset_limits_native_subsets(self, golden_termset):
        small = build_delta_table(golden_termset, max_subset=2)
        full = _grown(golden_termset.terms)
        assert len(small.entries) <= len(full.entries)
        for m in (1, 2, 3):
            ref = oracles.reference_build_delta_table(golden_termset.terms, m)
            assert _grown(
                golden_termset.terms, max_subset=m
            ).entries == oracles.reference_clean_entries(ref)

    def test_termset_limit(self):
        ts = frozenset(
            App("c%d" % i, ()) for i in range(DEFAULT_TERMSET_LIMIT + 1)
        )
        with pytest.raises(LimitReached) as exc:
            build_delta_table(ts)
        assert exc.value.meter == "termset_limit"
        assert exc.value.cap == DEFAULT_TERMSET_LIMIT
        assert str(exc.value).startswith(
            f"term set has {DEFAULT_TERMSET_LIMIT + 1} terms;"
        )

    def test_delta_entries_meter(self, monkeypatch, golden_termset):
        # A chain: every subset is clean, so all 2⁸ - 1 are enumerated,
        # and no size below the whole set is spent.
        ts = _chain_termset(8)
        monkeypatch.setattr(decomposition, "DELTA_ENTRIES_CAP", 255)
        table = DeltaTable(ts)
        while table.grow() is not None:
            assert not table.spent
        assert table._visited == 255
        monkeypatch.setattr(decomposition, "DELTA_ENTRIES_CAP", 254)
        with pytest.raises(LimitReached) as exc:
            _grown(ts)
        assert (exc.value.meter, exc.value.cap) == ("delta_entries", 254)
        # The table counts the subsets of every size it adds, also those
        # the fold grows it by: the bundled example's is built to 4 terms,
        # and the fold grows it to 7, short of its spent size 8.
        monkeypatch.setattr(decomposition, "DELTA_ENTRIES_CAP", 1 << 18)
        table = build_delta_table(golden_termset)
        built = table._visited
        fold_delta_table(table)
        assert (table.size, table.spent) == (7, False)
        monkeypatch.setattr(
            decomposition, "DELTA_ENTRIES_CAP", table._visited - 1
        )
        assert build_delta_table(golden_termset)._visited == built
        with pytest.raises(LimitReached) as exc:
            fold_delta_table(build_delta_table(golden_termset))
        assert exc.value.meter == "delta_entries"

    def test_delta_entries_cap_admits_eighteen_terms(self):
        assert (1 << 18) - 1 <= DELTA_ENTRIES_CAP < (1 << 19) - 1

    def test_cancel_hook_runs(self, golden_termset):
        class Stop(Exception):
            pass

        calls = [0]

        def cancel():
            calls[0] += 1
            if calls[0] > 50:
                raise Stop()

        with pytest.raises(Stop):
            build_delta_table(golden_termset, cancel=cancel)


def _grown_by(monkeypatch, lift, terms, max_subset=None):
    """The whole Δ-table of ``terms``, each size lifted by ``lift``."""
    with monkeypatch.context() as patch:
        patch.setattr(decomposition, "_lift", lift)
        return _grown(terms, max_subset=max_subset)


class _Stop(Exception):
    pass


def _stop_at(n):
    """A ``cancel`` that raises ``_Stop`` on its n-th call."""
    calls = itertools.count(1)

    def cancel():
        if next(calls) == n:
            raise _Stop()

    return cancel


class TestLifting:
    """Each size lifts through an index of its keys' first columns; the
    lifted pairs, and their order, are those of trying every injection
    (``oracles.reference_lift``)."""

    # f(a), f(b) give the arity-1 key {(a,), (b,)}; g(a, b), g(b, a) the
    # arity-2 key {(a, b), (b, a)}, which lifts it, and h(c, d, e),
    # h(d, e, c) an arity-3 key that lifts nothing.
    MIXED = [
        f(a), f(b), _g(a, b), _g(b, a),
        App("h", (c, d, e)), App("h", (d, e, c)),
    ]

    def test_same_pairs_in_the_same_order(self, monkeypatch, golden_termset):
        lifts = []

        def recording(new, cancel):
            out = oracles.reference_lift(new, cancel)
            lifts.extend(out)
            return out

        sets = [golden_termset.terms, self.MIXED]
        sets += [
            gen.random_tagged_term_set(random.Random(s), 8, max_width=4)
            for s in range(240)
        ]
        for i, ts in enumerate(sets):
            for max_subset in (None, 2):
                ref = _grown_by(monkeypatch, recording, ts, max_subset)
                table = _grown(ts, max_subset=max_subset)
                assert list(table.pairs.items()) == list(ref.pairs.items()), i
        # Some pairs lift from arity two to arity three or four, where
        # an injection's first coordinate leaves others to choose.
        wide = [
            (key, u) for key, (u, _) in lifts
            if len(next(iter(key))) >= 3 and len(term_vars(u)) >= 2
        ]
        assert len(wide) >= 20
        assert len(lifts) >= 200

    def test_size_of_one_arity_polls_only_its_subsets(self):
        # #f1(cᵢ, dᵢ) with all cᵢ and dᵢ distinct: every subset of two or
        # more terms has the key of #f1(α1, α2), which
        # ``oracles.reference_lift`` polls twice.
        ts = [
            App("#f1", (const(f"c{i}"), const(f"d{i}"))) for i in range(6)
        ]
        table = DeltaTable(ts)
        while True:
            polls, visited = [], table._visited
            keys = table.grow(lambda: polls.append(1))
            if keys is None:
                break
            assert {len(next(iter(k))) for k in keys} == {
                0 if table.size == 1 else 2
            }
            assert len(polls) == table._visited - visited
        # The same on random sets, in every size whose keys share an
        # arity; the sizes that hold two arities poll more.
        mixed = 0
        for s in range(120):
            ts = gen.random_tagged_term_set(random.Random(s), 8, max_width=4)
            table = DeltaTable(ts)
            while True:
                polls, visited = [], table._visited
                keys = table.grow(lambda: polls.append(1))
                if keys is None:
                    break
                extra = len(polls) - (table._visited - visited)
                if len({len(next(iter(k))) for k in keys}) == 1:
                    assert extra == 0, s
                else:
                    mixed += extra > 0
        assert mixed >= 20

    def test_deadline_strikes_at_every_poll(self, monkeypatch):
        ts = self.MIXED
        ref_polls, polls = [], []
        with monkeypatch.context() as patch:
            patch.setattr(decomposition, "_lift", oracles.reference_lift)
            build_delta_table(ts, cancel=lambda: ref_polls.append(1))
        whole = build_delta_table(ts, cancel=lambda: polls.append(1))
        visited = whole._visited
        # The lifting pass polls, but less than trying every injection.
        assert visited < len(polls) < len(ref_polls)
        for n in range(1, len(ref_polls) + 1):
            if n <= len(polls):
                with pytest.raises(_Stop):
                    build_delta_table(ts, cancel=_stop_at(n))
            else:
                table = build_delta_table(ts, cancel=_stop_at(n))
                assert table.pairs == whole.pairs


def _visited(terms, top):
    """How many subsets the enumeration visits: those of at most ``top``
    terms whose subset without its last term is empty or has a clean
    key, by the independent anti-unifier."""
    count = 0
    for r in range(1, top + 1):
        for combo in itertools.combinations(terms, r):
            parent = combo[:-1]
            if not parent or not _tagged_rows(oracles.antiunify(parent)[1]):
                count += 1
    return count


class TestSubsetWalk:
    """The enumeration carries each subset's pattern, mask and key; a
    step of a pattern with a term is made once per build, and a key is
    the parent's grown by one row unless the step generalizes the
    pattern.  Checked against the reference table, built by
    anti-unifying every subset from scratch, and its fold."""

    # h(f(x), c) for x = a, b, d, e, then h(g(a), c) and h(g(b), d):
    # the pattern h(f(α1), c) is kept for three steps, and then
    # generalized twice (to h(α1, c), then to h(α1, α2)).
    STABLE_THEN_GENERALIZED = [
        *(_h(f(x), c) for x in (a, b, d, e)),
        _h(App("g", (a,)), c),
        _h(App("g", (b,)), d),
        _h(App("g", (d,)), e),
    ]

    # g(a, a), g(b, b) share one variable; g(a, b) splits it, g(c, c)
    # is then a kept step whose row repeats a term.
    REPEATED_COLUMNS = [_g(a, a), _g(b, b), _g(a, b), _g(c, c), _g(b, a)]

    def _check(self, ts, max_subset=None):
        ts = frozenset(ts)
        terms = sorted(ts, key=term_key)
        top = len(terms) if max_subset is None else min(max_subset, len(terms))
        polls = []
        for _ in _clean_subsets(terms, top, lambda: polls.append(1)):
            pass
        assert len(polls) == _visited(terms, top)
        ref = oracles.reference_build_delta_table(ts, max_subset)
        table = _grown(ts, max_subset=max_subset)
        assert table.entries == oracles.reference_clean_entries(ref)
        return _same_fold_as_reference(table, ref, ts)

    def test_steps_keep_then_generalize_the_pattern(self):
        ts = self.STABLE_THEN_GENERALIZED
        au = _AntiUnifier()
        u, kept = ts[0], []
        for t in ts[1:]:
            v, row = au.step(u, t)
            kept.append(row is not None)
            if row is not None:
                assert v is u
                assert _expand(u, [row]) == {t}
            u = v
        assert kept == [False, True, True, False, False, True]
        assert u == _h(alpha(1), alpha(2))
        assert self._check(ts)

    def test_repeated_columns(self, anti_unify):
        ts = self.REPEATED_COLUMNS
        au = _AntiUnifier()
        u, row = au.step(ts[0], ts[1])
        assert u == _g(alpha(1), alpha(1)) and row is None
        assert au.rows(u, ts[:2]) == ((a,), (b,))
        v, row = au.step(u, ts[2])
        assert v == _g(alpha(1), alpha(2)) and row is None
        assert au.step(v, ts[3]) == (v, (c, c))
        for k in range(1, len(ts) + 1):
            assert anti_unify(ts[:k]) == oracles.antiunify(ts[:k]), k
        self._check(ts)

    @pytest.mark.parametrize("max_subset", [1, 2, 3])
    def test_max_subset(self, max_subset):
        sets = [self.STABLE_THEN_GENERALIZED, self.REPEATED_COLUMNS]
        sets += [gen.random_tagged_term_set(random.Random(s)) for s in range(30)]
        sets += [gen.random_term_set(random.Random(s)) for s in range(30)]
        for ts in sets:
            self._check(ts, max_subset)


class TestFold:
    def test_golden_minimum_is_unique_and_size_ten(
        self, golden_decompositions
    ):
        assert len(golden_decompositions) == 1
        d = golden_decompositions[0]
        assert d.size == 10
        assert len(d.u) == 8
        assert len(d.w) == 2
        assert d.arity == 2

    def test_golden_witness_rows(self, golden_decompositions):
        d = golden_decompositions[0]
        ffa = f(f(a))
        assert d.w == frozenset({(a, ffa), (ffa, a)})

    def test_golden_validates(self, golden_decompositions, golden_termset):
        assert oracles.validate_decomposition(
            golden_decompositions[0], golden_termset.terms
        )

    def test_golden_pattern_shapes(self, golden_decompositions):
        rendered = sorted(
            render_term(u) for u in golden_decompositions[0].u
        )
        assert rendered == [
            "#f2(f(α1))",
            "#f2(f(α2))",
            "#f2(α1)",
            "#f2(α2)",
            "#f3(s(s(s(α1))), α2)",
            "#f3(s(s(α1)), s(α2))",
            "#f3(s(α1), s(s(α2)))",
            "#f3(α1, s(s(s(α2))))",
        ]

    def test_results_sorted_and_deterministic(self, golden_termset):
        once = fold_delta_table(build_delta_table(golden_termset))
        twice = fold_delta_table(build_delta_table(golden_termset))
        assert once == twice

    def test_matches_exhaustive_search(self):
        for seed in range(60):
            rng = random.Random(seed)
            ts = gen.random_term_set(rng)
            decs = _classes(build_delta_table(ts))
            bmin, bbest = oracles.brute_min_decompositions(ts)
            got_min = decs[0].size if decs else None
            assert got_min == bmin, f"seed {seed}"
            if decs:
                assert {(d.u, d.w) for d in decs} == set(bbest), f"seed {seed}"

    def test_all_results_validate(self):
        for seed in range(40):
            rng = random.Random(500 + seed)
            ts = gen.random_term_set(rng)
            for d in _classes(build_delta_table(ts)):
                assert oracles.validate_decomposition(d, ts), f"seed {seed}"

    def test_fold_does_not_depend_on_term_identity(self):
        # The terms built again, in another order, and each term twice:
        # the table is of the term set.
        terms = _deep_chain()
        expected = oracles.reference_fold_delta_table(_grown(terms), terms)
        assert expected
        shuffled = _deep_chain()
        random.Random(3).shuffle(shuffled)
        twice = build_delta_table(terms + shuffled)
        assert twice.terms == tuple(sorted(terms, key=term_key))
        assert _classes(twice) == expected

    def test_dead_terms_leave_the_term_table(self):
        # The patterns and columns the search built die with its results.
        gc.collect()
        before = len(_table)
        terms = _deep_chain()
        table = build_delta_table(terms)
        decs = fold_delta_table(table)
        assert decs and len(_table) > before
        del terms, table, decs
        gc.collect()
        assert len(_table) == before

    @staticmethod
    def _peak(size):
        """Traced peak bytes of a table of ``_deep_chain()`` grown to
        ``size`` terms and folded."""
        terms = _deep_chain()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            decs = fold_delta_table(_grown(terms, size))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert decs
        return peak

    def test_build_and_fold_peak_memory(self):
        # Covers are bitmasks from the enumeration on.  With a frozenset
        # of terms per pair the peak here was 7.4 MB, with bitmasks 4.0 MB
        # (Python 3.11).
        assert self._peak(math.inf) < 5_000_000

    def test_grown_build_and_fold_peak_memory(self):
        # Built to 4 terms, as build_delta_table builds 12; the fold grows
        # it no further, since the minimum is 7 and 5 + ⌈12/5⌉ = 8.  0.2 MB
        # here, against 1.7 MB for the whole table (Python 3.11).
        assert self._peak(4) < 500_000

    def test_singleton_set_has_no_decomposition(self):
        ts = frozenset({App("#f1", (a,))})
        assert fold_delta_table(build_delta_table(ts)) == []


class TestNoReferenceCycles:
    """The anti-unifier's walk and the fold's search keep their state in
    arguments and explicit stacks, so no call leaves a reference cycle
    (each left one per subset or key, which only a collection frees)."""

    def test_build_and_fold_one_tag(self, leaves_no_cycles):
        ts = _chain_termset(10)
        decs = leaves_no_cycles(
            lambda: fold_delta_table(build_delta_table(ts))
        )
        assert decs

    def test_build_and_fold_multi_tag_arity_two(
        self, golden_termset, leaves_no_cycles
    ):
        table = leaves_no_cycles(lambda: build_delta_table(golden_termset))
        assert len({t.head for t in table.terms}) > 1
        assert any(len(next(iter(k))) == 2 for k in table.pairs)
        decs = leaves_no_cycles(lambda: fold_delta_table(table))
        assert [d.arity for d in decs] == [2]

    def test_grown_table(self, leaves_no_cycles):
        ts = _chain_termset(12)
        table = leaves_no_cycles(lambda: _grown(ts, 2))
        decs = leaves_no_cycles(lambda: fold_delta_table(table))
        # Size 7, met by keys of 3 and 4 rows only.  Those of 3 come
        # first, and 4 + ⌈12/4⌉ = 7 only ties, so the table does not grow
        # to 4 terms until the next class is asked for.
        assert {(d.size, len(d.w)) for d in decs} == {(7, 3)}
        assert max(map(len, table.pairs)) == 3
        more = leaves_no_cycles(
            lambda: fold_delta_table(table, after=decs[-1])
        )
        assert {(d.size, len(d.w)) for d in more} == {(7, 4)}
        assert max(map(len, table.pairs)) == 4

    def test_delta_g(self, leaves_no_cycles):
        # The Δ-table of terms 40 to 51 deep holds Δ_G of the whole list.
        table = leaves_no_cycles(lambda: _grown(_deep_chain()))
        whole = frozenset((_power(f, c, k),) for k in range(12))
        pattern = App("#f2", (_power(f, alpha(1), 40),))
        assert (pattern, (1 << 12) - 1) in table.pairs[whole]


def _folds(ts, max_subset=None, ci1=False, size=None):
    """The fold's classes, joined, of the whole table and of one grown
    to ``size`` terms (built by ``build_delta_table``, to ⌊√|T|⌋ + 1, by
    default) and grown by the fold; and the grown table.  With ``ci1``
    the folds are those of the single-variable mode."""
    full = _grown(ts, max_subset=max_subset)
    if size is None:
        grown = build_delta_table(ts, max_subset=max_subset)
    else:
        grown = _grown(ts, size, max_subset)
    return _classes(full, ci1), _classes(grown, ci1), grown


class TestBoundedFold:
    """A table built to a few terms per subset and grown by the fold,
    only by the sizes k with k + ⌈|T|/k⌉ below the best size found (or
    no more than it, while none is found), gives the decompositions of
    the whole table, class by class."""

    def test_bundled_example(self, golden_termset, golden_decompositions):
        ts = golden_termset.terms
        full, grown, table = _folds(ts)
        assert full == grown == golden_decompositions
        # Size 10 with |W| = 2.  The first class grows the table while
        # k + ⌈12/k⌉ < 10, to k = 7; the call for the next class, which
        # finds none, while it is ≤ 10, to k = 8.
        assert max(map(len, table.pairs)) == 8
        first = build_delta_table(ts)
        fold_delta_table(first)
        assert first.size == 7
        for max_subset in (None, 1, 2, 3):
            full, grown, _ = _folds(ts, max_subset, ci1=True)
            assert full == grown == [], max_subset
            full, grown, _ = _folds(ts, max_subset)
            assert full == grown, max_subset

    def test_chains(self):
        for n in range(7, 19):
            full, grown, table = _folds(_chain_termset(n))
            assert full and grown == full, n
            assert table.size < n, n

    def test_chain16_grows_no_further_than_its_bound(self):
        table = build_delta_table(_chain_termset(16))
        assert table.size == 5
        decs = fold_delta_table(table)
        # Size 8, and 5 + ⌈16/5⌉ = 9.
        assert decs[0].size == 8
        assert max(map(len, table.pairs)) == 5
        assert table.size == 5

    def test_random_sets(self):
        found = 0
        for seed in range(600):
            rng = random.Random(seed)
            ts = (
                gen.random_tagged_term_set(rng)
                if seed % 2
                else gen.random_term_set(rng)
            )
            found += bool(fold_delta_table(build_delta_table(ts)))
            # Also from below ⌊√|T|⌋, where the bound still falls as k
            # grows.
            for size in (None, seed % 3):
                for max_subset in (None, 1, 2, 3):
                    for ci1 in (False, True):
                        full, grown, _ = _folds(ts, max_subset, ci1, size)
                        assert grown == full, (seed, size, max_subset, ci1)
        # 289 of the sets have a decomposition and 311 have none.
        assert 100 < found < 500

    def test_every_key_is_clean(self):
        unclean = 0
        for seed in range(300):
            ts = gen.random_tagged_term_set(random.Random(seed))
            whole = _grown(ts)
            grown = _grown(ts, 1)
            fold_delta_table(grown)
            for table in (whole, grown):
                assert table.entries == oracles.reference_clean_entries(
                    table
                ), seed
            if seed < 30:
                ref = oracles.reference_build_delta_table(ts)
                unclean += len(ref.entries) > len(whole.entries)
        # The sets do have subsets whose keys are unclean.
        assert unclean > 10


def _workload_term_sets():
    """The distinct term sets of the benchmark's workload structures
    (``perfbench/gen.py``, read by path: it imports nothing from the
    package), by structure name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_workload_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
        sets = {}
        for workload in module.WORKLOADS:
            for st in module.structures(workload):
                ts = encode_termset(parse_input(st.text)[1]).terms
                sets.setdefault(ts, st.base)
    finally:
        del sys.modules[spec.name]
    return {name: ts for ts, name in sets.items()}


class TestFoldClasses:
    """The fold returns the minimum decompositions one |W| class at a
    time: the first call the least |W|, each call with ``after`` the
    next, and the classes joined are every minimum decomposition in
    ``sort_key`` order, the list of the search that keeps all ties."""

    @staticmethod
    def _check(ts):
        whole = oracles.reference_build_delta_table(ts)
        for ref, max_subset, ci1 in (
            (whole, None, False),
            (oracles.arity_one(whole), None, True),
            (oracles.reference_build_delta_table(ts, 2), 2, False),
        ):
            expected = oracles.reference_fold_delta_table(ref, ts)
            least = [d for d in expected if len(d.w) == len(expected[0].w)]
            table = build_delta_table(ts, max_subset=max_subset)
            assert fold_delta_table(table, ci1=ci1) == least, (max_subset, ci1)
            assert _classes(table, ci1) == expected, (max_subset, ci1)

    def test_generated_sets(self):
        several = 0
        for seed in range(1000):
            rng = random.Random(seed)
            ts = (
                gen.random_tagged_term_set(rng)
                if seed % 2
                else gen.random_term_set(rng)
            )
            self._check(ts)
            decs = _classes(build_delta_table(ts))
            several += len({len(d.w) for d in decs}) > 1
        # Sets whose minimum comes in more than one class.
        assert several > 20

    def test_workload_structures_and_bundled_example(self, golden_termset):
        sets = _workload_term_sets()
        assert {"chain13", "spread-noise12", "lemma-r2-h0"} <= set(sets)
        for ts in [*sets.values(), golden_termset.terms]:
            self._check(ts)

    def test_chain_classes(self):
        # chain13: 70 minimum decompositions, 16 of them in the first
        # class.
        table = build_delta_table(_chain_termset(13))
        first = fold_delta_table(table)
        assert len(first) == 16
        assert len(_classes(table)) == 70


def _spent_at(ts):
    """The first size a table of ``ts`` finds spent, or None."""
    table = DeltaTable(ts)
    while table.grow() is not None:
        if table.spent:
            return table.size
    return None


def _covering_sizes(table):
    """The sizes of the keys of ``table`` of nonzero arity whose covers
    cover its terms: the keys the fold scans."""
    full = (1 << len(table.terms)) - 1
    sizes = set()
    for key, pairs in table.pairs.items():
        if key == {()}:
            continue
        union = 0
        for _, mask in pairs:
            union |= mask
        if union == full:
            sizes.add(len(key))
    return sizes


class TestSpentSizes:
    """After a spent size no size of the whole table but |T| holds a key
    whose covers cover T (``decomposition._spent``), so the table adds
    only the whole set's key, and the fold is that of the whole table."""

    @staticmethod
    def _check(ts):
        """Whether a size of ``ts`` is spent below |T|; asserts the claim
        on the whole table, and that the fold of the table that stops
        equals the reference fold of the whole table, under cistar,
        ``ci1`` (whose reference folds the keys of arity one) and
        ``max_subset=2``."""
        n = len(ts)
        at = _spent_at(ts)
        if at is not None:
            assert all(k < at or k == n for k in _covering_sizes(_grown(ts)))
        for max_subset, ci1 in ((None, False), (None, True), (2, False)):
            whole = _grown(ts, max_subset=max_subset)
            ref = oracles.arity_one(whole) if ci1 else whole
            expected = oracles.reference_fold_delta_table(ref, ts)
            table = build_delta_table(ts, max_subset=max_subset)
            assert _classes(table, ci1) == expected, (max_subset, ci1)
            if at is not None and max_subset is None:
                # Grown past the spent size only by the whole set.
                assert all(len(k) <= at or len(k) == n for k in table.pairs)
        return at is not None and at < n

    def test_generated_sets(self):
        spent = 0
        for seed in range(2000):
            rng = random.Random(seed)
            ts = (
                gen.random_tagged_term_set(rng)
                if seed % 2
                else gen.random_term_set(rng)
            )
            spent += self._check(ts)
        # 1 559 of the sets have a spent size below |T|.
        assert 1000 < spent < 1900

    def test_larger_generated_sets(self):
        # Up to 12 terms, tags of up to three arguments.
        spent = 0
        for seed in range(200):
            rng = random.Random(seed)
            if seed % 2:
                ts = gen.random_tagged_term_set(rng, 12, max_width=3)
            else:
                ts = gen.random_term_set(rng, 11)
            spent += self._check(ts)
        assert 100 < spent < 190

    def test_workload_structures_and_bundled_example(self, golden_termset):
        sets = _workload_term_sets()
        at = {name: _spent_at(ts) for name, ts in sets.items()}
        # Noise and lemma-r1 stop short of |T|; chains never do.
        assert at["spread-noise12"] == 2
        assert at["lemma-r1-h0"] == 4
        assert at["chain13"] is None
        assert _spent_at(golden_termset.terms) == 8
        for ts in [*sets.values(), golden_termset.terms]:
            self._check(ts)

    def test_constants(self):
        for n in (3, 8, 22):
            ts = frozenset(const(f"c{i}") for i in range(n))
            assert _spent_at(ts) == 2
            table = build_delta_table(ts)
            (dec,) = fold_delta_table(table)
            assert (dec.size, table.size, table._visited) == (
                n + 1, n, n + n * (n - 1) // 2 + 1
            )
            assert len(table.pairs) == n * (n - 1) // 2 + 2

    def test_a_size_that_lifts_is_not_spent(self):
        # No two subsets of two terms have keys equal up to column order,
        # but {(a, b), (c, d)} lifts h(α1) from {(a,), (c,)}.  The key of
        # the three g-terms lifts two patterns and covers T, size 3 + 3.
        ts = [_g(a, b), _g(c, d), _g(e, f(a))] + [
            App("h", (x,)) for x in (a, b, c, d, e, f(a))
        ]
        assert _spent_at(ts) == 4
        assert _covering_sizes(_grown(ts)) == {3, 9}
        (dec,) = fold_delta_table(build_delta_table(ts))
        assert (dec.size, len(dec.w)) == (6, 3)


class TestValidate:
    def test_rejects_wrong_expansion(self, golden_termset):
        bogus = Decomposition(
            u=frozenset({App("#f2", (alpha(1),))}),
            w=frozenset({(a,)}),
        )
        assert not oracles.validate_decomposition(bogus, golden_termset.terms)

    def test_rejects_nonground_rows(self, golden_termset):
        d = Decomposition(
            u=frozenset({App("#f2", (alpha(1),))}),
            w=frozenset({(alpha(1),)}),
        )
        assert not oracles.validate_decomposition(d, golden_termset.terms)

    def test_rejects_variable_index_out_of_range(self, golden_termset):
        d = Decomposition(
            u=frozenset({App("#f2", (alpha(3),))}),
            w=frozenset({(a,)}),
        )
        assert not oracles.validate_decomposition(d, golden_termset.terms)

    def test_random_perturbations_rejected(self):
        rejected = 0
        for seed in range(60):
            rng = random.Random(seed)
            ts = gen.random_term_set(rng)
            decs = fold_delta_table(build_delta_table(ts))
            if not decs:
                continue
            d = decs[0]
            # Drop one pattern: the expansion loses terms unless another
            # pattern still generates them.
            u_list = sorted(d.u, key=term_key)
            smaller = Decomposition(
                u=frozenset(u_list[1:]), w=d.w
            )
            if not oracles.validate_decomposition(smaller, ts):
                rejected += 1
        assert rejected > 10


class TestRestrictAndSplit:
    def test_golden_single_variable_mode_is_empty(self, golden_termset):
        whole = _grown(golden_termset.terms)
        assert fold_delta_table(whole, ci1=True) == []
        table = build_delta_table(golden_termset)
        assert fold_delta_table(table, ci1=True) == []

    def test_single_variable_set_still_folds(self):
        ts = frozenset(
            {App("#f1", (t,)) for t in (a, f(a), f(f(a)), f(f(f(a))))}
        )
        full = fold_delta_table(build_delta_table(ts))
        narrowed = fold_delta_table(build_delta_table(ts), ci1=True)
        assert narrowed
        assert all(d.arity == 1 for d in narrowed)
        assert min(d.size for d in full) <= min(d.size for d in narrowed)

    def test_structure_split_by_tag(self, golden, golden_decompositions):
        seq, _ = golden
        dec = golden_decompositions[0]
        u = decode_termset(TermSet(dec.u, seq.q))
        assert [len(x) for x in u.instances] == [0, 4, 4, 0]
        assert len(dec.w) == 2
        # Tag heads are stripped: the split rows are bare argument tuples.
        for i, patterns in enumerate(u.instances, start=1):
            for args in patterns:
                assert isinstance(args, tuple)

"""Anti-unification, the decomposition table, and minimal covers."""

from __future__ import annotations

import gc
import inspect
import itertools
import random
import sys
import tracemalloc

import pytest

from cutintro.decomposition import (
    DEFAULT_TERMSET_LIMIT,
    Decomposition,
    TermSetTooLarge,
    _AntiUnifier,
    _clean_subsets,
    build_delta_table,
    delta_g,
    fold_delta_table,
    restrict_ci1,
    validate_decomposition,
)
from cutintro.herbrand import TermSet, decode_termset
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


def _subset(terms, mask):
    """The terms a cover bitmask stands for, bit j being ``terms[j]``."""
    return tuple(t for j, t in enumerate(terms) if mask >> j & 1)


class TestDeltaG:
    def test_identical_terms_give_ground_pattern(self):
        g = delta_g([f(a), f(a)])
        assert g.u == f(a)
        assert g.rows == ((), ())
        assert g.arity == 0

    def test_same_head_recurses(self):
        g = delta_g([f(a), f(b)])
        assert g.u == f(alpha(1))
        assert g.rows == ((a,), (b,))

    def test_head_clash_generalizes_whole_column(self):
        g = delta_g([f(a), s(a)])
        assert g.u == alpha(1)
        assert g.rows == ((f(a),), (s(a),))

    def test_equal_columns_share_a_variable(self):
        t1 = App("g", (f(a), f(a)))
        t2 = App("g", (f(b), f(b)))
        g = delta_g([t1, t2])
        assert g.u == App("g", (f(alpha(1)), f(alpha(1))))
        assert g.rows == ((a,), (b,))

    def test_distinct_columns_get_distinct_variables(self):
        t1 = App("g", (a, b))
        t2 = App("g", (b, a))
        g = delta_g([t1, t2])
        assert g.u == App("g", (alpha(1), alpha(2)))
        assert g.rows == ((a, b), (b, a))

    def test_variables_numbered_by_first_occurrence(self):
        t1 = App("#f3", (s(s(s(f(f(a))))), a))
        t2 = App("#f3", (s(s(f(f(a)))), s(a)))
        g = delta_g([t1, t2])
        assert render_term(g.u) == "#f3(s(s(α1)), α2)"
        assert g.rows == ((s(f(f(a))), a), (f(f(a)), s(a)))

    def test_matches_independent_antiunifier(self):
        for seed in range(120):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            ts = [
                gen.random_ground_term(
                    rng, [("f", 1), ("g", 2), ("h", 1)], ["a", "b"], 3
                )
                for _ in range(n)
            ]
            g = delta_g(ts)
            u2, rows2 = oracles.antiunify(ts)
            assert g.u == u2, f"seed {seed}"
            assert g.rows == rows2, f"seed {seed}"

    def test_matches_independent_antiunifier_tagged_and_in_any_order(self):
        for seed in range(300):
            ts = _random_term_list(random.Random(seed))
            g = delta_g(ts)
            u2, rows2 = oracles.antiunify(ts)
            assert g.u == u2, f"seed {seed}"
            assert g.rows == rows2, f"seed {seed}"

    def test_frames_per_nesting_level(self):
        # Anti-unifying terms nested d deep may take at most two frames
        # per level, as the recursive column generalizer it replaced did.
        d = 300
        ts = [_power(f, a, d), _power(f, b, d)]
        here = len(inspect.stack(0))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(here + 2 * d + 50)
        try:
            g = delta_g(ts)
        finally:
            sys.setrecursionlimit(old)
        assert g.u == _power(f, alpha(1), d)
        assert g.rows == ((a,), (b,))

    def test_expansion_reproduces_input(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            ts = [
                gen.random_ground_term(
                    rng, [("f", 1), ("g", 2)], ["a", "b"], 3
                )
                for _ in range(n)
            ]
            g = delta_g(ts)
            for t, row in zip(ts, g.rows):
                mapping = {
                    alpha(i + 1).name: row[i] for i in range(len(row))
                }
                assert subst_term(g.u, mapping) == t, f"seed {seed}"
            assert len(set(g.rows)) <= len(ts)
            assert term_vars(g.u) == {
                alpha(i + 1).name for i in range(g.arity)
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
                sd = delta_g(subset)
                assert (u, key) == (sd.u, sd.key)
                stored.add(subset)
            clean = {
                combo
                for r in range(1, len(terms) + 1)
                for combo in itertools.combinations(terms, r)
                if not any(
                    x.tagged for x in itertools.chain(*delta_g(combo).rows)
                )
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
            table = build_delta_table(ts)
            assert table.entries == oracles.reference_clean_entries(ref), i
            ref_polls, polls = [], []
            expected = oracles.reference_fold_delta_table(
                ref, ts, cancel=lambda: ref_polls.append(1)
            )
            assert fold_delta_table(
                table, ts, cancel=lambda: polls.append(1)
            ) == expected, i
            # The same search nodes, in the bitmask fold and the old one.
            assert len(polls) == len(ref_polls), i

    @pytest.mark.parametrize("seed", [180, 624, 1095])
    def test_fold_visits_the_reference_nodes(self, seed):
        # Eleven-term sets on which scanning a key's groups in another
        # order (by bitmask value, say) changes the number of nodes.
        ts = gen.random_tagged_term_set(random.Random(seed), max_size=11)
        ref = oracles.reference_build_delta_table(ts)
        ref_polls, polls = [], []
        expected = oracles.reference_fold_delta_table(
            ref, ts, cancel=lambda: ref_polls.append(1)
        )
        got = fold_delta_table(
            build_delta_table(ts), ts, cancel=lambda: polls.append(1)
        )
        assert got == expected
        assert len(polls) == len(ref_polls)

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
        full = build_delta_table(golden_termset)
        assert len(small.entries) <= len(full.entries)
        for m in (1, 2, 3):
            ref = oracles.reference_build_delta_table(golden_termset.terms, m)
            assert build_delta_table(
                golden_termset, max_subset=m
            ).entries == oracles.reference_clean_entries(ref)

    def test_termset_limit(self):
        ts = frozenset(
            App("c%d" % i, ()) for i in range(DEFAULT_TERMSET_LIMIT + 1)
        )
        with pytest.raises(TermSetTooLarge) as exc:
            build_delta_table(ts)
        assert exc.value.size == DEFAULT_TERMSET_LIMIT + 1
        assert exc.value.limit == DEFAULT_TERMSET_LIMIT

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


def _visited(terms, top):
    """How many subsets the enumeration visits: those of at most ``top``
    terms whose subset without its last term is empty or has a clean
    key, by the independent anti-unifier."""
    count = 0
    for r in range(1, top + 1):
        for combo in itertools.combinations(terms, r):
            parent = combo[:-1]
            if not parent or not any(
                x.tagged for row in oracles.antiunify(parent)[1] for x in row
            ):
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
        table = build_delta_table(ts, max_subset=max_subset)
        assert table.entries == oracles.reference_clean_entries(ref)
        ref_polls, fold_polls = [], []
        expected = oracles.reference_fold_delta_table(
            ref, ts, cancel=lambda: ref_polls.append(1)
        )
        got = fold_delta_table(table, ts, cancel=lambda: fold_polls.append(1))
        assert got == expected
        assert len(fold_polls) == len(ref_polls)
        return got

    def test_steps_keep_then_generalize_the_pattern(self):
        ts = self.STABLE_THEN_GENERALIZED
        au = _AntiUnifier(prune=True)
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

    def test_repeated_columns(self):
        ts = self.REPEATED_COLUMNS
        g = delta_g(ts[:2])
        assert (g.u, g.rows) == (_g(alpha(1), alpha(1)), ((a,), (b,)))
        au = _AntiUnifier(prune=False)
        v, row = au.step(g.u, ts[2])
        assert v == _g(alpha(1), alpha(2)) and row is None
        assert au.step(v, ts[3]) == (v, (c, c))
        for k in range(1, len(ts) + 1):
            g = delta_g(ts[:k])
            assert (g.u, g.rows) == oracles.antiunify(ts[:k]), k
        self._check(ts)

    @pytest.mark.parametrize("max_subset", [1, 2, 3])
    def test_max_subset(self, max_subset):
        sets = [self.STABLE_THEN_GENERALIZED, self.REPEATED_COLUMNS]
        sets += [gen.random_tagged_term_set(random.Random(s)) for s in range(30)]
        sets += [gen.random_term_set(random.Random(s)) for s in range(30)]
        for ts in sets:
            self._check(ts, max_subset)

    def test_tagged_columns_right_after_a_pruning_build(self):
        # The build prunes subsets with a tagged column; delta_g does not.
        # Each keeps steps of its own: the build's pruned steps do not
        # leak into delta_g, nor delta_g's into the next build.
        ts = [App("#f1", (a,)), App("#f2", (a,)), App("#f2", (b,))]
        first = build_delta_table(ts)
        assert all(not x.tagged for k in first.pairs for r in k for x in r)
        for combo in itertools.permutations(ts, 2):
            g = delta_g(combo)
            assert (g.u, g.rows) == oracles.antiunify(combo)
            if ts[0] in combo:
                assert g.rows == tuple((x,) for x in combo)
        assert build_delta_table(ts).entries == first.entries
        self._check(ts)


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
        assert validate_decomposition(
            golden_decompositions[0], golden_termset
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
        once = fold_delta_table(
            build_delta_table(golden_termset), golden_termset
        )
        twice = fold_delta_table(
            build_delta_table(golden_termset), golden_termset
        )
        assert once == twice

    def test_matches_exhaustive_search(self):
        for seed in range(60):
            rng = random.Random(seed)
            ts = gen.random_term_set(rng)
            dt = build_delta_table(ts)
            decs = fold_delta_table(dt, ts)
            bmin, bbest = oracles.brute_min_decompositions(ts)
            got_min = decs[0].size if decs else None
            assert got_min == bmin, f"seed {seed}"
            if decs:
                assert {(d.u, d.w) for d in decs} == set(bbest), f"seed {seed}"

    def test_all_results_validate(self):
        for seed in range(40):
            rng = random.Random(500 + seed)
            ts = gen.random_term_set(rng)
            dt = build_delta_table(ts)
            for d in fold_delta_table(dt, ts):
                assert validate_decomposition(d, ts), f"seed {seed}"

    def test_fold_does_not_depend_on_term_identity(self):
        # The fold is asked about the terms built again, in another order.
        terms = _deep_chain()
        table = build_delta_table(terms)
        expected = oracles.reference_fold_delta_table(table, terms)
        assert expected
        copy = _deep_chain()
        shuffled = list(copy)
        random.Random(3).shuffle(shuffled)
        assert fold_delta_table(table, copy) == expected
        assert fold_delta_table(table, shuffled) == expected
        # Each term twice: the table is of the term set.
        twice = build_delta_table(terms + copy)
        assert twice.terms == table.terms
        assert fold_delta_table(twice, terms) == expected

    def test_dead_terms_leave_the_term_table(self):
        # The patterns and columns the search built die with its results.
        gc.collect()
        before = len(_table)
        terms = _deep_chain()
        table = build_delta_table(terms)
        decs = fold_delta_table(table, terms)
        assert decs and len(_table) > before
        del terms, table, decs
        gc.collect()
        assert len(_table) == before

    def test_build_and_fold_peak_memory(self):
        # Covers are bitmasks from the enumeration on.  With a frozenset
        # of terms per pair the peak here was 7.4 MB, with bitmasks 4.0 MB
        # (Python 3.11).
        terms, copy = _deep_chain(), _deep_chain()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            decs = fold_delta_table(build_delta_table(terms), copy)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert decs
        assert peak < 5_000_000

    def test_singleton_set_has_no_decomposition(self):
        ts = frozenset({App("#f1", (a,))})
        dt = build_delta_table(ts)
        assert fold_delta_table(dt, ts) == []


class TestNoReferenceCycles:
    """The anti-unifier's walk and the fold's search keep their state in
    arguments and explicit stacks, so no call leaves a reference cycle
    (each left one per subset or key, which only a collection frees)."""

    def test_build_and_fold_one_tag(self, leaves_no_cycles):
        ts = _chain_termset(10)
        decs = leaves_no_cycles(
            lambda: fold_delta_table(build_delta_table(ts), ts)
        )
        assert decs

    def test_build_and_fold_multi_tag_arity_two(
        self, golden_termset, leaves_no_cycles
    ):
        table = leaves_no_cycles(lambda: build_delta_table(golden_termset))
        assert len({t.head for t in table.terms}) > 1
        assert any(len(next(iter(k))) == 2 for k in table.pairs)
        decs = leaves_no_cycles(
            lambda: fold_delta_table(table, golden_termset)
        )
        assert [d.arity for d in decs] == [2]

    def test_delta_g(self, leaves_no_cycles):
        d = leaves_no_cycles(lambda: delta_g(_deep_chain()))
        assert d.arity == 1


class TestValidate:
    def test_rejects_wrong_expansion(self, golden_termset):
        bogus = Decomposition(
            u=frozenset({App("#f2", (alpha(1),))}),
            w=frozenset({(a,)}),
        )
        assert not validate_decomposition(bogus, golden_termset)

    def test_rejects_nonground_rows(self, golden_termset):
        d = Decomposition(
            u=frozenset({App("#f2", (alpha(1),))}),
            w=frozenset({(alpha(1),)}),
        )
        assert not validate_decomposition(d, golden_termset)

    def test_rejects_variable_index_out_of_range(self, golden_termset):
        d = Decomposition(
            u=frozenset({App("#f2", (alpha(3),))}),
            w=frozenset({(a,)}),
        )
        assert not validate_decomposition(d, golden_termset)

    def test_random_perturbations_rejected(self):
        rejected = 0
        for seed in range(60):
            rng = random.Random(seed)
            ts = gen.random_term_set(rng)
            dt = build_delta_table(ts)
            decs = fold_delta_table(dt, ts)
            if not decs:
                continue
            d = decs[0]
            # Drop one pattern: the expansion loses terms unless another
            # pattern still generates them.
            u_list = sorted(d.u, key=term_key)
            smaller = Decomposition(
                u=frozenset(u_list[1:]), w=d.w
            )
            if not validate_decomposition(smaller, ts):
                rejected += 1
        assert rejected > 10


class TestRestrictAndSplit:
    def test_golden_single_variable_mode_is_empty(
        self, golden_table, golden_termset
    ):
        narrowed = restrict_ci1(golden_table)
        assert all(
            len(next(iter(key))) == 1 for key in narrowed.entries
        )
        assert fold_delta_table(narrowed, golden_termset) == []

    def test_restriction_filters_the_entries(self, golden_table):
        tables = [golden_table] + [
            build_delta_table(gen.random_tagged_term_set(random.Random(s)))
            for s in range(20)
        ]
        for dt in tables:
            narrowed = restrict_ci1(dt)
            assert narrowed.terms == dt.terms
            assert narrowed.entries == {
                k: v
                for k, v in dt.entries.items()
                if len(next(iter(k))) == 1
            }

    def test_single_variable_set_still_folds(self):
        ts = frozenset(
            {App("#f1", (t,)) for t in (a, f(a), f(f(a)), f(f(f(a))))}
        )
        dt = build_delta_table(ts)
        full = fold_delta_table(dt, ts)
        narrowed = fold_delta_table(restrict_ci1(dt), ts)
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

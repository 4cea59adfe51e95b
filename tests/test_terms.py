"""Term constructors, traversals, substitution, and ordering."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from cutintro.formulas import symbols
from cutintro.terms import (
    App,
    Var,
    alpha,
    alpha_index,
    const,
    is_alpha,
    is_tag_head,
    positions_of,
    render_term,
    render_tuple,
    replace_at,
    subst_term,
    tag_head,
    tag_index,
    term_key,
    term_vars,
    tuple_key,
)

import gen
from gen import is_ground, subterms
from oracles import (
    reference_positions_of,
    reference_render_term,
    reference_term_key,
)


def terms_strategy(with_vars: bool = True):
    leaves = [st.builds(const, st.sampled_from("abc"))]
    if with_vars:
        leaves.append(st.builds(Var, st.sampled_from(["x", "y", "α1", "α2"])))
    return st.recursive(
        st.one_of(*leaves),
        lambda node: st.one_of(
            st.builds(lambda t: App("f", (t,)), node),
            st.builds(lambda s, t: App("g", (s, t)), node, node),
        ),
        max_leaves=12,
    )


def tagged_terms_strategy():
    """Terms over ordinary and reserved tag heads, with generated
    variables whose indices sort numerically (α2 < α10)."""
    leaves = st.one_of(
        st.builds(const, st.sampled_from(["a", "b", tag_head(1)])),
        st.builds(Var, st.sampled_from(["x", "a", "α1", "α2", "α10"])),
    )
    return st.recursive(
        leaves,
        lambda node: st.one_of(
            st.builds(
                lambda h, t: App(h, (t,)),
                st.sampled_from(["f", tag_head(2)]),
                node,
            ),
            st.builds(lambda s, t: App("g", (s, t)), node, node),
        ),
        max_leaves=10,
    )


def rebuild(t):
    """t built again, node by node, from names, heads and arguments."""
    if isinstance(t, Var):
        return Var(t.name)
    return App(t.head, tuple(rebuild(a) for a in t.args))


class TestConstructors:
    def test_const_is_nullary_app(self):
        assert const("a") == App("a", ())
        assert const("a").args == ()

    def test_terms_are_hashable_and_equal_by_value(self):
        t1 = App("f", (const("a"),))
        t2 = App("f", (const("a"),))
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert len({t1, t2}) == 1

    def test_terms_are_immutable(self):
        with pytest.raises(Exception):
            const("a").head = "b"  # type: ignore[misc]


class TestAlphaAndTags:
    def test_alpha_round_trip(self):
        for i in (1, 2, 7, 41):
            v = alpha(i)
            assert is_alpha(v.name)
            assert alpha_index(v.name) == i

    def test_plain_names_are_not_alpha(self):
        for name in ("x", "a", "alpha1", ""):
            assert not is_alpha(name)

    def test_tag_head_round_trip(self):
        for i in (1, 3, 12):
            h = tag_head(i)
            assert is_tag_head(h)
            assert tag_index(h) == i

    def test_ordinary_heads_are_not_tags(self):
        for h in ("f", "g", "a", "s"):
            assert not is_tag_head(h)


class TestTraversals:
    def test_term_vars_returns_names(self):
        t = App("g", (Var("x"), App("f", (alpha(1),))))
        assert term_vars(t) == {"x", "α1"}

    def test_ground_iff_no_vars(self):
        assert is_ground(App("f", (const("a"),)))
        assert not is_ground(App("f", (Var("x"),)))

    def test_subterms_include_the_term_itself(self):
        t = App("g", (App("f", (const("a"),)), const("a")))
        subs = set(subterms(t))
        assert t in subs
        assert const("a") in subs
        assert App("f", (const("a"),)) in subs

    @given(terms_strategy())
    def test_size_equals_number_of_subterm_occurrences(self, t):
        # One symbol occurrence per node: the walk counts the term's size.
        assert len(list(symbols([t]))) == len(list(subterms(t)))

    @given(terms_strategy())
    def test_vars_are_exactly_the_var_subterms(self, t):
        names = {s.name for s in subterms(t) if isinstance(s, Var)}
        assert term_vars(t) == names


class TestSubstitution:
    def test_substitutes_all_occurrences(self):
        t = App("g", (Var("x"), App("f", (Var("x"),))))
        got = subst_term(t, {"x": const("a")})
        assert got == App("g", (const("a"), App("f", (const("a"),))))

    def test_unmapped_vars_survive(self):
        t = App("g", (Var("x"), Var("y")))
        assert subst_term(t, {"x": const("a")}) == App(
            "g", (const("a"), Var("y"))
        )

    def test_ground_terms_unchanged(self):
        t = App("f", (const("a"),))
        assert subst_term(t, {"x": const("b")}) == t

    @given(terms_strategy())
    def test_identity_substitution(self, t):
        mapping = {n: Var(n) for n in term_vars(t)}
        assert subst_term(t, mapping) == t

    @given(terms_strategy())
    def test_composition(self, t):
        first = {n: App("f", (Var(n),)) for n in term_vars(t)}
        second = {n: const("a") for n in term_vars(t)}
        composed = {n: subst_term(first[n], second) for n in first}
        assert subst_term(subst_term(t, first), second) == subst_term(
            t, composed
        )


class TestPositions:
    def test_positions_in_preorder(self):
        t = App("g", (App("f", (const("a"),)), const("a")))
        assert positions_of(t, const("a")) == [(0, 0), (1,)]

    def test_replace_at_single_position(self):
        t = App("g", (App("f", (const("a"),)), const("a")))
        got = replace_at(t, (1,), const("b"))
        assert got == App("g", (App("f", (const("a"),)), const("b")))

    def test_replace_root(self):
        assert replace_at(const("a"), (), const("b")) == const("b")

    @given(terms_strategy())
    def test_matches_recursive_reference(self, t):
        for needle in {*subterms(t), const("c")}:
            want = reference_positions_of(t, needle)
            assert positions_of(t, needle) == want

    def test_deep_term_matches_recursive_reference(self):
        # f(f(...f(a)...)), 10^4 deep.  The reference needs a frame per
        # level: a raised recursion limit, and a thread with a stack
        # large enough for interpreters whose Python calls use C stack.
        depth = 10**4
        t = const("a")
        for _ in range(depth):
            t = App("f", (t,))
        needles = (const("a"), App("f", (const("a"),)), t, const("b"))
        got = [positions_of(t, n) for n in needles]
        assert got[0] == [(0,) * depth]
        want: list = []
        limit, size = sys.getrecursionlimit(), threading.stack_size()
        sys.setrecursionlimit(limit + depth)
        threading.stack_size(64 << 20)
        try:
            worker = threading.Thread(
                target=lambda: want.extend(
                    reference_positions_of(t, n) for n in needles
                )
            )
            worker.start()
            worker.join(timeout=120)
        finally:
            threading.stack_size(size)
            sys.setrecursionlimit(limit)
        assert not worker.is_alive()
        assert got == want

    @given(terms_strategy(with_vars=False))
    def test_replace_round_trip(self, t):
        for needle in set(subterms(t)):
            for pos in positions_of(t, needle):
                swapped = replace_at(t, pos, const("c"))
                assert replace_at(swapped, pos, needle) == t


class TestRenderingAndOrdering:
    def test_render_nested(self):
        t = App("g", (App("f", (const("a"),)), Var("x")))
        assert render_term(t) == "g(f(a), x)"

    def test_render_constant_has_no_parens(self):
        assert render_term(const("a")) == "a"

    @given(terms_strategy())
    def test_render_matches_recursive_reference(self, t):
        assert render_term(t) == reference_render_term(t)

    def test_render_deep_term_matches_recursive_reference(self):
        # g(f(f(...f(a)...)), b), 10^4 deep.  The reference needs a frame
        # per level for itself and one for its generator: a raised
        # recursion limit, and a thread with a stack large enough for
        # interpreters whose Python calls use C stack.
        depth = 10**4
        t = const("a")
        for _ in range(depth):
            t = App("f", (t,))
        t = App("g", (t, const("b")))
        got = render_term(t)
        assert got == "g(" + "f(" * depth + "a" + ")" * depth + ", b)"
        want: list = []
        limit, size = sys.getrecursionlimit(), threading.stack_size()
        sys.setrecursionlimit(limit + 3 * depth)
        threading.stack_size(64 << 20)
        try:
            worker = threading.Thread(
                target=lambda: want.append(reference_render_term(t))
            )
            worker.start()
            worker.join(timeout=120)
        finally:
            threading.stack_size(size)
            sys.setrecursionlimit(limit)
        assert not worker.is_alive()
        assert want == [got]

    def test_render_tuple(self):
        assert render_tuple((const("a"), App("f", (const("b"),)))) == (
            "(a, f(b))"
        )

    def test_term_key_total_order_is_deterministic(self):
        rng = random.Random(7)
        ts = [gen.random_ground_term(rng, [("f", 1), ("g", 2)], ["a", "b"], 3)
              for _ in range(40)]
        once = sorted(ts, key=term_key)
        rng.shuffle(ts)
        assert sorted(ts, key=term_key) == once

    @given(terms_strategy(), terms_strategy())
    def test_term_key_separates_distinct_terms(self, s, t):
        assert (term_key(s) == term_key(t)) == (s == t)

    def test_tuple_key_orders_componentwise(self):
        a, b = const("a"), const("b")
        assert tuple_key((a, a)) < tuple_key((a, b)) < tuple_key((b, a))


class TestBank:
    """Equal terms are one object: construction returns the live term
    of that name, or of that head and arguments, when there is one."""

    def test_equal_terms_are_one_object(self):
        args = (App("f", (const("a"),)), Var("x"))
        assert App("g", args) is App("g", tuple(list(args)))
        assert Var("x") is Var("x")
        assert alpha(2) is Var("α2")
        assert const("a") is App("a")

    def test_equality_and_hashing_do_not_walk_the_term(self):
        def chain(n):
            t = const("a")
            for _ in range(n):
                t = App("f", (t,))
            return t

        depth = 5 * sys.getrecursionlimit()
        s, t = chain(depth), chain(depth)
        assert s is t and s == t
        assert {s: 1}[t] == 1
        assert s != chain(depth - 1)

    def test_term_vars_does_not_recurse(self):
        t = Var("x")
        for _ in range(5 * sys.getrecursionlimit()):
            t = App("f", (t, const("a")))
        assert term_vars(t) == {"x"}


class TestCachedValues:
    """The hash, sort key and tag flag cached at construction agree with
    the values a walk over the term computes."""

    @given(tagged_terms_strategy())
    def test_term_key_matches_reference(self, t):
        assert term_key(t) == reference_term_key(t)
        assert tuple_key((t, t)) == (reference_term_key(t),) * 2

    @given(tagged_terms_strategy(), tagged_terms_strategy())
    def test_equal_exactly_when_reference_keys_equal(self, s, t):
        # Every pair of subterms, so that pairs of leaves are compared too.
        for x in subterms(s):
            for y in subterms(t):
                same = reference_term_key(x) == reference_term_key(y)
                assert (x == y) == same
                assert (x != y) == (not same)
                if same:
                    assert hash(x) == hash(y)

    @given(tagged_terms_strategy())
    def test_copy_sharing_no_node_is_equal(self, t):
        # There is no such copy: building t again finds t itself.
        c = rebuild(t)
        assert c is t
        assert {t: 1}[c] == 1

    def test_variable_and_constant_of_one_name_differ(self):
        assert Var("a") is not const("a")
        assert Var("a") != const("a")
        assert len({Var("a"), const("a")}) == 2

    @given(tagged_terms_strategy())
    def test_pickle_round_trip(self, t):
        assert pickle.loads(pickle.dumps(t)) is t

    def test_pickle_from_a_process_with_other_string_hashes(self):
        # Corpus workers send terms between processes; a hash cached in the
        # sender would not match this process's string hashing.  The
        # unpickled term is the one this process already holds.
        code = (
            "import pickle, sys\n"
            "from cutintro.terms import App, Var, const\n"
            "t = App('g', (App('f', (const('a'),)), Var('x')))\n"
            "sys.stdout.buffer.write(pickle.dumps(t))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=env,
            timeout=60,
            check=True,
        )
        t = App("g", (App("f", (const("a"),)), Var("x")))
        assert pickle.loads(done.stdout) is t

    @given(tagged_terms_strategy())
    def test_attributes_cannot_be_assigned(self, t):
        names = ["key", "tagged", "_hash", "extra"]
        names += ["name"] if isinstance(t, Var) else ["head", "args"]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)

    @given(tagged_terms_strategy())
    def test_tag_flag_marks_a_tag_headed_subterm(self, t):
        assert t.tagged == any(
            isinstance(s, App) and is_tag_head(s.head) for s in subterms(t)
        )

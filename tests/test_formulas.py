"""Formula constructors, traversals, substitution, and rendering."""

from __future__ import annotations

import dataclasses
import gc
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from cutintro.formulas import (
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
    apply_subst,
    conj,
    disj,
    formula_size,
    formula_vars,
    render_formula,
    symbols,
)
from cutintro.terms import App, Var, _table, const

from oracles import reference_formula_key


def _terms():
    return st.recursive(
        st.one_of(
            st.builds(const, st.sampled_from("ab")),
            st.builds(Var, st.sampled_from(["x", "y"])),
        ),
        lambda node: st.builds(lambda t: App("f", (t,)), node),
        max_leaves=4,
    )


def formulas_strategy():
    atoms = st.one_of(
        st.builds(lambda t: Atom("P", (t,)), _terms()),
        st.builds(Eq, _terms(), _terms()),
        st.just(Top()),
        st.just(Bottom()),
    )
    return st.recursive(
        atoms,
        lambda node: st.one_of(
            st.builds(Not, node),
            st.builds(And, node, node),
            st.builds(Or, node, node),
            st.builds(Imp, node, node),
        ),
        max_leaves=10,
    )


def quantified_formulas_strategy():
    """Formulas of every class, a quantifier block on top or not."""
    return st.one_of(
        formulas_strategy(),
        st.builds(
            QuantBlock,
            st.sampled_from(["all", "ex"]),
            st.sampled_from([("x",), ("x", "y")]),
            formulas_strategy(),
        ),
    )


# Each formula class as the frozen dataclass it used to be, with its
# fields in order: the reference for the hash a formula caches.
_DATACLASSES = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in [
        (Atom, ["pred", "args"]),
        (Eq, ["lhs", "rhs"]),
        (Top, []),
        (Bottom, []),
        (Not, ["body"]),
        (And, ["lhs", "rhs"]),
        (Or, ["lhs", "rhs"]),
        (Imp, ["lhs", "rhs"]),
        (QuantBlock, ["kind", "vars", "body"]),
    ]
}


def as_dataclass(f):
    """A copy of f built from the dataclasses above; terms are kept."""
    if f.__class__ not in _DATACLASSES:
        return f
    cls = _DATACLASSES[f.__class__]
    fields = [x.name for x in dataclasses.fields(cls)]
    return cls(*(as_dataclass(getattr(f, name)) for name in fields))


def _not_chain(n: int):
    f = Atom("P", (const("a"),))
    for _ in range(n):
        f = Not(f)
    return f


class TestBank:
    """Formulas are nodes of the term bank: construction returns the
    live formula of that class and those fields, when there is one."""

    def test_equal_formulas_are_one_object(self):
        a = const("a")
        assert Not(Atom("P", (a,))) is Not(Atom("P", (a,)))
        assert Top() is TOP and Bottom() is BOTTOM
        assert Atom("Q") is Atom("Q", ())
        assert And(TOP, BOTTOM) is not Or(TOP, BOTTOM)

    @given(quantified_formulas_strategy())
    def test_hash_is_the_dataclass_hash(self, f):
        assert hash(f) == hash(as_dataclass(f))

    def test_hash_is_the_dataclass_hash_for_each_class(self):
        p = Atom("P", (Var("x"), const("a")))
        fs = [p, Eq(Var("x"), const("a")), TOP, BOTTOM, Not(p), And(p, TOP)]
        fs += [Or(p, BOTTOM), Imp(p, p), QuantBlock("all", ("x",), p)]
        assert {f.__class__ for f in fs} == set(_DATACLASSES)
        for f in fs:
            assert hash(f) == hash(as_dataclass(f))

    @given(quantified_formulas_strategy())
    def test_key_matches_reference(self, f):
        assert f.key == reference_formula_key(f)

    @given(quantified_formulas_strategy())
    def test_pickle_round_trip(self, f):
        assert pickle.loads(pickle.dumps(f)) is f

    @given(quantified_formulas_strategy())
    def test_attributes_cannot_be_assigned(self, f):
        for name in ["key", "_hash", "body", "extra"]:
            with pytest.raises(AttributeError):
                setattr(f, name, None)
            with pytest.raises(AttributeError):
                delattr(f, name)

    def test_equality_and_hashing_do_not_walk_the_formula(self):
        depth = 5 * sys.getrecursionlimit()
        f, g = _not_chain(depth), _not_chain(depth)
        assert f is g and f == g
        assert {f: 1}[g] == 1
        assert f != _not_chain(depth - 1)

    def test_dead_formulas_leave_the_table(self):
        gc.collect()
        before = len(_table)
        c = App("fresh", ())
        f = And(Atom("Fresh", (c,)), Not(Eq(Var("fresh"), c)))
        assert len(_table) == before + 6
        del c, f
        gc.collect()
        assert len(_table) == before


class TestConstructors:
    def test_value_equality_and_hashing(self):
        f1 = And(Atom("P", (const("a"),)), Top())
        f2 = And(Atom("P", (const("a"),)), Top())
        assert f1 == f2 and hash(f1) == hash(f2)

    def test_conj_of_empty_is_top(self):
        assert conj([]) == Top()

    def test_disj_of_empty_is_bottom(self):
        assert disj([]) == Bottom()

    def test_conj_of_singleton_is_identity(self):
        a = Atom("P", (const("a"),))
        assert conj([a]) == a
        assert disj([a]) == a

    def test_conj_is_left_to_right(self):
        a, b, c = (Atom(p, ()) for p in "PQR")
        f = conj([a, b, c])
        flat = []

        def walk(g):
            if isinstance(g, And):
                walk(g.lhs)
                walk(g.rhs)
            else:
                flat.append(g)

        walk(f)
        assert flat == [a, b, c]


class TestTraversals:
    def test_formula_vars_respects_binding(self):
        body = Atom("P", (Var("x"), Var("y")))
        assert formula_vars(body) == {"x", "y"}
        assert formula_vars(QuantBlock("all", ("x",), body)) == {"y"}
        assert formula_vars(QuantBlock("ex", ("x", "y"), body)) == set()

    def test_symbols_in_preorder_with_kinds(self):
        fx = App("f", (Var("x"),))
        f = QuantBlock(
            "all",
            ("x", "y"),
            Imp(And(Atom("P", (fx, const("a"))), Top()), Not(Eq(fx, Var("y")))),
        )
        assert list(symbols([f, App("g", (const("b"),))])) == [
            ("var", "x", 0),
            ("var", "y", 0),
            ("pred", "P", 2),
            ("fun", "f", 1),
            ("var", "x", 0),
            ("fun", "a", 0),
            ("fun", "f", 1),
            ("var", "x", 0),
            ("var", "y", 0),
            ("fun", "g", 1),
            ("fun", "b", 0),
        ]
        assert list(symbols([Bottom(), Atom("Q", ())])) == [("pred", "Q", 0)]

    def test_symbols_walk_is_not_recursive(self):
        t = const("a")
        for _ in range(10_000):
            t = App("f", (t,))
        f: object = Atom("P", (t,))
        for _ in range(10_000):
            f = Not(f)
        got = list(symbols([f]))
        assert len(got) == 10_002
        assert got[0] == ("pred", "P", 1) and got[-1] == ("fun", "a", 0)

    def test_formula_size_counts_connectives_and_atoms(self):
        a = Atom("P", (const("a"),))
        assert formula_size(a) == 1
        assert formula_size(Not(a)) == 2
        assert formula_size(And(a, Not(a))) == 4

    @given(formulas_strategy())
    def test_size_positive_and_stable(self, f):
        assert formula_size(f) >= 1
        assert formula_size(f) == formula_size(f)

    @given(formulas_strategy())
    def test_vars_subset_of_atom_vars(self, f):
        walked = {name for kind, name, _ in symbols([f]) if kind == "var"}
        assert formula_vars(f) <= walked


class TestSubstitution:
    def test_apply_subst_hits_atoms_and_equations(self):
        f = And(Atom("P", (Var("x"),)), Eq(Var("x"), const("a")))
        got = apply_subst(f, {"x": const("b")})
        assert got == And(
            Atom("P", (const("b"),)), Eq(const("b"), const("a"))
        )

    def test_apply_subst_skips_bound_occurrences(self):
        f = And(
            Atom("P", (Var("x"),)),
            QuantBlock("all", ("x",), Atom("Q", (Var("x"),))),
        )
        got = apply_subst(f, {"x": const("a")})
        assert got == And(
            Atom("P", (const("a"),)),
            QuantBlock("all", ("x",), Atom("Q", (Var("x"),))),
        )

    @given(formulas_strategy())
    def test_identity_substitution(self, f):
        mapping = {n: Var(n) for n in formula_vars(f)}
        assert apply_subst(f, mapping) == f

    @given(formulas_strategy())
    def test_substitution_grounds_free_vars(self, f):
        mapping = {n: const("a") for n in formula_vars(f)}
        assert formula_vars(apply_subst(f, mapping)) == set()


class TestRendering:
    def test_connective_precedence(self):
        p, q, r = (Atom(x, ()) for x in "PQR")
        assert render_formula(Imp(And(p, q), r)) == "P & Q -> R"
        assert render_formula(And(p, Or(q, r))) == "P & (Q | R)"
        assert render_formula(Not(And(p, q))) == "~(P & Q)"

    def test_quantifier_block(self):
        f = QuantBlock(
            "all", ("x", "y"), Atom("P", (Var("x"), Var("y")))
        )
        assert render_formula(f) == "all x y: P(x, y)"

    def test_equation(self):
        assert (
            render_formula(Eq(const("a"), App("f", (const("b"),))))
            == "a = f(b)"
        )

    @given(formulas_strategy(), formulas_strategy())
    def test_formula_key_separates_distinct_formulas(self, f, g):
        assert (f.key == g.key) == (f == g)

    @given(formulas_strategy())
    def test_render_is_deterministic(self, f):
        assert render_formula(f) == render_formula(f)

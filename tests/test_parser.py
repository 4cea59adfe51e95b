"""Input-format parsing: round trips, validation, error positions."""

from __future__ import annotations

import random
import sys

import pytest

from cutintro.parser import InputError, parse_input
from cutintro.formulas import Atom, Eq, Imp, QuantBlock
from cutintro.terms import App, Var, const

import gen
from gen import render_input


class TestGoldenInput:
    def test_shape(self, golden):
        seq, hs = golden
        assert seq.p == 3
        assert seq.q == 4
        assert [seq.k(i) for i in range(1, 5)] == [0, 1, 2, 0]
        assert hs.size == 12

    def test_matrix_of_equation_formula(self, golden):
        seq, _ = golden
        assert seq.formula(2) == QuantBlock(
            "all",
            ("x",),
            Eq(App("f", (Var("x"),)), App("s", (App("s", (Var("x"),)),))),
        )

    def test_quantifier_free_formulas_have_no_instances(self, golden):
        _, hs = golden
        assert hs.instances[0] == frozenset()
        assert hs.instances[3] == frozenset()

    def test_render_parse_round_trip(self, golden):
        seq, hs = golden
        assert parse_input(render_input(seq, hs)) == (seq, hs)


class TestSyntax:
    def test_comments_and_blank_lines_ignored(self):
        text = (
            "% a comment\n\n"
            "ante P(a).  % trailing comment\n"
            "succ P(a).\n"
        )
        seq, hs = parse_input(text)
        assert seq.p == 1 and seq.q == 2
        assert hs.instances == (frozenset(), frozenset())

    def test_multiline_formula(self):
        seq, _ = parse_input("ante all x y:\n  P(x, y) ->\n  Q(y).\nsucc Q(a).\ninst 1: (a, b).")
        assert seq.formula(1).vars == ("x", "y")
        assert isinstance(seq.formula(1).body, Imp)

    def test_singleton_instance_needs_no_parens(self):
        _, hs = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a; f(a).")
        assert hs.instances[0] == frozenset(
            {(const("a"),), (App("f", (const("a"),)),)}
        )

    def test_connective_precedence_in_matrix(self):
        seq, _ = parse_input("succ P(a) & Q(a) -> R(a).")
        assert isinstance(seq.formula(1), Imp)

    def test_equality_atom(self):
        seq, _ = parse_input("succ f(a) = a.")
        assert seq.formula(1) == Eq(App("f", (const("a"),)), const("a"))

    def test_duplicate_inst_lines_merge(self):
        _, hs = parse_input(
            "ante all x: P(x).\nsucc P(a).\ninst 1: a.\ninst 1: b."
        )
        assert hs.instances[0] == frozenset({(const("a"),), (const("b"),)})


class TestValidation:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("succ all x: P(x).\ninst 1: a.", "strong quantifier"),
            ("ante ex x: P(x).\nsucc P(a).\ninst 1: a.", "strong quantifier"),
            (
                "ante all x: P(x).\nsucc P(a).\ninst 1: (a, b).",
                "arity 2, expected 1",
            ),
            (
                "ante all x: all y: P(x).\nsucc P(a).\ninst 1: a.",
                "top-level prefix",
            ),
            (
                "ante P(a) & all x: P(x).\nsucc P(a).",
                "top-level prefix",
            ),
            ("ante all x x: P(x).\nsucc P(a).", "repeated bound variable"),
            ("ante all : P(a).\nsucc P(a).", "at least one bound variable"),
            (
                "ante P(a).\nsucc P(a).\ninst 1: a.",
                "no quantifier prefix",
            ),
            (
                "ante all x: P(x).\nsucc P(a).\ninst 7: a.",
                "only 2",
            ),
            ("xyzzy P(a).", "expected 'ante', 'succ' or 'inst'"),
            ("ante P(a)", "expected"),
            ("ante P(.\nsucc Q(a).", "expected a term"),
        ],
    )
    def test_rejects_with_position(self, text, fragment):
        with pytest.raises(InputError) as exc:
            parse_input(text)
        assert fragment in str(exc.value)
        assert "line" in str(exc.value) and "column" in str(exc.value)

    def test_name_outside_the_prefix_is_a_constant(self):
        seq, _ = parse_input("ante all x: P(x, y).\nsucc P(a, y).\ninst 1: a.")
        assert seq.formula(1).body == Atom("P", (Var("x"), const("y")))

    def test_error_line_number_is_accurate(self):
        with pytest.raises(InputError) as exc:
            parse_input("ante P(a).\nsucc Q(a).\nbogus R(a).")
        assert "line 3" in str(exc.value)


class TestNestedTerms:
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "ante all x: P(x).\nsucc P(f(a,)).\ninst 1: a.",
                "expected a term, found ')' at line 2, column 12",
            ),
            (
                "ante all x: P(x).\nsucc P(f(g(a)).\ninst 1: a.",
                "expected ')', found '.' at line 2, column 15",
            ),
            (
                "ante all x: P(x).\nsucc P(f(a b)).\ninst 1: a.",
                "expected ')', found 'b' at line 2, column 12",
            ),
            (
                "ante all x: P(x(a)).\nsucc P(a).\ninst 1: a.",
                "quantified variable 'x' used as a function symbol"
                " at line 1, column 16",
            ),
            (
                "ante all x: P(x).\nsucc P(a).\ninst 1: f(g(.",
                "expected a term, found '.' at line 3, column 13",
            ),
            (
                "ante all x: P(x).\nsucc P(a).\ninst 1: (f(a), g(b, h(c)), k(.",
                "expected a term, found '.' at line 3, column 30",
            ),
        ],
    )
    def test_error_message_and_position(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_input(text)
        assert str(exc.value) == message

    def test_nesting_past_the_recursion_limit(self):
        depth = 5 * sys.getrecursionlimit()
        _, hs = parse_input(gen.nested_input(depth))
        expected = const("a")
        for _ in range(depth):
            expected = App("f", (expected,))
        assert hs.instances[0] == frozenset({(expected,)})


class TestRoundTripRandom:
    def test_random_instances_round_trip(self):
        for seed in range(25):
            rng = random.Random(seed)
            seq, hs = gen.random_solvable_instance(rng)
            text = render_input(seq, hs)
            seq2, hs2 = parse_input(text)
            assert (seq2, hs2) == (seq, hs), f"seed {seed}"

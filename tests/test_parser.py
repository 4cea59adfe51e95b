"""Input-format parsing: round trips, validation, error positions."""

from __future__ import annotations

import random
import re
import sys

import pytest

from cutintro.parser import InputError, parse_input
from cutintro.formulas import And, Atom, Eq, Imp, Not, QuantBlock
from cutintro.terms import App, Var, const

import gen
from gen import render_input
from oracles import reference_parse_input


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


class TestDeepMatrices:
    """Matrices nested past the recursion limit parse without a frame per
    level."""

    DEPTH = 5 * sys.getrecursionlimit()
    P = Atom("P", (const("a"),))

    def _succedent(self, matrix: str):
        seq, _ = parse_input(f"succ {matrix}.")
        return seq.succ[0]

    def test_parentheses(self):
        d = self.DEPTH
        assert self._succedent("(" * d + "P(a)" + ")" * d) is self.P

    def test_negations(self):
        expected = self.P
        for _ in range(self.DEPTH):
            expected = Not(expected)
        assert self._succedent("~" * self.DEPTH + "P(a)") is expected

    def test_right_nested_conjunction(self):
        expected = self.P
        for _ in range(self.DEPTH):
            expected = And(self.P, expected)
        assert self._succedent("P(a) & " * self.DEPTH + "P(a)") is expected


# Lexemes of an input: the units a mutation deletes, repeats, swaps or
# replaces.  Any character that starts no token is a lexeme of its own.
_LEXEME_RE = re.compile(r"\s+|%[^\n]*|[^\W\d]\w*'*|\d+|->|.", re.DOTALL)
_VOCABULARY = (
    "~ ( ) & | -> = . , ; : all ex ante succ inst x y a f P Q 1 2 7".split()
    + [" ", "\n", "% note\n", "$", "-", "'", "α1", "é"]
)


def _random_matrix(rng: random.Random, depth: int) -> str:
    """A matrix over the bound x, y in which negation, parentheses and
    the three connectives mix without regard to precedence."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["P(x)", "Q(a, y)", "x = f(y)", "R", "f(a) = a"])
    pick = rng.random()
    if pick < 0.2:
        return "~" + _random_matrix(rng, depth - 1)
    if pick < 0.35:
        return f"({_random_matrix(rng, depth - 1)})"
    op = rng.choice(["&", "|", "->"])
    return f"{_random_matrix(rng, depth - 1)} {op} {_random_matrix(rng, depth - 1)}"


def _mutate(rng: random.Random, text: str) -> str:
    lex = _LEXEME_RE.findall(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lex))
        op = rng.randrange(5)
        if op == 0 and len(lex) > 1:
            del lex[i]
        elif op == 1:
            lex.insert(i, lex[i])
        elif op == 2 and i + 1 < len(lex):
            lex[i], lex[i + 1] = lex[i + 1], lex[i]
        elif op == 3:
            lex[i] = rng.choice(_VOCABULARY)
        else:
            lex.insert(i, rng.choice(_VOCABULARY))
    return "".join(lex)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except InputError as err:
        return ("InputError", err.msg, err.line, err.col)


class TestAgainstReference:
    """The parser against the recursive-descent one it replaced
    (``oracles.reference_parse_input``): the same sequent and instance
    lists, node for node, or the same error at the same position."""

    MUTANTS_PER_INPUT = 160

    @staticmethod
    def _inputs(golden_text: str) -> list[str]:
        texts = [
            golden_text,
            gen.lemma_input(1, 2),
            gen.lemma_input(3, 0),
            gen.wide_disjunction_input(3),
        ]
        for seed in range(12):
            rng = random.Random(seed)
            texts.append(render_input(*gen.random_solvable_instance(rng)))
        rng = random.Random(0)
        for _ in range(20):
            texts.append(
                f"ante all x y: {_random_matrix(rng, 4)}.\n"
                f"succ {_random_matrix(rng, 3).replace('x', 'b')}.\n"
                "inst 1: (a, b); (f(a), a).\n"
            )
        return texts

    def test_same_result_on_inputs_and_their_mutants(self, golden_text):
        rng = random.Random(20)
        inputs = self._inputs(golden_text)
        mutants = [
            _mutate(rng, text)
            for text in inputs
            for _ in range(self.MUTANTS_PER_INPUT)
        ]
        assert len(mutants) >= 5000
        outcomes = {"parsed": 0, "InputError": 0}
        for text in inputs + mutants:
            got = _outcome(parse_input, text)
            assert got == _outcome(reference_parse_input, text), text
            outcomes["InputError" if got[0] == "InputError" else "parsed"] += 1
        # Both kinds of outcome are exercised in number.
        assert min(outcomes.values()) > 500, outcomes

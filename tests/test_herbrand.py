"""Term-set encoding, instance formulas, and Herbrand sequents."""

from __future__ import annotations

import random

import pytest

from cutintro.cnf import cnf_of_formulas
from cutintro.formulas import Atom, Eq
from cutintro.herbrand import (
    TermSet,
    decode_termset,
    encode_termset,
    herbrand_sequent,
    instance_formulas,
)
from cutintro.euf import Verdict
from cutintro.parser import parse_input
from cutintro.terms import App, Var, alpha, const, is_tag_head, tag_head

import gen
from gen import subterms
from oracles import decide_validity


class TestEncoding:
    def test_golden_termset_size(self, golden_termset):
        assert len(golden_termset.terms) == 12

    def test_one_tag_head_per_quantified_formula(self, golden, golden_termset):
        seq, hs = golden
        heads = {t.head for t in golden_termset.terms}
        assert heads == {"#f2", "#f3"}
        by_head = {
            h: sum(1 for t in golden_termset.terms if t.head == h)
            for h in heads
        }
        assert by_head == {
            "#f2": len(hs.instances[1]),
            "#f3": len(hs.instances[2]),
        }

    def test_tag_arity_matches_prefix_length(self, golden, golden_termset):
        seq, _ = golden
        for t in golden_termset.terms:
            assert is_tag_head(t.head)
            i = int(t.head[2:])
            assert len(t.args) == seq.k(i)

    def test_tags_never_nest(self, golden_termset):
        for t in golden_termset.terms:
            for s in subterms(t):
                if s is not t and isinstance(s, App):
                    assert not is_tag_head(s.head)

    def test_decode_round_trip_golden(self, golden, golden_termset):
        _, hs = golden
        assert decode_termset(golden_termset) == hs

    def test_decode_round_trip_random(self):
        for seed in range(30):
            rng = random.Random(seed)
            _, hs = gen.random_solvable_instance(rng)
            assert decode_termset(encode_termset(hs)) == hs, f"seed {seed}"

    def test_zero_arity_formulas_contribute_nothing(self):
        seq, hs = parse_input("ante P(a).\nsucc P(a).")
        ts = encode_termset(hs)
        assert ts.terms == frozenset()
        assert decode_termset(ts) == hs

    def test_decode_keeps_pattern_variables(self):
        ts = TermSet(frozenset({App(tag_head(1), (alpha(1),))}), 2)
        assert decode_termset(ts).instances == (
            frozenset({(alpha(1),)}),
            frozenset(),
        )

    @pytest.mark.parametrize(
        "term, message",
        [
            (Var("x"), "term x is not a tagged formula instance"),
            (App("f", (const("a"),)), "term f\\(a\\) is not a tagged"),
            (App(tag_head(3), (const("a"),)), "tags formula 3, but the "),
            (App(tag_head(0), ()), "tags formula 0, but the sequent has 2"),
        ],
    )
    def test_decode_rejects_untagged_and_out_of_range(self, term, message):
        with pytest.raises(ValueError, match=message):
            decode_termset(TermSet(frozenset({term}), 2))


class TestInstanceFormulas:
    def test_quantifier_free_formula_passes_through(self, golden):
        seq, hs = golden
        got = instance_formulas(seq, hs, 1)
        assert got == (seq.formula(1),)

    def test_each_tuple_yields_one_instance(self, golden):
        seq, hs = golden
        got = instance_formulas(seq, hs, 2)
        assert len(got) == len(hs.instances[1]) == 4
        a = const("a")

        def f(t):
            return App("f", (t,))

        def s(t):
            return App("s", (t,))

        assert Eq(f(a), s(s(a))) in got
        assert Eq(f(f(a)), s(s(f(a)))) in got

    def test_instances_are_ground(self, golden):
        seq, hs = golden
        from cutintro.formulas import formula_vars

        for i in range(1, seq.q + 1):
            for inst in instance_formulas(seq, hs, i):
                assert formula_vars(inst) == set()

    def test_instance_substitutes_in_order(self):
        seq, hs = parse_input(
            "ante all x y: P(x, y).\nsucc P(a, b).\ninst 1: (a, b)."
        )
        got = instance_formulas(seq, hs, 1)
        assert got == (Atom("P", (const("a"), const("b"))),)


class TestHerbrandSequent:
    def test_golden_is_valid(self, golden):
        seq, hs = golden
        hseq = herbrand_sequent(seq, hs)
        assert len(hseq.ante) == 1 + 4 + 8
        assert len(hseq.succ) == 1
        assert decide_validity(hseq) is Verdict.VALID

    def test_all_formulas_quantifier_free(self, golden):
        seq, hs = golden
        hseq = herbrand_sequent(seq, hs)
        # The clause form raises ValueError on a quantifier.
        cnf_of_formulas(hseq.ante, hseq.succ)

    def test_dropping_an_instance_breaks_validity(self, golden):
        seq, hs = golden
        from cutintro.herbrand import HerbrandStructure

        # Remove one implication instance; the chain no longer closes.
        pruned = list(hs.instances)
        rows = sorted(pruned[2], key=str)
        pruned[2] = frozenset(rows[:-1])
        hs2 = HerbrandStructure(tuple(pruned))
        hseq = herbrand_sequent(seq, hs2)
        assert decide_validity(hseq) is Verdict.INVALID

    def test_random_solvable_instances_are_valid(self):
        for seed in range(40):
            rng = random.Random(seed)
            seq, hs = gen.random_solvable_instance(rng)
            assert (
                decide_validity(herbrand_sequent(seq, hs)) is Verdict.VALID
            ), f"seed {seed}"

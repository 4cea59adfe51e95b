"""Clausification: equivalence, simplification, and the blowup cap."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutintro.cnf import (
    clause_formula,
    cnf_of_formulas,
    formula_of_cnf,
    simplify_clauses,
)
from cutintro.formulas import (
    And,
    Atom,
    Bottom,
    Eq,
    Imp,
    Not,
    Or,
    QuantBlock,
    Top,
)
from cutintro.herbrand import herbrand_sequent
from cutintro.limits import LimitReached
from cutintro.terms import Var, const

from oracles import _collect_atoms, _eval, reference_clauses
from test_formulas import formulas_strategy


def _models_agree(f, g) -> bool:
    """Propositional equivalence by truth table (equations opaque)."""
    atoms: list = []
    _collect_atoms(f, atoms)
    _collect_atoms(g, atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        asg = dict(zip(atoms, bits))
        if _eval(f, asg) != _eval(g, asg):
            return False
    return True


P = Atom("P", ())
Q = Atom("Q", ())
R = Atom("R", ())


class TestToCnf:
    """The clause form of one asserted formula."""

    def test_literal(self):
        assert cnf_of_formulas([P], []) == frozenset({frozenset({(True, P)})})
        assert cnf_of_formulas([Not(P)], []) == frozenset(
            {frozenset({(False, P)})}
        )

    def test_implication(self):
        got = cnf_of_formulas([Imp(P, Q)], [])
        assert got == frozenset({frozenset({(False, P), (True, Q)})})

    def test_distribution(self):
        got = cnf_of_formulas([Or(And(P, Q), R)], [])
        assert got == frozenset(
            {
                frozenset({(True, P), (True, R)}),
                frozenset({(True, Q), (True, R)}),
            }
        )

    def test_top_produces_no_clauses(self):
        assert cnf_of_formulas([Top()], []) == frozenset()

    def test_bottom_produces_empty_clause(self):
        assert frozenset() in cnf_of_formulas([Bottom()], [])

    def test_tautologous_clauses_removed(self):
        assert cnf_of_formulas([Or(P, Not(P))], []) == frozenset()

    def test_subsumed_clauses_removed(self):
        got = cnf_of_formulas([And(P, Or(P, Q))], [])
        assert got == frozenset({frozenset({(True, P)})})

    @settings(max_examples=150)
    @given(formulas_strategy())
    def test_equivalent_to_input(self, f):
        cnf = cnf_of_formulas([f], [])
        assert _models_agree(f, formula_of_cnf(cnf))

    @settings(max_examples=100)
    @given(formulas_strategy())
    def test_round_trip_is_fixpoint(self, f):
        cnf = cnf_of_formulas([f], [])
        assert cnf_of_formulas([formula_of_cnf(cnf)], []) == cnf


class TestCap:
    def test_blowup_raises(self):
        # (p1&q1) | (p2&q2) | ... distributes to 2^n clauses.
        n = 16
        parts = [
            And(Atom(f"P{i}", ()), Atom(f"Q{i}", ())) for i in range(n)
        ]
        f = parts[0]
        for p in parts[1:]:
            f = Or(f, p)
        with pytest.raises(LimitReached):
            cnf_of_formulas([f], [], cap=1000)

    def test_quantifier_raises_value_error(self):
        f = QuantBlock("all", ("x",), Atom("P", (Var("x"),)))
        with pytest.raises(ValueError, match="not quantifier-free"):
            cnf_of_formulas([P], [f])

    @settings(max_examples=300)
    @given(
        st.lists(formulas_strategy(), max_size=2),
        st.lists(formulas_strategy(), max_size=2),
        st.integers(min_value=0, max_value=40),
    )
    def test_one_walk_matches_the_two_pass_reference(
        self, asserted, denied, cap
    ):
        # The same clause set, or LimitReached exactly where negation normal
        # form followed by distribution spends more than the cap.
        want = reference_clauses(asserted, denied, cap)
        if want is None:
            with pytest.raises(LimitReached):
                cnf_of_formulas(asserted, denied, cap)
        else:
            assert cnf_of_formulas(asserted, denied, cap) == (
                simplify_clauses(want)
            )

    def test_cap_allows_formulas_at_the_limit(self):
        # Distributes to {P,R} and {Q,R}: four literals exactly.
        assert len(cnf_of_formulas([Or(And(P, Q), R)], [], cap=4)) == 2
        with pytest.raises(LimitReached):
            cnf_of_formulas([Or(And(P, Q), R)], [], cap=3)

    def test_leaves_no_reference_cycles(self, golden, leaves_no_cycles):
        # The walk passes its budget as an argument; as a closure calling
        # itself it left one reference cycle per clause form.
        hseq = herbrand_sequent(*golden)
        cnf = leaves_no_cycles(
            lambda: cnf_of_formulas(hseq.ante, hseq.succ)
        )
        assert cnf


class TestSimplify:
    def test_removes_duplicates_and_supersets(self):
        c1 = frozenset({(True, P)})
        c2 = frozenset({(True, P), (True, Q)})
        assert simplify_clauses(frozenset({c1, c2})) == frozenset({c1})

    def test_removes_tautologies(self):
        taut = frozenset({(True, P), (False, P)})
        keep = frozenset({(True, Q)})
        assert simplify_clauses(frozenset({taut, keep})) == frozenset({keep})

    def test_keeps_incomparable_clauses(self):
        c1 = frozenset({(True, P), (True, Q)})
        c2 = frozenset({(True, P), (True, R)})
        assert simplify_clauses(frozenset({c1, c2})) == frozenset({c1, c2})


class TestRefutationClauses:
    def test_denied_formulas_are_negated(self):
        got = cnf_of_formulas([P], [Q])
        assert got == frozenset(
            {frozenset({(True, P)}), frozenset({(False, Q)})}
        )

    def test_unsatisfiable_pair_gives_complementary_units(self):
        got = cnf_of_formulas([P], [P])
        assert frozenset({(True, P)}) in got
        assert frozenset({(False, P)}) in got

    @settings(max_examples=60)
    @given(formulas_strategy(), formulas_strategy())
    def test_matches_direct_cnf_of_conjunction(self, f, g):
        combined = cnf_of_formulas([f], [g])
        direct = cnf_of_formulas([And(f, Not(g))], [])
        assert _models_agree(
            formula_of_cnf(combined), formula_of_cnf(direct)
        )


class TestClauseFormula:
    def test_clause_renders_as_disjunction(self):
        c = frozenset({(True, P), (False, Q)})
        f = clause_formula(c)
        assert _models_agree(f, Or(P, Not(Q)))

    def test_empty_clause_is_false(self):
        assert clause_formula(frozenset()) == Bottom()

    def test_empty_cnf_is_true(self):
        assert formula_of_cnf(frozenset()) == Top()

    def test_formula_of_cnf_deterministic(self):
        c1 = frozenset({(True, P), (False, Q)})
        c2 = frozenset({(True, R)})
        cnf = frozenset({c1, c2})
        assert formula_of_cnf(cnf) == formula_of_cnf(
            frozenset({c2, c1})
        )

"""Schematic extended Herbrand sequents, solutions, and their improvement."""

from __future__ import annotations

import random

import pytest

from cutintro.cutformula import (
    SchemaError,
    SchematicEHS,
    build_schematic_ehs,
    canonical_solution,
    check_solution,
    check_solution_verdict,
    forget,
    forget_steps,
    guard_sequent,
    select_best,
    sf_improve,
    solution_sequent,
    subst_clauses,
)
from cutintro.decomposition import (
    StructureDecomposition,
    build_delta_table,
    fold_delta_table,
    to_structure_decomposition,
)
from cutintro.euf import InternalOracle, Verdict
from cutintro.formulas import (
    Atom,
    Eq,
    Imp,
    Not,
    Or,
    formula_size,
    render_formula,
)
from cutintro.herbrand import encode_termset
from cutintro.parser import parse_input
from cutintro.proofs import build_proof_with_cut
from cutintro.terms import App, Var, alpha, const

import gen

a, b = const("a"), const("b")


def f(t):
    return App("f", (t,))


def _mini_ehs():
    seq, _ = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a.")
    sd = StructureDecomposition(
        u=(frozenset({(alpha(1),)}), frozenset()),
        w=frozenset({(a,)}),
    )
    return build_schematic_ehs(seq, sd)


def _solved_random_instance(seed: int):
    """Random solvable instance folded down to a schematic sequent, or None
    when its term set has no decomposition."""
    rng = random.Random(seed)
    seq, hs = gen.random_solvable_instance(rng)
    ts = encode_termset(hs)
    if len(ts.terms) > 16:
        return None
    dt = build_delta_table(ts)
    decs = fold_delta_table(dt, ts)
    if not decs:
        return None
    sd = to_structure_decomposition(decs[0], seq.q)
    return build_schematic_ehs(seq, sd)


class TestBuildSchematicEHS:
    def test_golden_shape(self, golden_ehs):
        assert golden_ehs.arity == 2
        assert golden_ehs.size == 10
        assert len(golden_ehs.gamma) == 9
        assert len(golden_ehs.delta) == 1
        assert len(golden_ehs.w) == 2

    def test_golden_gamma_contains_lifted_instances(self, golden_ehs):
        rendered = {render_formula(g) for g in golden_ehs.gamma}
        assert "P(f(f(f(f(a)))), a)" in rendered
        assert "f(α1) = s(s(α1))" in rendered
        assert (
            "P(s(s(s(s(α1)))), α2) -> P(s(s(s(α1))), s(α2))" in rendered
        )

    def test_golden_delta(self, golden_ehs):
        assert [render_formula(d) for d in golden_ehs.delta] == [
            "P(a, f(f(f(f(a)))))"
        ]

    def test_witness_rows_sorted(self, golden_ehs):
        ffa = f(f(a))
        assert golden_ehs.w == ((a, ffa), (ffa, a))

    def test_instance_sequent_combines_gamma_delta(self, golden_ehs):
        s = golden_ehs.instance_sequent()
        assert s.ante == golden_ehs.gamma
        assert s.succ == golden_ehs.delta

    def test_shape_mismatch_rejected(self):
        seq, _ = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a.")
        with pytest.raises(SchemaError):
            build_schematic_ehs(
                seq,
                StructureDecomposition(
                    u=(frozenset(),) * 3, w=frozenset({(a,)})
                ),
            )


class TestCheckSolution:
    def test_canonical_solves_golden(self, golden_ehs, golden_oracle):
        can = canonical_solution(golden_ehs)
        assert can.provenance == ("canonical",)
        assert can.size == 28
        assert check_solution(golden_ehs, can.formula, golden_oracle)

    def test_known_small_solution(self, golden_ehs, golden_oracle):
        # Chains two implication steps through f(f(_)).
        small = Or(
            Atom("P", (alpha(1), f(f(alpha(2))))),
            Not(Atom("P", (f(f(alpha(1))), alpha(2)))),
        )
        assert check_solution(golden_ehs, small, golden_oracle)

    def test_non_solution_rejected(self, golden_ehs, golden_oracle):
        assert not check_solution(
            golden_ehs, Atom("P", (alpha(1), alpha(2))), golden_oracle
        )

    def test_out_of_range_variable_rejected(self, golden_ehs, golden_oracle):
        with pytest.raises(SchemaError, match="α3"):
            check_solution(
                golden_ehs, Atom("P", (alpha(3), a)), golden_oracle
            )

    def test_foreign_variable_rejected(self, golden_ehs, golden_oracle):
        with pytest.raises(SchemaError, match="x"):
            check_solution(
                golden_ehs, Atom("P", (Var("x"), a)), golden_oracle
            )

    def test_verdict_form(self, golden_ehs, golden_oracle):
        can = canonical_solution(golden_ehs)
        assert (
            check_solution_verdict(golden_ehs, can.formula, golden_oracle)
            is Verdict.VALID
        )

    def test_mini_sequent_shapes(self, oracle):
        e = _mini_ehs()
        A = Atom("P", (alpha(1),))
        assert solution_sequent(e, A).render() == "P(α1) -> P(a), P(α1) |- P(a)"
        assert guard_sequent(e, A).render() == "P(a), P(α1) |- P(a)"
        assert check_solution(e, A, oracle)

    def test_canonical_solves_random_instances(self, oracle):
        solved = 0
        for seed in range(30):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            can = canonical_solution(e)
            assert check_solution(e, can.formula, oracle), f"seed {seed}"
            solved += 1
        assert solved >= 15


class TestForget:
    def test_resolution_replaces_the_pair(self):
        P = lambda t: Atom("P", (t,))
        c1 = frozenset({(True, P(a))})
        c2 = frozenset({(False, P(a)), (True, P(b))})
        succ = forget(frozenset({c1, c2}))
        assert frozenset({frozenset({(True, P(b))})}) in succ

    def test_paramodulation_rewrites_single_occurrence(self):
        P = lambda t: Atom("P", (t,))
        eq = frozenset({(True, Eq(f(a), b))})
        lit = frozenset({(True, P(f(a)))})
        succ = forget(frozenset({eq, lit}))
        assert frozenset({frozenset({(True, P(b))})}) in succ

    def test_paramodulation_both_orientations(self):
        P = lambda t: Atom("P", (t,))
        eq = frozenset({(True, Eq(b, f(a)))})
        lit = frozenset({(True, P(f(a)))})
        succ = forget(frozenset({eq, lit}))
        assert frozenset({frozenset({(True, P(b))})}) in succ

    def test_no_successors_without_interaction(self):
        P, Q = Atom("P", ()), Atom("Q", ())
        cnf = frozenset({frozenset({(True, P)}), frozenset({(True, Q)})})
        assert forget(cnf) == []

    def test_step_strings_name_both_parents(self):
        P = lambda t: Atom("P", (t,))
        c1 = frozenset({(True, P(a))})
        c2 = frozenset({(False, P(a)), (True, P(b))})
        steps = [s for _, s in forget_steps(frozenset({c1, c2}))]
        assert any("=>" in s and "P(a)" in s and "P(b)" in s for s in steps)

    def test_tautologous_results_are_dropped(self):
        P, Q = Atom("P", ()), Atom("Q", ())
        c1 = frozenset({(True, P), (True, Q)})
        c2 = frozenset({(False, P), (False, Q)})
        # Both resolvents are tautologies {Q, ~Q} and {P, ~P}: normalization
        # erases them, leaving the empty successor set.
        succ = forget(frozenset({c1, c2}))
        assert succ == [frozenset()]

    def test_successors_shrink_or_preserve_clause_count(self):
        P = lambda t: Atom("P", (t,))
        cnf = frozenset(
            {
                frozenset({(True, P(a))}),
                frozenset({(False, P(a)), (True, P(b))}),
                frozenset({(True, Eq(a, b))}),
            }
        )
        for succ in forget(cnf):
            assert len(succ) < len(cnf)

    def test_subst_clauses_grounds_variables(self):
        P = lambda t: Atom("P", (t,))
        cnf = frozenset({frozenset({(True, P(alpha(1)))})})
        got = subst_clauses(cnf, {alpha(1).name: a})
        assert got == frozenset({frozenset({(True, P(a))})})


class TestSFImprove:
    def test_golden_run(self, golden_sf):
        assert golden_sf.visited == 192
        assert not golden_sf.capped
        assert len(golden_sf.candidates) == golden_sf.visited

    def test_golden_best_candidate(self, golden_sf):
        best = select_best(golden_sf.candidates)
        assert best.size == 4
        assert render_formula(best.formula) == (
            "P(α1, f(f(α2))) | ~P(f(f(α1)), α2)"
        )

    def test_every_candidate_is_a_solution(
        self, golden_ehs, golden_sf, golden_oracle
    ):
        for cand in golden_sf.candidates:
            assert check_solution(
                golden_ehs, cand.formula, golden_oracle
            ), render_formula(cand.formula)

    def test_canonical_is_entailed_by_every_candidate(
        self, golden_ehs, golden_sf, golden_oracle
    ):
        # The starting formula is the least solution: it implies every
        # improvement the search reaches.
        from cutintro.sequents import Sequent

        can = canonical_solution(golden_ehs).formula
        for cand in golden_sf.candidates[:40]:
            seq = Sequent((can,), (cand.formula,))
            assert golden_oracle.validity(seq) is Verdict.VALID

    def test_provenance_chains_back_to_canonical(self, golden_sf):
        for cand in golden_sf.candidates:
            assert cand.provenance[0] == "canonical"
            for step in cand.provenance[1:]:
                assert "=>" in step

    def test_node_cap_reported(self, golden_ehs, golden_oracle):
        res = sf_improve(
            golden_ehs,
            canonical_solution(golden_ehs),
            golden_oracle,
            node_cap=10,
        )
        assert res.capped
        assert res.visited <= 10

    def test_select_best_prefers_smaller(self, golden_sf):
        best = select_best(golden_sf.candidates)
        assert all(best.size <= c.size for c in golden_sf.candidates)

    def test_every_candidate_builds_a_proof(
        self, golden_ehs, golden_sf, golden_oracle
    ):
        # Passing the guard must be enough for build_proof_with_cut.
        for cand in golden_sf.candidates:
            build_proof_with_cut(golden_ehs, cand.formula, golden_oracle)

    def test_every_candidate_builds_a_proof_on_random_instances(self):
        built = 0
        for seed in range(60):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            oracle = InternalOracle()
            can = canonical_solution(e)
            assert check_solution(e, can.formula, oracle), f"seed {seed}"
            res = sf_improve(e, can, oracle, node_cap=300)
            for cand in res.candidates:
                build_proof_with_cut(e, cand.formula, oracle)
            built += 1
        assert built >= 40

    def test_random_instances_improve_soundly(self, oracle):
        checked = 0
        for seed in range(12):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            res = sf_improve(e, canonical_solution(e), oracle, node_cap=300)
            best = select_best(res.candidates)
            assert best.size <= canonical_solution(e).size
            for cand in res.candidates[:25]:
                assert check_solution(e, cand.formula, oracle), f"seed {seed}"
            checked += 1
        assert checked >= 5

"""Schematic extended Herbrand sequents, solutions, and their improvement."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import cutintro.cutformula as cutformula
from cutintro.cutformula import (
    SchemaError,
    SolutionCandidate,
    build_schematic_ehs,
    candidates_by_sort_key,
    canonical_solution,
    check_solution,
    sf_improve,
)
from cutintro.decomposition import build_delta_table, fold_delta_table
from cutintro.cnf import cnf_of_formulas, formula_of_cnf
from cutintro.euf import InternalOracle, Verdict
from cutintro.formulas import (
    And,
    Atom,
    Eq,
    Formula,
    Not,
    Or,
    apply_subst,
    formula_size,
    formula_vars,
    render_formula,
)
from cutintro.herbrand import (
    HerbrandStructure,
    TermSet,
    decode_termset,
    encode_termset,
    herbrand_sequent,
)
from cutintro.parser import parse_input
from cutintro.proofs import build_proof_with_cut
from cutintro.sequents import Sequent
from cutintro.terms import App, Var, alpha, alpha_subst, const, is_alpha

import bundled_search
import gen
import oracles
from oracles import decide_validity, guard_clauses, subst_clauses
from test_euf import _Recording

a, b = const("a"), const("b")


def f(t):
    return App("f", (t,))


def forget(cnf):
    """Every clause set one forgetful inference step reaches, as the
    reference search generates them from the package's inference rule."""
    return [succ for succ, _ in oracles.reference_forget_moves(cnf, None)]


def _same_search(e, node_cap: int = 10_000, shared_pairs: bool = True):
    """Run ``sf_improve`` and ``oracles.reference_sf_improve``, each with
    its own oracle, and check that they ask the same clause sets in the
    same order and return the same candidates (clauses, steps and
    order), ``visited`` and ``capped``.  Returns the package's result and
    its oracle."""
    got_oracle = _Recording(InternalOracle())
    want_oracle = _Recording(InternalOracle())
    got = sf_improve(e, got_oracle, node_cap=node_cap)
    want = oracles.reference_sf_improve(
        e, want_oracle, node_cap=node_cap, shared_pairs=shared_pairs
    )
    assert got_oracle.clause_sets == want_oracle.clause_sets
    assert (got.visited, got.capped) == (want.visited, want.capped)
    assert [(c.clauses, c.steps) for c in got.candidates] == [
        (c.clauses, c.steps) for c in want.candidates
    ]
    return got, got_oracle


def _mini_ehs():
    seq, _ = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a.")
    u = HerbrandStructure((frozenset({(alpha(1),)}), frozenset()))
    return build_schematic_ehs(seq, u, {(a,)})


def _candidate(cnf) -> SolutionCandidate:
    """A candidate of the clause set, over a clause table of its own."""
    table = list(cnf)
    return SolutionCandidate(frozenset(range(len(table))), table)


def _solved_random_instance(seed: int):
    """Random solvable instance folded down to a schematic sequent, or None
    when its term set has no decomposition."""
    rng = random.Random(seed)
    seq, hs = gen.random_solvable_instance(rng)
    ts = encode_termset(hs)
    if len(ts.terms) > 16:
        return None
    decs = fold_delta_table(build_delta_table(ts))
    if not decs:
        return None
    u = decode_termset(TermSet(decs[0].u, seq.q))
    return build_schematic_ehs(seq, u, decs[0].w)


class TestBuildSchematicEHS:
    def test_golden_shape(self, golden_ehs):
        assert golden_ehs.arity == 2
        # |U| + |W|: the decomposition's size.
        u_size = sum(map(len, golden_ehs.u.instances))
        assert u_size + len(golden_ehs.w) == 10
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

    def test_side_clauses_are_the_canonical_clause_form(self, golden_ehs):
        # sf_improve starts at the side clauses, not at the canonical
        # solution's clause form: the two are one set.
        assert golden_ehs.side_clauses == cnf_of_formulas(
            golden_ehs.gamma, golden_ehs.delta
        )
        random_ehs = list(filter(None, map(_solved_random_instance, range(200))))
        assert len(random_ehs) >= 100
        for e in [golden_ehs, *random_ehs]:
            can = canonical_solution(e)
            assert cnf_of_formulas((can,), ()) == e.side_clauses

    def test_shape_mismatch_rejected(self):
        seq, _ = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a.")
        with pytest.raises(SchemaError):
            build_schematic_ehs(
                seq, HerbrandStructure((frozenset(),) * 3), {(a,)}
            )

    @pytest.mark.parametrize(
        "u1, w, message",
        [
            ({(alpha(1),)}, set(), "must bind at least one variable"),
            ({(alpha(1),)}, {(Var("x"),)}, "vector x is not ground"),
            ({(alpha(1), a)}, {(a,)}, "formula 1 expects 1-tuples, got 2"),
            ({(Var("x"),)}, {(a,)}, "non-schema variable x"),
        ],
    )
    def test_schema_checks_name_the_fault(self, u1, w, message):
        seq, _ = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a.")
        u = HerbrandStructure((frozenset(u1), frozenset()))
        with pytest.raises(SchemaError, match=message):
            build_schematic_ehs(seq, u, w)

    def test_prefix_free_formula_takes_no_tuples(self):
        seq, _ = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a.")
        u = HerbrandStructure((frozenset(), frozenset({(alpha(1),)})))
        with pytest.raises(SchemaError, match="formula 2 has no quantifier"):
            build_schematic_ehs(seq, u, {(a,)})

    def test_rows_instantiate_to_the_herbrand_sequent(self):
        # Expansion: U∘W is the term set, so W's rows turn the sequent of
        # the patterns into the sequent of the instances.
        checked = 0
        for seed in range(30):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            seq, hs = gen.random_solvable_instance(random.Random(seed))
            want = herbrand_sequent(seq, hs)
            for side, target in ((e.gamma, want.ante), (e.delta, want.succ)):
                got = {
                    apply_subst(g, alpha_subst(row))
                    for g in side
                    for row in e.w
                }
                assert got == set(target), f"seed {seed}"
            checked += 1
        assert checked >= 15


class TestCheckSolution:
    def test_canonical_solves_golden(
        self, golden_ehs, golden_sf, golden_oracle
    ):
        can = canonical_solution(golden_ehs)
        assert golden_sf.candidates[0].provenance == ("canonical",)
        assert formula_size(can) == 28
        assert check_solution(golden_ehs, can, golden_oracle)

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

    def test_mini_sequent_shapes(self, oracle):
        e = _mini_ehs()
        A = Atom("P", (alpha(1),))
        unit = lambda sign, t: frozenset({(sign, Atom("P", (t,)))})
        assert e.side_clauses == {unit(True, alpha(1)), unit(False, a)}
        guard = guard_clauses(e, frozenset({unit(True, alpha(1))}))
        assert guard == e.side_clauses | {unit(True, a)}
        assert check_solution(e, A, oracle)

    def test_canonical_check_is_one_query(self, golden_ehs):
        oracle = InternalOracle()
        assert check_solution(golden_ehs, canonical_solution(golden_ehs), oracle)
        assert oracle.calls == 1

    def test_canonical_solves_random_instances(self, oracle):
        solved = 0
        for seed in range(30):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            can = canonical_solution(e)
            assert check_solution(e, can, oracle), f"seed {seed}"
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

    def test_shared_pair_memo_changes_no_move(self, golden_ehs, monkeypatch):
        # One pair memo across every node of the bundled search: the
        # search asks what a reference that recomputes each node's pairs
        # asks, in the same order, and computes under half of the pairs.
        computed = []
        pair_successors = cutformula._pair_successors
        monkeypatch.setattr(
            cutformula,
            "_pair_successors",
            lambda ci, cj: computed.append(1) or pair_successors(ci, cj),
        )
        res, _ = _same_search(golden_ehs, shared_pairs=False)
        asked = sum(
            len(c.clauses) * (len(c.clauses) - 1) // 2 for c in res.candidates
        )
        assert 0 < len(computed) < asked / 2

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

    def test_memos_match_their_definitions(self, golden_ehs):
        # Every guard the bundled search asks, built from the clause
        # table's instances, is the definition: the side clauses and the
        # instances under W of a set of clauses that all mention an α.
        # Every visited node but the first had its guard asked, and the
        # queries are the reference search's, in its order.
        res, oracle = _same_search(golden_ehs)
        assert res.visited == 192 and len(oracle.clause_sets) >= 350
        substs = [alpha_subst(row) for row in golden_ehs.w]

        def guard(clauses):
            return golden_ehs.side_clauses.union(
                *(subst_clauses(clauses, m) for m in substs)
            )

        asked = set(oracle.clause_sets)
        for cand in res.candidates[1:]:
            assert guard(cand.clauses) in asked
        for cand in res.candidates:
            for c in cand.clauses:
                assert any(
                    any(is_alpha(v) for v in formula_vars(x)) for _, x in c
                )

    def test_golden_best_candidate(self, golden_sf):
        best = min(golden_sf.candidates, key=SolutionCandidate.sort_key)
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

        can = canonical_solution(golden_ehs)
        for cand in golden_sf.candidates[:40]:
            seq = Sequent((can,), (cand.formula,))
            assert golden_oracle.validity(seq) is Verdict.VALID

    def test_provenance_chains_back_to_canonical(self, golden_sf):
        for cand in golden_sf.candidates:
            assert cand.provenance[0] == "canonical"
            for step in cand.provenance[1:]:
                assert "=>" in step

    def test_node_cap_reported(self, golden_ehs, golden_oracle):
        res = sf_improve(golden_ehs, golden_oracle, node_cap=10)
        assert res.capped
        assert res.visited <= 10

    def test_visiting_order_is_reproducible_at_one_hash_seed(self):
        # Term hashes derive from string hashes alone, so two processes
        # at one PYTHONHASHSEED iterate sets and dicts of terms alike and
        # visit the nodes in one order.
        first, second = (bundled_search.run("0") for _ in range(2))
        assert first["var_hash"] == second["var_hash"]
        assert len(first["visited"]) == 192
        assert first["visited"] == second["visited"]

    def test_sort_key_prefers_smaller(self, golden_sf):
        best = min(golden_sf.candidates, key=SolutionCandidate.sort_key)
        assert all(best.size <= c.size for c in golden_sf.candidates)

    def test_candidates_by_sort_key_is_the_sorted_order(self, golden_sf):
        lists = [golden_sf.candidates]
        for seed in range(200):
            rng = random.Random(seed)
            formulas = []
            for _ in range(rng.randint(0, 4)):
                seq = gen.random_ground_sequent(rng)
                formulas += [*seq.ante, *seq.succ]
            # Equal formulas too: ties on the whole key keep their order.
            lists.append(
                [_candidate(cnf_of_formulas([f], [])) for f in formulas]
            )
        for cands in lists:
            want = sorted(cands, key=SolutionCandidate.sort_key)
            got = list(candidates_by_sort_key(cands))
            assert list(map(id, got)) == list(map(id, want))

    def test_candidates_by_sort_key_renders_only_size_ties_reached(
        self, golden_sf, monkeypatch
    ):
        rendered = []
        render = cutformula.render_formula
        monkeypatch.setattr(
            cutformula,
            "render_formula",
            lambda f: rendered.append(f) or render(f),
        )
        sizes = Counter(c.size for c in golden_sf.candidates)
        assert max(sizes.values()) > 1 and min(sizes.values()) == 1
        order = candidates_by_sort_key(golden_sf.candidates)
        first = next(order)
        smallest = sizes[first.size]
        assert len(rendered) == (smallest if smallest > 1 else 0)
        list(order)
        assert len(rendered) == sum(n for n in sizes.values() if n > 1)

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
            assert check_solution(e, can, oracle), f"seed {seed}"
            res = sf_improve(e, oracle, node_cap=300)
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
            res = sf_improve(e, oracle, node_cap=300)
            best = min(res.candidates, key=SolutionCandidate.sort_key)
            assert best.size <= formula_size(canonical_solution(e))
            for cand in res.candidates[:25]:
                assert check_solution(e, cand.formula, oracle), f"seed {seed}"
            checked += 1
        assert checked >= 5


NODE_CAPS = (1, 2, 5, 10_000)


class TestSearchAgainstReference:
    """The search on clause ids equals the search on clause sets it
    replaced (``oracles.reference_sf_improve``): the same queries in the
    same order, and the same candidates, ``visited`` and ``capped``."""

    @pytest.mark.parametrize("node_cap", NODE_CAPS)
    def test_bundled_example(self, golden_ehs, node_cap):
        res, _ = _same_search(golden_ehs, node_cap)
        assert res.visited == min(node_cap, 192)

    def test_random_instances(self):
        checked = capped = 0
        for seed in range(300):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            for node_cap in NODE_CAPS:
                res, _ = _same_search(e, node_cap)
                capped += res.capped and node_cap > 1
            checked += 1
        assert checked >= 200
        assert capped >= 50

    @staticmethod
    def _two_clause_ehs(first: str, second: str, succ: str):
        """The sequent ∀x A(x), ∀x B(x) ⊢ C over the rows {(a,)}."""
        seq, _ = parse_input(
            f"ante all x: {first}.\nante all x: {second}.\n"
            f"succ {succ}.\ninst 1: a.\ninst 2: a."
        )
        u = HerbrandStructure(
            (frozenset({(alpha(1),)}), frozenset({(alpha(1),)}), frozenset())
        )
        return build_schematic_ehs(seq, u, {(a,)})

    def test_alpha_free_result_is_dropped(self):
        # Resolving ~P(α1) with P(α1) | Q(a) leaves Q(a), which mentions
        # no α: the successor is the empty clause set, and its step still
        # names Q(a).  No bundled or random search meets such a result.
        e = self._two_clause_ehs("P(x) | Q(a)", "~P(x)", "Q(a)")
        res, _ = _same_search(e)
        assert [c.clauses for c in res.candidates][1:] == [frozenset()]
        assert res.candidates[1].provenance[1].endswith("=> [Q(a)]")

    def test_tautological_result_is_dropped(self):
        # Both resolvents of P(α1) | Q(α1) and ~P(α1) | ~Q(α1) are
        # tautologies, so the one successor is the empty clause set,
        # whose guard is the side clauses alone.  No bundled or random
        # search meets such a result either.
        e = self._two_clause_ehs("P(x) | Q(x)", "~P(x) | ~Q(x)", "R(a)")
        res, oracle = _same_search(e)
        assert oracle.clause_sets == [e.side_clauses]
        assert res.visited == 1

    def test_candidate_sizes_build_no_formula(self, golden_ehs):
        can = canonical_solution(golden_ehs)
        res = sf_improve(golden_ehs, InternalOracle(), node_cap=60)
        # The canonical solution is a plain formula; the search's
        # candidates are clause sets, sized without a formula.
        assert formula_size(can) == 28
        sizes = [cand.size for cand in res.candidates]
        assert all(cand._formula is None for cand in res.candidates)
        for cand, size in zip(res.candidates, sizes):
            assert cand.formula == formula_of_cnf(cand.clauses)
            assert size == formula_size(cand.formula)


def _random_alpha_formula(rng: random.Random, atoms: list) -> Formula:
    def go(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.3:
            atom = rng.choice(atoms)
            return atom if rng.random() < 0.5 else Not(atom)
        return rng.choice((And, Or))(go(depth - 1), go(depth - 1))

    return go(2)


class TestCheckSolutionAgainstReference:
    """The clause-level check, Γ' ⊢ Δ', A per clause of A plus the guard,
    decides as the implication sequent A → ⋀A(w̄), Γ' ⊢ Δ' does."""

    @staticmethod
    def _agree(e, a: Formula, oracle) -> bool:
        got = check_solution(e, a, oracle)
        assert got == oracles.reference_check_solution(e, a), render_formula(a)
        return got

    def test_golden_formulas(self, golden_ehs, golden_oracle):
        small = Or(
            Atom("P", (alpha(1), f(f(alpha(2))))),
            Not(Atom("P", (f(f(alpha(1))), alpha(2)))),
        )
        for a, want in (
            (canonical_solution(golden_ehs), True),
            (small, True),
            (Atom("P", (alpha(1), alpha(2))), False),
        ):
            assert self._agree(golden_ehs, a, golden_oracle) is want

    def test_golden_sf_candidates(self, golden_ehs, golden_sf, golden_oracle):
        for cand in golden_sf.candidates:
            assert self._agree(golden_ehs, cand.formula, golden_oracle)

    def test_random_instances(self):
        checked = 0
        for seed in range(12):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            oracle = InternalOracle()
            can = canonical_solution(e)
            assert self._agree(e, can, oracle), f"seed {seed}"
            res = sf_improve(e, oracle, node_cap=300)
            for cand in res.candidates[:25]:
                assert self._agree(e, cand.formula, oracle), f"seed {seed}"
            checked += 1
        assert checked >= 5

    def test_formulas_the_sides_do_not_entail(self, golden_ehs):
        # Γ' ⊬ Δ', A fails half (i) of the check.  Strengthening the
        # canonical solution, or a contradiction, keeps the guard (ii),
        # so only (i) rejects those.
        e, rng = golden_ehs, random.Random(7)
        can = canonical_solution(e)
        atoms = sorted(
            {atom for c in e.side_clauses for _, atom in c}, key=repr
        )
        oracle = InternalOracle()
        rejected = guard_only = 0
        for i in range(60):
            x = _random_alpha_formula(rng, atoms)
            a = (x, And(can, x), And(x, Not(x)))[i % 3]
            entailed = decide_validity(
                Sequent(e.gamma, (*e.delta, a)), cnf_cap=10**6
            )
            assert entailed is not Verdict.UNKNOWN
            if entailed is Verdict.VALID:
                continue
            assert not self._agree(e, a, oracle), render_formula(a)
            rejected += 1
            guard = guard_clauses(e, cnf_of_formulas([a], []))
            if oracle.refutation(guard) is Verdict.VALID:
                guard_only += 1
        assert rejected >= 30
        assert guard_only >= 20


class TestCheckSolutionQueries:
    """``check_solution`` asks one query (i) per clause of A outside the
    side clauses, then the guard as ``oracles.guard_clauses`` defines
    it, and nothing else."""

    @staticmethod
    def _asks_the_definition(e, a: Formula, oracle) -> None:
        rec = _Recording(oracle)
        assert check_solution(e, a, rec), render_formula(a)
        side, clauses = e.side_clauses, cnf_of_formulas([a], [])
        entailed = [
            side | {frozenset([(not sign, atom)]) for sign, atom in c}
            for c in clauses - side
        ]
        guard = guard_clauses(e, clauses)
        assert Counter(rec.clause_sets) == Counter([*entailed, guard])
        assert rec.clause_sets[-1] == guard

    def test_canonical_asks_what_its_rebuilt_clause_form_asks(
        self, golden_ehs, monkeypatch
    ):
        # The canonical solution takes its clause form from the side
        # clauses.  With the identity test defeated, it is rebuilt from
        # the formula, as for any other A: the oracle must see the same
        # clause sets in the same order.
        random_ehs = list(filter(None, map(_solved_random_instance, range(200))))
        assert len(random_ehs) >= 100
        cases = [golden_ehs, *random_ehs]

        def asked(e):
            rec = _Recording(InternalOracle())
            verdict = check_solution(e, canonical_solution(e), rec)
            return verdict, rec.clause_sets

        for e in cases:
            e.side_clauses  # built here, before the rebuild is barred
        rebuild = cutformula.cnf_of_formulas
        monkeypatch.setattr(
            cutformula,
            "cnf_of_formulas",
            lambda *args: pytest.fail("the clause form was rebuilt"),
        )
        taken = list(map(asked, cases))
        monkeypatch.setattr(cutformula, "cnf_of_formulas", rebuild)
        monkeypatch.setattr(cutformula, "canonical_solution", lambda e: None)
        assert list(map(asked, cases)) == taken
        assert all(verdict for verdict, _ in taken)

    def test_golden_sf_candidates(self, golden_ehs, golden_sf, golden_oracle):
        self._asks_the_definition(
            golden_ehs, canonical_solution(golden_ehs), golden_oracle
        )
        for cand in golden_sf.candidates:
            self._asks_the_definition(golden_ehs, cand.formula, golden_oracle)

    def test_random_instances(self):
        checked = 0
        for seed in range(12):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            oracle = InternalOracle()
            self._asks_the_definition(e, canonical_solution(e), oracle)
            res = sf_improve(e, oracle, node_cap=300)
            for cand in res.candidates[:25]:
                self._asks_the_definition(e, cand.formula, oracle)
            checked += 1
        assert checked >= 5

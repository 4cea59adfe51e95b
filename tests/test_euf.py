"""Ground validity with equality: congruence closure and the lazy solver."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest

import cutintro.euf as euf
from cutintro.cnf import simplify_clauses
from cutintro.cutformula import sf_improve
from cutintro.euf import (
    CongruenceClosure,
    InternalOracle,
    Oracle,
    Verdict,
)
from cutintro.formulas import And, Atom, Eq, Imp, Not, Or
from cutintro.herbrand import herbrand_sequent
from cutintro.parser import parse_input
from cutintro.sequents import Sequent
from cutintro.terms import App, Var, const

import bundled_search
import gen
import oracles
from oracles import decide_validity

a, b, c, d = const("a"), const("b"), const("c"), const("d")


def f(t):
    return App("f", (t,))


def s(t):
    return App("s", (t,))


def g(u, v):
    return App("g", (u, v))


def _iter(fn, t, n):
    for _ in range(n):
        t = fn(t)
    return t


def wide_sequent(n: int) -> Sequent:
    """(P1 & Q1) | ... | (Pn & Qn) ⊢ R: asserting the disjunction
    distributes it into 2ⁿ clauses of n literals each."""
    parts = [And(Atom(f"P{i}", ()), Atom(f"Q{i}", ())) for i in range(n)]
    fml = parts[0]
    for p in parts[1:]:
        fml = Or(fml, p)
    return Sequent((fml,), (Atom("R", ()),))


def merge_terms(cc: CongruenceClosure, s, t) -> None:
    """Assert s = t; ``explain`` reports it as the pair (s, t)."""
    cc.merge(cc.intern(s), cc.intern(t), (s, t))


def equal(cc: CongruenceClosure, s, t) -> bool:
    return cc.find(cc.intern(s)) == cc.find(cc.intern(t))


class TestCongruenceClosure:
    def test_reflexive(self):
        cc = CongruenceClosure()
        assert equal(cc, f(a), f(a))

    def test_merge_is_symmetric(self):
        cc = CongruenceClosure()
        merge_terms(cc, a, b)
        assert equal(cc, b, a)

    def test_transitive(self):
        cc = CongruenceClosure()
        merge_terms(cc, a, b)
        merge_terms(cc, b, c)
        assert equal(cc, a, c)

    def test_congruence_propagates_up(self):
        cc = CongruenceClosure()
        merge_terms(cc, a, b)
        assert equal(cc, f(a), f(b))
        assert equal(cc, g(f(a), c), g(f(b), c))

    def test_congruence_is_not_injectivity(self):
        cc = CongruenceClosure()
        merge_terms(cc, f(a), f(b))
        assert not equal(cc, a, b)

    def test_distinct_heads_stay_apart(self):
        cc = CongruenceClosure()
        merge_terms(cc, a, b)
        assert not equal(cc, f(a), s(a))

    def test_nested_chain(self):
        cc = CongruenceClosure()
        for i in range(4):
            merge_terms(cc, f(_iter(f, a, i)), s(s(_iter(f, a, i))))
        assert equal(cc, _iter(f, a, 4), _iter(s, a, 8))
        assert not equal(cc, _iter(f, a, 4), _iter(s, a, 7))


class TestExplanations:
    """Each core is a subset of the asserted equations from which a fresh
    closure (the reference one in tests/oracles.py) derives the same
    equality."""

    @staticmethod
    def _core(eqs, s, t):
        """The indices of the equations that explain s = t."""
        cc = CongruenceClosure()
        for lhs, rhs in eqs:
            merge_terms(cc, lhs, rhs)
        assert equal(cc, s, t)
        core = cc.explain(cc.intern(s), cc.intern(t))
        assert set(core) <= set(eqs)
        fresh = oracles.ReferenceClosure()
        for lhs, rhs in core:
            fresh.merge_terms(lhs, rhs)
        assert fresh.equal(s, t), (eqs, s, t, core)
        return {eqs.index(eq) for eq in core}

    def test_equal_ids_need_nothing(self):
        assert self._core([(a, b)], f(a), f(a)) == set()

    def test_transitive_chain_skips_unrelated_equations(self):
        eqs = [(c, d), (a, b), (f(c), f(d)), (b, c)]
        assert self._core(eqs, a, c) == {1, 3}

    def test_congruence_chain(self):
        eqs = [(a, b), (b, c), (f(a), s(a))]
        assert self._core(eqs, f(f(a)), f(f(c))) == {0, 1}

    def test_loop_through_its_own_argument(self):
        eqs = [(f(a), a)]
        assert self._core(eqs, _iter(f, a, 3), a) == {0}
        assert self._core(eqs, _iter(f, a, 5), _iter(f, a, 2)) == {0}

    def test_binary_function_needs_both_arguments(self):
        eqs = [(a, b), (c, d), (g(a, c), f(a))]
        assert self._core(eqs, g(a, c), g(b, d)) == {0, 1}
        assert self._core(eqs, g(a, c), g(b, c)) == {0}
        assert self._core(eqs, f(b), g(b, d)) == {0, 1, 2}

    def test_nested_chain_needs_every_link(self):
        eqs = [(f(_iter(f, a, i)), s(s(_iter(f, a, i)))) for i in range(4)]
        assert self._core(eqs, _iter(f, a, 4), _iter(s, a, 8)) == {0, 1, 2, 3}

    def test_terms_interned_after_the_merge(self):
        # The congruence f(a) = f(b) is found when f(b) is interned.
        cc = CongruenceClosure()
        merge_terms(cc, a, b)
        assert cc.explain(cc.intern(f(a)), cc.intern(f(b))) == [(a, b)]

    def test_reset_forgets_merges_but_keeps_ids(self):
        cc = CongruenceClosure()
        merge_terms(cc, a, b)
        ids = cc.intern(f(a)), cc.intern(f(b))
        cc.reset()
        assert not equal(cc, f(a), f(b))
        assert (cc.intern(f(a)), cc.intern(f(b))) == ids
        cc.merge(cc.intern(a), cc.intern(b), "again")
        assert cc.explain(*ids) == ["again"]

    def test_random_equation_sets(self):
        funcs = [("f", 1), ("g", 2)]
        pairs = 0
        for seed in range(150):
            rng = random.Random(7000 + seed)
            pool = [
                gen.random_ground_term(rng, funcs, ["a", "b", "c", "d"], 2)
                for _ in range(8)
            ]
            eqs = [
                (rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(1, 8))
            ]
            cc = CongruenceClosure()
            for lhs, rhs in eqs:
                merge_terms(cc, lhs, rhs)
            for s_, t_ in itertools.combinations(pool, 2):
                if s_ != t_ and equal(cc, s_, t_):
                    self._core(eqs, s_, t_)
                    pairs += 1
        assert pairs >= 200


class _Recording(Oracle):
    """Forwards to an inner oracle and keeps every clause set it is sent."""

    def __init__(self, inner: Oracle) -> None:
        self.inner = inner
        self.clause_sets: list = []

    def validity(self, seq):
        return self.inner.validity(seq)

    def refutation(self, clauses):
        self.clause_sets.append(clauses)
        return self.inner.refutation(clauses)


class TestAgainstReferenceSolver:
    """The resuming search with explanation cores decides every clause set
    as the restart search with deletion-minimized cores did, and never
    finds the same blocking clause twice in one query; the oracle with
    its run-wide atom table decides each as the query that numbers and
    encodes every clause set afresh (``oracles.reference_refute``)."""

    @pytest.fixture(scope="class")
    def bundled(self, golden_ehs):
        """The clause sets sf_improve asks on the bundled example."""
        rec = _Recording(InternalOracle())
        sf_improve(golden_ehs, rec)
        assert len(rec.clause_sets) >= 350
        return rec.clause_sets

    @pytest.fixture(scope="class")
    def random_sets(self):
        return [
            gen.random_ground_clauses(random.Random(seed)) for seed in range(150)
        ]

    @pytest.fixture(scope="class")
    def reference(self, bundled, random_sets):
        """Each clause set's reference verdict: True iff unsatisfiable."""
        return {
            cnf: oracles.reference_decide_clauses(simplify_clauses(cnf))
            for cnf in bundled + random_sets
        }

    @pytest.fixture
    def blocking(self, monkeypatch):
        found: list = []
        conflict = euf._theory_conflict

        def recording(*args):
            clause = conflict(*args)
            if clause is not None:
                found.append(frozenset(clause))
            return clause

        monkeypatch.setattr(euf, "_theory_conflict", recording)
        return found

    @staticmethod
    def _agree(cnf, oracle, blocking, want):
        blocking.clear()
        got = oracle._decide(cnf)
        assert got is not Verdict.UNKNOWN
        assert len(set(blocking)) == len(blocking)
        assert (got is Verdict.VALID) == want
        return want

    def test_bundled_example_queries(self, bundled, reference, blocking):
        oracle = InternalOracle()
        outcomes = {
            self._agree(cnf, oracle, blocking, reference[cnf])
            for cnf in bundled
        }
        assert outcomes == {True, False}

    def test_random_clause_sets(self, random_sets, reference, blocking):
        oracle = InternalOracle()
        outcomes = set()
        conflicts = 0
        for cnf in random_sets:
            atoms = {atom for clause in cnf for _, atom in clause}
            assert 10 <= len(atoms) <= 30
            outcomes.add(self._agree(cnf, oracle, blocking, reference[cnf]))
            conflicts += len(blocking)
        assert outcomes == {True, False}
        assert conflicts >= 200

    def test_one_oracle_answers_a_sequence_as_fresh_ones(
        self, bundled, random_sets, reference
    ):
        # One oracle keeps its atom table, closure and lemma store across
        # queries; whatever an earlier query left there, in either order,
        # no verdict differs from a fresh oracle's, from the per-query
        # encoding's with one lemma store of its own, or from the
        # reference's.
        sequence = bundled + random_sets
        assert len(bundled) >= 350 and len(random_sets) == 150
        fresh = {cnf: InternalOracle().refutation(cnf) for cnf in sequence}
        for order in (sequence, sequence[::-1]):
            one = InternalOracle()
            learned: dict = {}
            for cnf in order:
                got = one.refutation(cnf)
                assert got is fresh[cnf]
                assert got is oracles.reference_refute(cnf, learned=learned)
                assert (got is Verdict.VALID) == reference[cnf]
            assert one.hits >= 1


class TestLemmaStore:
    """The internal oracle keeps every blocking clause it finds for the
    run, and a later query over the clause's atoms starts with it."""

    @pytest.fixture
    def searched(self, golden_ehs):
        """An oracle after sf_improve on the bundled example, and the
        distinct clause sets it was asked."""
        rec = _Recording(InternalOracle())
        sf_improve(golden_ehs, rec)
        return rec.inner, list(dict.fromkeys(rec.clause_sets))

    @pytest.fixture
    def theory_checks(self, monkeypatch):
        checks: list = []
        conflict = euf._theory_conflict

        def counting(*args):
            checks.append(None)
            return conflict(*args)

        monkeypatch.setattr(euf, "_theory_conflict", counting)
        return checks

    def test_every_stored_lemma_is_valid(self, searched):
        # Filed under the variable of its one positive literal, with its
        # variables, as a clause is encoded: sorted by variable.
        oracle, _ = searched
        assert sum(map(len, oracle._lemmas.values())) >= 30
        for v, bucket in oracle._lemmas.items():
            for lemma, needs in bucket.items():
                assert [u for u in lemma if u > 0] == [v]
                assert needs == {abs(u) for u in lemma}
                assert list(lemma) == sorted(lemma, key=abs)
        for atom, clause in bundled_search.decoded_lemmas(oracle):
            assert [a for s, a in clause if s] == [atom]
            negation = [frozenset([(not s, a)]) for s, a in clause]
            assert oracles.reference_decide_clauses(negation)

    def test_second_pass_of_valid_sets_needs_no_theory_check(
        self, searched, theory_checks
    ):
        # Each VALID set's own blocking clauses are in the store, so its
        # clauses and those lemmas have no propositional model.
        oracle, clause_sets = searched
        valid = [c for c in clause_sets if oracle._memo[c] is Verdict.VALID]
        assert len(valid) >= 100
        fresh = InternalOracle()
        assert all(fresh.refutation(c) is Verdict.VALID for c in valid)
        assert theory_checks
        theory_checks.clear()
        oracle._memo.clear()
        assert all(oracle.refutation(c) is Verdict.VALID for c in valid)
        assert theory_checks == []

    def test_same_lemmas_under_every_hash_seed(self):
        # String hashes differ between the two processes, and with them
        # the order in which the search visits its nodes.  Fresh atoms
        # are numbered in key order and lemmas are compared decoded, so
        # both runs make as many theory checks and learn the same lemmas.
        first, second = (
            {k: run[k] for k in ("theory_checks", "lemmas")}
            for run in map(bundled_search.run, ("0", "1"))
        )
        assert first["theory_checks"] > 0 and len(first["lemmas"]) >= 30
        assert first == second


class TestClosureReuse:
    """A theory check rebuilds the closure only when the model's true
    equations or the interned terms changed since the last rebuild; the
    closure it leaves is the one a rebuild would make."""

    @staticmethod
    def _rebuild_always(cc, merges):
        cc.reset()
        for v, i, j in merges:
            cc.merge(i, j, v)

    def _run(self, monkeypatch, sequence, always):
        """Verdicts, theory-check results and lemma store of one oracle
        over ``sequence``, and how many checks reset the closure."""
        checks, resets = [], []
        conflict, reset = euf._theory_conflict, CongruenceClosure.reset

        def recording(*args):
            checks.append(conflict(*args))
            return checks[-1]

        def counting(cc):
            resets.append(None)
            reset(cc)

        with monkeypatch.context() as patch:
            patch.setattr(euf, "_theory_conflict", recording)
            patch.setattr(CongruenceClosure, "reset", counting)
            if always:
                patch.setattr(CongruenceClosure, "rebuild", self._rebuild_always)
            oracle = InternalOracle()
            verdicts = [oracle.refutation(cnf) for cnf in sequence]
        return verdicts, checks, oracle._lemmas, len(resets)

    def test_same_as_rebuilding_at_every_check(self, monkeypatch, golden_ehs):
        rec = _Recording(InternalOracle())
        sf_improve(golden_ehs, rec)
        bundled = list(dict.fromkeys(rec.clause_sets))
        pool = bundled + [
            gen.random_ground_clauses(random.Random(seed)) for seed in range(40)
        ]
        sequences = [bundled, bundled[::-1]]
        for seed in range(10):
            # Random draws and halves of them, so that later queries
            # meet the terms and lemmas of earlier ones.
            rng = random.Random(seed)
            sequences.append([])
            for _ in range(40):
                cnf = sorted(
                    rng.choice(pool),
                    key=lambda c: sorted((s, a.key) for s, a in c),
                )
                if rng.random() < 0.4:
                    cnf = rng.sample(cnf, len(cnf) // 2)
                sequences[-1].append(frozenset(cnf))
        kept = 0
        for i, sequence in enumerate(sequences):
            *got, resets = self._run(monkeypatch, sequence, always=False)
            *want, _ = self._run(monkeypatch, sequence, always=True)
            assert got == want, i
            # One reset is the new closure's own.
            kept += len(got[1]) + 1 - resets
        assert kept >= 100

    @staticmethod
    def _state(cc):
        """The closure as a rebuild leaves it, up to path compression."""
        why = [
            (w.app, w.twin) if isinstance(w, euf._Congruence) else w
            for w in cc._why
        ]
        roots = [cc.find(i) for i in range(len(cc._node))]
        return roots, cc._size, cc._edge, why, cc._sig, cc._use

    def test_rebuild_leaves_what_a_fresh_rebuild_makes(self):
        # Rebuilds with a few merge lists, two of them one list under
        # other labels, between new terms and merges made directly.
        funcs = [("f", 1), ("g", 2)]
        kept = 0
        for seed in range(40):
            rng = random.Random(seed)
            cc, fresh = CongruenceClosure(), CongruenceClosure()

            def term():
                return gen.random_ground_term(rng, funcs, ["a", "b", "c"], 2)

            ids = [cc.intern(t) for t in (term() for _ in range(8))]
            pairs = [tuple(rng.sample(ids, 2)) for _ in range(4)]
            lists = [
                [(v, i, j) for v, (i, j) in enumerate(pairs)],
                [(v + 10, i, j) for v, (i, j) in enumerate(pairs)],
                [(v, i, j) for v, (i, j) in enumerate(pairs[:2])],
            ]
            for _ in range(40):
                r = rng.random()
                if r < 0.15:
                    cc.intern(term())
                elif r < 0.3:
                    cc.merge(*rng.sample(ids, 2), "direct")
                else:
                    merges, parent = rng.choice(lists), cc._parent
                    cc.rebuild(merges)
                    kept += cc._parent is parent  # not reset
                    for t in list(cc._ids)[len(fresh._node):]:
                        fresh.intern(t)
                    self._rebuild_always(fresh, merges)
                    assert self._state(cc) == self._state(fresh), seed
        assert kept >= 200


def decoded_models(oracle: InternalOracle) -> list[list]:
    """The internal oracle's stored countermodels, each as the unit
    clauses of its literals, decoded through the atom table."""
    atoms = oracle._atoms.atoms
    return [
        [
            frozenset([(u > 0, atoms[abs(u)])])
            for u, mask in oracle._models.items()
            if mask >> k & 1
        ]
        for k in range(oracle._n_models)
    ]


class TestCountermodelIndex:
    """The internal oracle keeps every countermodel it finds for the
    run; a later query that one of them satisfies is INVALID without a
    search."""

    @pytest.fixture(scope="class")
    def filled(self, golden_ehs):
        """Oracles after sf_improve on the bundled example and after 150
        random clause sets."""
        bundled = InternalOracle()
        sf_improve(golden_ehs, bundled)
        random_sets = InternalOracle()
        for seed in range(150):
            random_sets.refutation(
                gen.random_ground_clauses(random.Random(seed))
            )
        return bundled, random_sets

    def test_every_stored_model_is_a_countermodel(self, filled):
        # A model is stored only after it passed the theory check over
        # all of its atoms, so its literals are satisfiable together.
        for oracle in filled:
            models = decoded_models(oracle)
            assert len(models) >= 20
            for units in models:
                assert not oracles.reference_decide_clauses(units)

    def test_satisfied_query_is_invalid_under_any_step_cap(self, monkeypatch):
        # The chain c0 = c1 = ... = c12, c0 ≠ c12 without its sixth link
        # has a countermodel, which the first query stores.  Past the
        # step cap a search is UNKNOWN, but the stored model still
        # satisfies the chain without its first link; the chain whose
        # sixth link is negated is satisfiable too, by no stored model.
        c = [const(f"c{i}") for i in range(13)]
        links = [Eq(c[i], c[i + 1]) for i in range(12)]
        goal = frozenset([(False, Eq(c[0], c[12]))])

        def chain(*clauses):
            return frozenset([goal, *clauses])

        short = [frozenset([(True, e)]) for e in links[:5] + links[6:]]
        negated = chain(*short, frozenset([(False, links[5])]))
        assert InternalOracle().refutation(negated) is Verdict.INVALID
        o = InternalOracle()
        assert o.refutation(chain(*short)) is Verdict.INVALID
        assert o.hits == 0
        monkeypatch.setattr(euf, "DEFAULT_STEP_CAP", 5)
        assert o.refutation(chain(*short[1:])) is Verdict.INVALID
        assert o.hits == 1
        assert o.refutation(negated) is Verdict.UNKNOWN
        assert o.hits == 1


class TestDecideValidity:
    def test_axiom(self):
        assert decide_validity(Sequent((Atom("P", (a,)),), (Atom("P", (a,)),))) is Verdict.VALID

    def test_invalid_atom(self):
        assert decide_validity(Sequent((), (Atom("P", (a,)),))) is Verdict.INVALID

    def test_function_chain(self):
        ante = tuple(
            Eq(f(_iter(f, a, i)), s(s(_iter(f, a, i)))) for i in range(4)
        )
        succ = (Eq(_iter(f, a, 4), _iter(s, a, 8)),)
        assert decide_validity(Sequent(ante, succ)) is Verdict.VALID

    def test_chain_one_link_short_is_invalid(self):
        ante = tuple(
            Eq(f(_iter(f, a, i)), s(s(_iter(f, a, i)))) for i in range(3)
        )
        succ = (Eq(_iter(f, a, 4), _iter(s, a, 8)),)
        assert decide_validity(Sequent(ante, succ)) is Verdict.INVALID

    def test_equality_feeds_predicates(self):
        seq = Sequent((Eq(a, b), Atom("P", (a,))), (Atom("P", (b,)),))
        assert decide_validity(Sequent(seq.ante, seq.succ)) is Verdict.VALID

    def test_propositional_structure(self):
        P, Q = Atom("P", ()), Atom("Q", ())
        seq = Sequent((Or(P, Q), Imp(P, Q)), (Q,))
        assert decide_validity(seq) is Verdict.VALID

    def test_free_variable_is_not_the_constant_of_its_name(self):
        x = Var("a")
        for seq in (
            Sequent((), (Eq(x, a),)),
            Sequent((Atom("P", (x,)),), (Atom("P", (a,)),)),
        ):
            assert not oracles.naive_evalid(seq)
            assert decide_validity(seq) is Verdict.INVALID

    def test_empty_sequent_invalid(self):
        assert decide_validity(Sequent((), ())) is Verdict.INVALID

    def test_matches_naive_oracle_on_random_sequents(self):
        for seed in range(120):
            rng = random.Random(seed)
            seq = gen.random_ground_sequent(rng)
            got = decide_validity(seq)
            want = oracles.naive_evalid(seq)
            assert got in (Verdict.VALID, Verdict.INVALID), f"seed {seed}"
            assert (got is Verdict.VALID) == want, f"seed {seed}: {seq}"


class TestResourceLimits:
    def test_tiny_step_cap_returns_unknown(self):
        ante = tuple(Eq(_iter(f, a, i), _iter(f, a, i + 1)) for i in range(12))
        seq = Sequent(ante, (Eq(a, _iter(f, a, 12)),))
        assert decide_validity(seq, step_cap=5) is Verdict.UNKNOWN
        assert decide_validity(seq) is Verdict.VALID

    def test_tiny_cnf_cap_returns_unknown(self):
        assert decide_validity(wide_sequent(14), cnf_cap=50) is Verdict.UNKNOWN

    def test_unknown_is_never_reported_as_invalid(self):
        # A valid sequent under a squeeze of caps must never flip to INVALID.
        ante = tuple(
            Eq(f(_iter(f, a, i)), s(s(_iter(f, a, i)))) for i in range(4)
        )
        seq = Sequent(ante, (Eq(_iter(f, a, 4), _iter(s, a, 8)),))
        for cap in (1, 10, 100, 1000, 100000):
            got = decide_validity(seq, step_cap=cap)
            assert got in (Verdict.VALID, Verdict.UNKNOWN)

    def test_cancel_callback_propagates(self):
        class Stop(Exception):
            pass

        def cancel():
            raise Stop()

        ante = tuple(Eq(_iter(f, a, i), _iter(f, a, i + 1)) for i in range(8))
        seq = Sequent(ante, (Eq(a, _iter(f, a, 8)),))
        with pytest.raises(Stop):
            decide_validity(seq, cancel=cancel)

    def test_cancel_is_polled_during_subsumption(self):
        # The clause form has 3⁹ clauses; checking them for subsumption
        # alone takes about 40 s, so a cancel that only ran before the
        # search would fire far too late.
        class Stop(Exception):
            pass

        seq = herbrand_sequent(*parse_input(gen.wide_disjunction_input(3)))
        start = time.perf_counter()

        def cancel():
            if time.perf_counter() - start > 1:
                raise Stop()

        with pytest.raises(Stop):
            decide_validity(seq, cnf_cap=10**6, cancel=cancel)
        assert time.perf_counter() - start < 2


class TestInternalOracle:
    def test_memoizes(self):
        o = InternalOracle()
        seq = Sequent((Atom("P", (a,)),), (Atom("P", (a,)),))
        assert o.validity(seq) is Verdict.VALID
        assert o.validity(seq) is Verdict.VALID
        assert o.calls == 1

    def test_validity_shares_the_refutation_cache(self):
        # A sequent is decided as its clause form, under the same key as
        # that clause set: whichever comes first, the backend runs once.
        P = Atom("P", (a,))
        clauses = frozenset({frozenset({(True, P)}), frozenset({(False, P)})})
        for first_sequent in (True, False):
            o = InternalOracle()
            queries = [Sequent((P,), (P,)), clauses]
            for q in queries if first_sequent else reversed(queries):
                ask = o.validity if isinstance(q, Sequent) else o.refutation
                assert ask(q) is Verdict.VALID
            assert o.calls == 1

    def test_backend_decides_each_query_once(self):
        class Counting(Oracle):
            def __init__(self) -> None:
                super().__init__()
                self.decided: list = []

            def _decide(self, clauses):
                self.decided.append(clauses)
                return Verdict.INVALID

        o = Counting()
        P, Q = Atom("P", ()), Atom("Q", ())
        clauses = frozenset({frozenset({(True, P)})})
        for _ in range(2):
            assert o.validity(Sequent((), (Q,))) is Verdict.INVALID
            assert o.refutation(clauses) is Verdict.INVALID
        assert o.calls == len(o.decided) == 2
        assert o.decided == [frozenset({frozenset({(False, Q)})}), clauses]

    def test_clause_form_past_the_cap_reaches_no_backend(self):
        class Refusing(Oracle):
            def _decide(self, clauses):
                raise AssertionError("backend asked")

        o = Refusing()
        assert o.validity(wide_sequent(14)) is Verdict.UNKNOWN
        assert o.calls == 0

    def test_refutation_of_contradictory_clauses(self):
        o = InternalOracle()
        P = Atom("P", ())
        clauses = frozenset(
            {frozenset({(True, P)}), frozenset({(False, P)})}
        )
        assert o.refutation(clauses) is Verdict.VALID

    def test_terms_are_interned_at_the_first_theory_check(self):
        # Refuted without a model: the closure stays empty.  The first
        # model to check interns the atoms' terms, each once.
        o = InternalOracle()
        E = Eq(f(a), b)
        closure = o._atoms.closure
        o.refutation(frozenset({frozenset({(True, E)}), frozenset({(False, E)})}))
        assert closure._node == []
        o.refutation(frozenset({frozenset({(True, E)})}))
        assert len(closure._node) == 3
        o.refutation(frozenset({frozenset({(True, Eq(f(a), c))})}))
        assert len(closure._node) == 4

    def test_refutation_of_satisfiable_clauses(self):
        o = InternalOracle()
        P, Q = Atom("P", ()), Atom("Q", ())
        clauses = frozenset({frozenset({(True, P), (False, Q)})})
        assert o.refutation(clauses) is Verdict.INVALID

    def test_refutation_uses_equality(self):
        o = InternalOracle()
        clauses = frozenset(
            {
                frozenset({(True, Eq(a, b))}),
                frozenset({(True, Atom("P", (a,)))}),
                frozenset({(False, Atom("P", (b,)))}),
            }
        )
        assert o.refutation(clauses) is Verdict.VALID

    def test_refutation_agrees_with_validity(self):
        from cutintro.cnf import cnf_of_formulas

        o = InternalOracle()
        for seed in range(40):
            rng = random.Random(3000 + seed)
            seq = gen.random_ground_sequent(rng)
            clauses = cnf_of_formulas(seq.ante, seq.succ)
            assert o.refutation(clauses) == decide_validity(seq), f"seed {seed}"


class TestDecisionOrder:
    """``_Search`` builds its decision order, most frequent variable
    first and ties by number, at its first decision only."""

    @staticmethod
    def _search(clauses):
        n = max((abs(u) for c in clauses for u in c), default=0)
        return euf._Search(clauses, n, euf.DEFAULT_STEP_CAP, lambda: None)

    def test_unit_refutation_leaves_the_order_unbuilt(self):
        search = self._search([(1,), (-1, 2), (-2, -1)])
        assert search.next_model() is None
        assert search._order is None

    def test_first_decision_builds_the_order(self):
        built = 0
        for seed in range(100):
            rng = random.Random(seed)
            clauses = [
                tuple(
                    rng.choice((-1, 1)) * v
                    for v in sorted(rng.sample(range(1, 7), rng.randint(1, 3)))
                )
                for _ in range(rng.randint(1, 8))
            ]
            search = self._search(clauses)
            assert search._order is None
            search.next_model()
            if search._order is None:  # refuted or satisfied by units
                continue
            count = Counter(abs(u) for c in clauses for u in c)
            assert search._order == sorted(count, key=lambda v: (-count[v], v))
            built += 1
        assert built >= 50

"""JSON encoding of terms, formulas, and sequents."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutintro.cutformula import (
    SolutionCandidate,
    canonical_solution,
    sf_improve,
)
from cutintro.euf import InternalOracle
from cutintro.formulas import Atom, Eq, Imp, Not, QuantBlock
from cutintro.proofs import (
    build_proof_with_cut,
    proof_from_json,
    proof_to_json,
)
from cutintro.sequents import Sequent
from cutintro.serialize import (
    formula_from_json,
    formula_to_json,
    sequent_from_json,
    sequent_to_json,
    term_from_json,
    term_to_json,
)
from cutintro.terms import App, Var, const

from test_cutformula import _solved_random_instance
from test_formulas import formulas_strategy
from test_terms import terms_strategy


class TestTerms:
    @given(terms_strategy())
    def test_round_trip(self, t):
        assert term_from_json(term_to_json(t)) == t

    @given(terms_strategy())
    def test_payload_is_plain_json(self, t):
        assert json.loads(json.dumps(term_to_json(t))) == term_to_json(t)

    def test_var_shape(self):
        assert term_to_json(Var("x")) == {"var": "x"}

    def test_app_shape(self):
        packed = term_to_json(App("f", (const("a"),)))
        assert packed == {"app": "f", "args": [{"app": "a", "args": []}]}

    def test_bad_payload_rejected(self):
        with pytest.raises(Exception):
            term_from_json({"neither": "fish"})


class TestFormulas:
    @given(formulas_strategy())
    def test_round_trip(self, f):
        assert formula_from_json(formula_to_json(f)) == f

    def test_quantifier_block(self):
        f = QuantBlock("all", ("x", "y"), Atom("P", (Var("x"),)))
        assert formula_from_json(formula_to_json(f)) == f

    def test_nested_connectives(self):
        f = Imp(Not(Atom("P", ())), Eq(const("a"), const("b")))
        packed = formula_to_json(f)
        assert json.loads(json.dumps(packed)) == packed
        assert formula_from_json(packed) == f

    def test_bad_payload_rejected(self):
        with pytest.raises(Exception):
            formula_from_json({"xor": []})


class TestSequents:
    def test_round_trip(self):
        s = Sequent(
            (Atom("P", (const("a"),)), Eq(const("a"), const("b"))),
            (Atom("Q", ()),),
        )
        assert sequent_from_json(sequent_to_json(s)) == s

    def test_empty_sequent(self):
        s = Sequent((), ())
        assert sequent_from_json(sequent_to_json(s)) == s


def _assert_proof_written_unchanged(proof) -> None:
    """The text the pipeline writes to proof.json reads back to proof."""
    text = json.dumps(proof_to_json(proof)) + "\n"
    assert proof_from_json(json.loads(text)) == proof


@pytest.fixture(scope="module")
def golden_proof(golden_ehs, golden_sf, golden_oracle):
    best = min(golden_sf.candidates, key=SolutionCandidate.sort_key)
    return build_proof_with_cut(golden_ehs, best.formula, golden_oracle)


class TestProofJson:
    def test_golden_proof(self, golden_proof):
        _assert_proof_written_unchanged(golden_proof)

    def test_random_solvable_instances(self):
        written = 0
        for seed in range(30):
            e = _solved_random_instance(seed)
            if e is None:
                continue
            oracle = InternalOracle()
            res = sf_improve(e, canonical_solution(e), oracle, node_cap=50)
            best = min(res.candidates, key=SolutionCandidate.sort_key)
            _assert_proof_written_unchanged(
                build_proof_with_cut(e, best.formula, oracle)
            )
            written += 1
        assert written >= 15

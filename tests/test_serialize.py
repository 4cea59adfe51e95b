"""JSON encoding of terms, formulas, sequents and proofs: the node table
of proof.json and decomposition.json."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from cutintro.cutformula import (
    SolutionCandidate,
    sf_improve,
)
from cutintro.euf import InternalOracle
from cutintro.formulas import Atom, Eq, Imp, Not, QuantBlock
from cutintro.proofs import (
    Inference,
    build_proof_with_cut,
    proof_from_json,
    proof_to_json,
)
from cutintro.sequents import Sequent
from cutintro.serialize import node_to_json, tree_size
from cutintro.terms import App, Var, const

import gen
from test_cutformula import _solved_random_instance
from test_formulas import formulas_strategy
from test_terms import terms_strategy


def _leaf(ante=(), succ=()) -> tuple:
    """The one-step proof of an oracle leaf."""
    return (Inference("oracle", Sequent(tuple(ante), tuple(succ))),)


def _written(proof) -> str:
    """The text the pipeline writes to proof.json."""
    return json.dumps(proof_to_json(proof)) + "\n"


def _read(text: str) -> Inference:
    """The root step of the proof that ``text`` holds."""
    return proof_from_json(json.loads(text))[-1]


def _table(*nodes) -> dict:
    """A one-leaf table whose last node is the leaf's antecedent."""
    ante = [len(nodes) - 1]
    leaf = {"rule": "oracle", "conclusion": {"ante": ante, "succ": []}}
    return {"nodes": list(nodes), "proof": [leaf]}


class TestTerms:
    @given(terms_strategy())
    def test_round_trip(self, t):
        (atom,) = _read(_written(_leaf([Atom("P", (t,))]))).conclusion.ante
        assert atom.args == (t,)

    def test_var_shape(self):
        nodes: list = []
        assert node_to_json(Var("x"), {}, nodes) == 0
        assert nodes == [{"var": "x"}]

    def test_app_shape(self):
        nodes: list = []
        assert node_to_json(App("f", (const("a"),)), {}, nodes) == 1
        assert nodes == [{"app": "a", "args": []}, {"app": "f", "args": [0]}]

    def test_bad_payload_rejected(self):
        bad = _table({"neither": "fish"}, {"atom": "P", "args": [0]})
        with pytest.raises(ValueError, match=r"^nodes\[0\]: bad node"):
            proof_from_json(bad)


class TestFormulas:
    @given(formulas_strategy())
    def test_round_trip(self, f):
        assert _read(_written(_leaf([f]))).conclusion.ante == (f,)

    def test_quantifier_block(self):
        f = QuantBlock("all", ("x", "y"), Atom("P", (Var("x"),)))
        packed = proof_to_json(_leaf([f]))
        assert packed["nodes"] == [
            {"var": "x"},
            {"atom": "P", "args": [0]},
            {"quant": "all", "vars": ["x", "y"], "body": 1},
        ]
        assert proof_from_json(packed)[-1].conclusion.ante == (f,)

    def test_nested_connectives(self):
        f = Imp(Not(Atom("P", ())), Eq(const("a"), const("b")))
        packed = proof_to_json(_leaf([f], [f]))
        assert json.loads(json.dumps(packed)) == packed
        assert packed["proof"] == [
            {"rule": "oracle", "conclusion": {"ante": [5], "succ": [5]}}
        ]
        assert proof_from_json(packed)[-1].conclusion.succ == (f,)

    def test_bad_payload_rejected(self):
        bad = _table({"atom": "P", "args": []}, {"xor": [0, 0]})
        with pytest.raises(ValueError, match=r"^nodes\[1\]: bad node"):
            proof_from_json(bad)


class TestSequents:
    def test_round_trip(self):
        s = Sequent(
            (Atom("P", (const("a"),)), Eq(const("a"), const("b"))),
            (Atom("Q", ()),),
        )
        assert _read(_written(_leaf(s.ante, s.succ))).conclusion == s

    def test_empty_sequent(self):
        s = Sequent((), ())
        assert _read(_written(_leaf(s.ante, s.succ))).conclusion == s


def _assert_proof_written_unchanged(proof) -> None:
    """The text the pipeline writes to proof.json reads back to proof."""
    assert proof_from_json(json.loads(_written(proof))) == proof


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
            res = sf_improve(e, oracle, node_cap=50)
            best = min(res.candidates, key=SolutionCandidate.sort_key)
            _assert_proof_written_unchanged(
                build_proof_with_cut(e, best.formula, oracle)
            )
            written += 1
        assert written >= 15

    def test_each_node_written_once(self, golden_proof):
        nodes = proof_to_json(golden_proof)["nodes"]
        assert len({json.dumps(d) for d in nodes}) == len(nodes)

    def test_steps_in_post_order_name_their_premises(self, golden_proof):
        steps = proof_to_json(golden_proof)["proof"]
        named = [
            (i, d[k])
            for i, d in enumerate(steps)
            for k in ("premise", "left", "right")
            if k in d
        ]
        assert all(p < i for i, p in named)
        assert sorted(p for _, p in named) == list(range(len(steps) - 1))
        assert steps[-1]["rule"] == "contract"

    def test_ten_thousand_deep_formula(self):
        f = Atom("P", ())
        for _ in range(10**4):
            f = Not(f)
        text = _written(_leaf([f]))
        assert _read(text).conclusion.ante[0] is f

    def test_ten_thousand_step_chain(self):
        pa = Atom("P", (const("a"),))
        p = gen.weakening_chain(Sequent((pa,), (pa,)), 10**4)
        assert proof_from_json(json.loads(_written(p))) == p

    def test_tree_size_counts_a_shared_node_each_time(self):
        fa = App("f", (const("a"),))
        sizes: dict = {}
        assert tree_size(Not(Eq(fa, fa)), sizes) == 6
        assert sizes[fa] == 2

    def test_nested_format_of_earlier_versions_reads(self):
        pa = {"atom": "P", "args": [{"app": "a", "args": []}]}
        nested = {
            "rule": "weaken",
            "conclusion": {"ante": [pa, pa], "succ": [pa]},
            "premise": {
                "rule": "oracle",
                "conclusion": {"ante": [pa], "succ": [pa]},
            },
        }
        a = Atom("P", (const("a"),))
        (leaf,) = _leaf([a], [a])
        assert proof_from_json(nested) == (
            leaf,
            Inference("weaken", Sequent((a, a), (a,)), (0,)),
        )

"""Proof construction with one cut, rule-by-rule checking, and mutations."""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
from pathlib import Path

import pytest

from cutintro.cutformula import (
    SolutionCandidate,
    build_schematic_ehs,
    canonical_solution,
)
from cutintro.decomposition import build_delta_table, fold_delta_table
from cutintro.euf import InternalOracle
from cutintro.herbrand import (
    HerbrandStructure,
    TermSet,
    decode_termset,
    encode_termset,
)
from cutintro.formulas import (
    And,
    Atom,
    Not,
    Or,
    QuantBlock,
    render_formula,
)
from cutintro.parser import parse_input
from cutintro.proofs import (
    _SHOWN_NODES,
    Inference,
    ProofBuildError,
    build_proof_with_cut,
    check_proof_report,
    metrics,
    proof_from_json,
    proof_to_json,
    render_proof,
)
from cutintro.sequents import Sequent
from cutintro.terms import App, Var, alpha, const

import gen
import oracles

a = const("a")


def f(t):
    return App("f", (t,))


@pytest.fixture(scope="module")
def golden_proof(golden_ehs, golden_sf, golden_oracle):
    best = min(golden_sf.candidates, key=SolutionCandidate.sort_key)
    return build_proof_with_cut(golden_ehs, best.formula, golden_oracle)


def _nodes(p, rules: tuple, root: int = -1) -> list:
    """The indexes of the steps of ``rules`` in the subproof whose root
    is step ``root``, in pre-order."""
    out, stack = [], [root % len(p)]
    while stack:
        i = stack.pop()
        if p[i].rule in rules:
            out.append(i)
        stack.extend(reversed(p[i].premises))
    return out


def _replace_node(p, i: int, new):
    """The proof with step i replaced by ``new``."""
    return p[:i] + (new,) + p[i + 1:]


class TestGoldenProof:
    def test_checks(self, golden_proof, golden_oracle):
        ok, msg = check_proof_report(golden_proof, golden_oracle)
        assert ok, msg

    def test_metrics(self, golden_proof):
        assert metrics(golden_proof) == {"length": 17, "comq": 10}

    def test_root_concludes_the_original_sequent(
        self, golden_proof, golden
    ):
        seq, _ = golden
        root = golden_proof[-1].conclusion
        assert sorted(map(render_formula, root.ante)) == (
            sorted(map(render_formula, seq.ante))
        )
        assert tuple(root.succ) == seq.succ

    def test_exactly_one_cut(self, golden_proof):
        cuts = _nodes(golden_proof, ("cut",))
        assert len(cuts) == 1
        cut = golden_proof[cuts[0]]
        assert isinstance(cut.formula, QuantBlock)
        assert cut.formula.kind == "all"
        assert len(cut.formula.vars) == 2

    def test_cut_formula_matches_solution(self, golden_proof, golden_sf):
        best = min(golden_sf.candidates, key=SolutionCandidate.sort_key)
        (cut,) = _nodes(golden_proof, ("cut",))
        body = golden_proof[cut].formula.body
        # Body is the solution with α's renamed to bound variables.
        assert render_formula(body).count("P(") == render_formula(
            best.formula
        ).count("P(")

    def test_left_branch_has_the_strong_block(self, golden_proof):
        (cut,) = _nodes(golden_proof, ("cut",))
        left = golden_proof[cut].premises[0]
        (strong,) = _nodes(golden_proof, ("forall_r",), left)
        assert golden_proof[strong].terms == (alpha(1), alpha(2))

    def test_right_branch_instantiates_per_witness_row(self, golden_proof):
        (cut,) = _nodes(golden_proof, ("cut",))
        right = golden_proof[cut].premises[1]
        blocks = _nodes(golden_proof, ("forall_l",), right)
        assert len(blocks) == 2
        ffa = f(f(a))
        terms = {golden_proof[i].terms for i in blocks}
        assert terms == {(a, ffa), (ffa, a)}

    def test_weak_block_count_matches_comq(self, golden_proof):
        weak = _nodes(golden_proof, ("forall_l", "exists_r"))
        assert len(weak) == metrics(golden_proof)["comq"] == 10

    def test_render_mentions_every_rule(self, golden_proof):
        text = render_proof(golden_proof)
        for rule in ("cut on", "forall_r", "forall_l", "contract", "weaken", "oracle:"):
            assert rule in text

    def test_render_matches_a_recursive_walk(self, golden_proof):
        # Each step's own line, then its premises one level deeper.
        def walk(i, depth):
            step = golden_proof[i]
            own = render_proof((step._replace(premises=()),))
            yield "  " * depth + own
            for j in step.premises:
                yield from walk(j, depth + 1)

        assert render_proof(golden_proof) == "\n".join(
            walk(len(golden_proof) - 1, 0)
        )

    def test_render_ten_thousand_step_chain(self, oracle):
        # The leaf P(a) ⊢ P(a) under 10^4 weakenings that add nothing.
        seq = Sequent((Atom("P", (a,)),), (Atom("P", (a,)),))
        p = gen.weakening_chain(seq, 10**4)
        assert check_proof_report(p, oracle)[0]
        text = render_proof(p)
        lines = text.split("\n")
        assert len(lines) == 10**4 + 1
        assert lines[0] == "weaken: " + seq.render()
        assert lines[-1] == "  " * 10**4 + "oracle: " + seq.render()
        assert text == oracles.reference_render_proof(p)

    def test_hundred_thousand_step_chain(self, oracle):
        # A proof is a flat table: reading, checking, equality, hashing,
        # repr and pickling each take one pass over its steps, whatever
        # its depth.  (Its proof.txt would indent by 10^10 spaces in all.)
        seq = Sequent((Atom("P", (a,)),), (Atom("P", (a,)),))
        chain = gen.weakening_chain(seq, 10**5)
        p = proof_from_json(proof_to_json(chain))
        assert p == chain and hash(p) == hash(chain)
        assert check_proof_report(p, oracle) == (True, "ok")
        assert repr(p).count("Inference(") == 10**5 + 1
        assert pickle.loads(pickle.dumps(p)) == p

    def test_render_is_the_reference_rendering(self, golden_proof):
        # Each formula's text is kept for the call; the bytes are those
        # of rendering every formula afresh, on the bundled proof and on
        # the canonical-solution proofs of random solvable instances.
        proofs = [golden_proof]
        for seed in range(40):
            seq, hs = gen.random_solvable_instance(random.Random(seed))
            ts = encode_termset(hs)
            if len(ts.terms) > 12:
                continue
            decs = fold_delta_table(build_delta_table(ts))
            if not decs:
                continue
            u = decode_termset(TermSet(decs[0].u, seq.q))
            e = build_schematic_ehs(seq, u, decs[0].w)
            oracle = InternalOracle()
            proofs.append(
                build_proof_with_cut(e, canonical_solution(e), oracle)
            )
        assert len(proofs) >= 20
        for p in proofs:
            assert render_proof(p) == oracles.reference_render_proof(p)

    def test_json_round_trip(self, golden_proof):
        packed = proof_to_json(golden_proof)
        assert proof_from_json(packed) == golden_proof

    def test_json_is_plain_data(self, golden_proof):
        import json

        assert json.loads(json.dumps(proof_to_json(golden_proof)))


class TestBuildErrors:
    def test_non_solution_rejected(self, golden_ehs, golden_oracle):
        with pytest.raises(ProofBuildError):
            build_proof_with_cut(
                golden_ehs, Atom("P", (alpha(1), alpha(2))), golden_oracle
            )

    def test_zero_arity_rejected(self, golden_oracle):
        from cutintro.cutformula import SchemaError, SchematicEHS

        seq, _ = parse_input("ante P(a).\nsucc P(a).")
        # The schematic-sequent builder refuses variable-free shapes...
        u = HerbrandStructure((frozenset(), frozenset()))
        with pytest.raises(SchemaError):
            build_schematic_ehs(seq, u, frozenset())
        # ...and the proof builder independently refuses a hand-made one.
        e = SchematicEHS(
            base=seq,
            u=u,
            w=(),
            gamma=(Atom("P", (a,)),),
            delta=(Atom("P", (a,)),),
        )
        with pytest.raises(ProofBuildError):
            build_proof_with_cut(e, Atom("P", (a,)), golden_oracle)

    def test_single_row_proof_builds(self, oracle):
        seq, _ = parse_input("ante all x: P(x).\nsucc P(a).\ninst 1: a.")
        u = HerbrandStructure((frozenset({(alpha(1),)}), frozenset()))
        e = build_schematic_ehs(seq, u, {(a,)})
        p = build_proof_with_cut(e, Atom("P", (alpha(1),)), oracle)
        assert check_proof_report(p, oracle)[0]
        assert metrics(p)["comq"] == 2


class TestMutations:
    """Corrupted proofs must be rejected by the checker."""

    def test_deleted_instance_tuple(self, golden_proof, golden_oracle):
        block = _nodes(golden_proof, ("forall_l",))[0]
        spliced = gen.splice_out(golden_proof, block)
        ok, msg = check_proof_report(spliced, golden_oracle)
        assert not ok and msg

    def test_swapped_eigenvariable(self, golden_proof, golden_oracle):
        i = _nodes(golden_proof, ("forall_r",))[0]
        strong = golden_proof[i]
        mutated = strong._replace(terms=(strong.terms[1], strong.terms[0]))
        bad = _replace_node(golden_proof, i, mutated)
        ok, msg = check_proof_report(bad, golden_oracle)
        assert not ok and msg

    def test_duplicate_eigenvariable(self, golden_proof, golden_oracle):
        i = _nodes(golden_proof, ("forall_r",))[0]
        strong = golden_proof[i]
        mutated = strong._replace(terms=(strong.terms[0], strong.terms[0]))
        bad = _replace_node(golden_proof, i, mutated)
        assert not check_proof_report(bad, golden_oracle)[0]

    def test_altered_leaf(self, golden_proof, golden_oracle):
        i = _nodes(golden_proof, ("oracle",))[0]
        leaf = golden_proof[i]
        broken = leaf._replace(
            conclusion=dataclasses.replace(
                leaf.conclusion, ante=leaf.conclusion.ante[1:]
            ),
        )
        bad = _replace_node(golden_proof, i, broken)
        assert not check_proof_report(bad, golden_oracle)[0]

    def test_invalid_leaf_sequent(self, golden_proof, golden_oracle):
        i = _nodes(golden_proof, ("oracle",))[0]
        leaf = golden_proof[i]
        # Keep the tree consistent but claim an unprovable leaf: negate
        # the whole antecedent away.
        broken = leaf._replace(
            conclusion=dataclasses.replace(leaf.conclusion, ante=()),
        )
        bad = _replace_node(golden_proof, i, broken)
        assert not check_proof_report(bad, golden_oracle)[0]

    def test_altered_cut_formula(self, golden_proof, golden_oracle):
        (i,) = _nodes(golden_proof, ("cut",))
        cut = golden_proof[i]
        mutated = cut._replace(
            formula=QuantBlock(
                "all",
                cut.formula.vars,
                Not(cut.formula.body),
            ),
        )
        bad = _replace_node(golden_proof, i, mutated)
        assert not check_proof_report(bad, golden_oracle)[0]

    def test_swapped_cut_branches(self, golden_proof, golden_oracle):
        (i,) = _nodes(golden_proof, ("cut",))
        cut = golden_proof[i]
        mutated = cut._replace(premises=cut.premises[::-1])
        bad = _replace_node(golden_proof, i, mutated)
        assert not check_proof_report(bad, golden_oracle)[0]

    def test_wrong_instantiation_term(self, golden_proof, golden_oracle):
        i = _nodes(golden_proof, ("forall_l",))[0]
        block = golden_proof[i]
        mutated = block._replace(terms=tuple(f(t) for t in block.terms))
        bad = _replace_node(golden_proof, i, mutated)
        assert not check_proof_report(bad, golden_oracle)[0]

    def test_report_names_the_failing_rule(self, golden_proof, golden_oracle):
        i = _nodes(golden_proof, ("forall_l",))[0]
        block = golden_proof[i]
        mutated = block._replace(terms=tuple(f(t) for t in block.terms))
        bad = _replace_node(golden_proof, i, mutated)
        ok, msg = check_proof_report(bad, golden_oracle)
        assert not ok
        assert msg


class TestJsonErrors:
    def test_unknown_rule_rejected(self):
        with pytest.raises(Exception):
            proof_from_json({"rule": "sorcery"})

    def test_round_trip_of_mutants_preserves_rejection(
        self, golden_proof, golden_oracle
    ):
        i = _nodes(golden_proof, ("forall_l",))[0]
        block = golden_proof[i]
        mutated = block._replace(terms=tuple(f(t) for t in block.terms))
        bad = _replace_node(golden_proof, i, mutated)
        again = proof_from_json(proof_to_json(bad))
        assert not check_proof_report(again, golden_oracle)[0]


class TestUnsoundBlocks:
    def test_eigenvariable_free_in_the_conclusion_rejected(self, oracle):
        ok, msg = check_proof_report(gen.unsound_forall_r(), oracle)
        assert not ok
        assert msg == "root: eigenvariable α1 occurs in the conclusion"

    def test_capturing_instantiation_rejected(self, oracle):
        # ∀x ∀y P(x, y) instantiated with x := y.
        pa = Atom("P", (a,))
        inner = QuantBlock("all", ("y",), Atom("P", (Var("x"), Var("y"))))
        q = QuantBlock("all", ("x",), inner)
        leaf = Inference("oracle", Sequent((pa,), (pa,)))
        p = leaf, Inference(
            "forall_l", Sequent((q, pa), (pa,)), (0,), q, (Var("y"),)
        )
        ok, msg = check_proof_report(p, oracle)
        assert not ok
        assert msg == "root: substitution would capture a bound variable"

    @pytest.mark.parametrize("rule", ["forall_l", "exists_r", "forall_r"])
    def test_block_step_without_a_block_formula_rejected(self, oracle, rule):
        # A library-built block step may carry no formula, or one that
        # is no quantifier block: the checker names the rule instead of
        # failing to render the formula.
        block = "∃" if rule == "exists_r" else "∀"
        pa = Atom("P", (a,))
        leaf = Inference("oracle", Sequent((pa,), (pa,)))
        seq, terms = Sequent((pa,), (pa,)), (Var("x"),)
        p = leaf, Inference(rule, seq, (0,), None, terms)
        assert check_proof_report(p, oracle) == (
            False,
            f"root: {rule} names no {block} block",
        )
        p = leaf, Inference(rule, seq, (0,), pa, terms)
        assert check_proof_report(p, oracle) == (
            False,
            f"root: {rule}: P(a) is not a {block} block",
        )


class TestFailureText:
    """A failure message renders a formula or sequent of at most
    ``_SHOWN_NODES`` nodes, and names a larger one by its node count."""

    @staticmethod
    def _nots(n: int):
        """~…~P(a), a formula of n nodes with the term a."""
        g = Atom("P", (a,))
        for _ in range(n - 2):
            g = Not(g)
        return g

    @pytest.mark.parametrize("extra", [0, 1])
    def test_formula_rendered_up_to_the_bound(self, oracle, extra):
        n = _SHOWN_NODES + extra
        q, pa = self._nots(n), Atom("P", (a,))
        leaf = Inference("oracle", Sequent((pa,), (pa,)))
        p = leaf, Inference(
            "forall_l", Sequent((pa,), (pa,)), (0,), q, (Var("x"),)
        )
        shown = f"a formula of {n} nodes" if extra else render_formula(q)
        assert check_proof_report(p, oracle) == (
            False,
            f"root: forall_l: {shown} is not a ∀ block",
        )

    def test_uncertified_leaf_named_by_its_node_count(
        self, golden_ehs, golden_oracle
    ):
        big = And(Atom("P", (alpha(1), alpha(2))), self._nots(_SHOWN_NODES))
        with pytest.raises(ProofBuildError) as err:
            build_proof_with_cut(golden_ehs, big, golden_oracle)
        text = str(err.value)
        assert "is not certified" in text
        assert text.endswith(" nodes") and "a sequent of " in text
        assert len(text) < 200


class TestCommittedProofJson:
    """The committed proof.json reads, re-checks and re-encodes to the
    same bytes; the indented file an earlier version wrote still reads,
    re-checks and decodes to the same proof."""

    DATA = Path(__file__).parent / "data"
    GOLDEN = DATA / "running_example" / "proof.json"
    INDENTED = DATA / "proof_indented.json"

    def test_reads_checks_and_reencodes_byte_for_byte(self, oracle):
        text = self.GOLDEN.read_text(encoding="utf-8")
        p = proof_from_json(json.loads(text))
        ok, msg = check_proof_report(p, oracle)
        assert ok, msg
        assert json.dumps(proof_to_json(p)) + "\n" == text

    def test_reading_leaves_no_reference_cycles(self, leaves_no_cycles):
        d = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        assert leaves_no_cycles(lambda: proof_from_json(d))[-1].premises

    def test_indented_file_reads_and_checks(self, oracle):
        text = self.INDENTED.read_text(encoding="utf-8")
        p = proof_from_json(json.loads(text))
        ok, msg = check_proof_report(p, oracle)
        assert ok, msg
        golden = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        assert p == proof_from_json(golden)

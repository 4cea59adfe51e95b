"""SMT-LIB export and the external-solver oracle."""

from __future__ import annotations

import os
import random
import shutil
import stat
import textwrap

import pytest

from cutintro.euf import Verdict, decide_validity
from cutintro.formulas import Atom, Eq, Imp, Not
from cutintro.pipeline import RunConfig, run_pipeline
from cutintro.sequents import Sequent
from cutintro.smt import CommandOracle, export_smt2
from cutintro.terms import App, const

import gen

a, b = const("a"), const("b")


def f(t):
    return App("f", (t,))


SOLVERS = ["z3 -smt2 {file}", "cvc5 --lang smt2 {file}", "cvc4 --lang smt2 {file}"]


def _available_solver():
    for template in SOLVERS:
        if shutil.which(template.split()[0]):
            return template
    return None


class TestExport:
    def test_declares_sort_and_symbols_once(self):
        seq = Sequent((Eq(f(a), a), Atom("P", (f(a),))), (Atom("P", (a,)),))
        script = export_smt2(seq)
        assert script.count("(declare-sort U 0)") == 1
        assert script.count("(declare-fun a () U)") == 1
        assert script.count("(declare-fun f (U) U)") == 1
        assert script.count("(declare-fun P (U) Bool)") == 1

    def test_succedent_is_negated(self):
        seq = Sequent((), (Atom("P", (a,)),))
        script = export_smt2(seq)
        assert "(assert (not (P a)))" in script

    def test_check_sat_is_last(self):
        seq = Sequent((Atom("P", (a,)),), (Atom("P", (a,)),))
        assert export_smt2(seq).rstrip().endswith("(check-sat)")

    def test_logic_line(self):
        seq = Sequent((), (Eq(a, a),))
        assert export_smt2(seq).startswith("(set-logic QF_UF)")
        assert export_smt2(seq, logic="QF_UFLIA").startswith(
            "(set-logic QF_UFLIA)"
        )

    def test_connectives_and_nesting(self):
        seq = Sequent((Imp(Atom("P", (a,)), Not(Atom("Q", (b,)))),), (Atom("R", ()),))
        script = export_smt2(seq)
        assert "(assert (=> (P a) (not (Q b))))" in script
        assert "(declare-fun R () Bool)" in script

    def test_nonalnum_symbols_are_quoted(self):
        seq = Sequent((Atom("P", (App("#f1", (a,)),)),), (Atom("P", (a,)),))
        script = export_smt2(seq)
        assert "|#f1|" in script

    def test_export_random_sequents_is_wellformed(self):
        for seed in range(20):
            rng = random.Random(seed)
            seq = gen.random_ground_sequent(rng)
            script = export_smt2(seq)
            assert script.count("(") == script.count(")")
            assert script.count("(check-sat)") == 1


class TestCommandOracle:
    def _stub(self, tmp_path, body: str) -> str:
        path = tmp_path / "fakesolver"
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return f"{path} {{file}}"

    def test_unsat_means_valid(self, tmp_path):
        o = CommandOracle(self._stub(tmp_path, "echo unsat"))
        seq = Sequent((Atom("P", (a,)),), (Atom("P", (a,)),))
        assert o.validity(seq) is Verdict.VALID

    def test_sat_means_invalid(self, tmp_path):
        o = CommandOracle(self._stub(tmp_path, "echo sat"))
        seq = Sequent((), (Atom("P", (a,)),))
        assert o.validity(seq) is Verdict.INVALID

    def test_garbage_means_unknown(self, tmp_path):
        o = CommandOracle(self._stub(tmp_path, "echo flurble"))
        assert o.validity(Sequent((), ())) is Verdict.UNKNOWN

    def test_missing_binary_means_unknown(self):
        o = CommandOracle("/nonexistent/solver {file}")
        assert o.validity(Sequent((), ())) is Verdict.UNKNOWN

    def test_memoizes(self, tmp_path):
        o = CommandOracle(self._stub(tmp_path, "echo unsat"))
        seq = Sequent((Atom("P", (a,)),), (Atom("P", (a,)),))
        o.validity(seq)
        o.validity(seq)
        assert o.calls == 1

    def test_solver_receives_the_script(self, tmp_path):
        copy = tmp_path / "seen.smt2"
        o = CommandOracle(self._stub(tmp_path, f'cp "$1" {copy}; echo unsat'))
        seq = Sequent((Eq(f(a), a),), (Eq(a, f(a)),))
        o.validity(seq)
        assert copy.read_text() == export_smt2(seq)

    def test_run_keeps_its_deadline(self, tmp_path, golden_text):
        # Every query takes 0.2 s: the forgetful-inference search alone
        # asks enough of them to outlast the 1 s budget several times.
        src = tmp_path / "running_example.cis"
        src.write_text(golden_text)
        stub = self._stub(tmp_path, "sleep 0.2; echo unsat")
        cfg = RunConfig(timeout=1, oracle_spec="cmd:" + stub)
        report = run_pipeline(src, cfg)
        assert report.status == "timeout"
        assert report.wall_time < 1 + 1


@pytest.mark.skipif(
    _available_solver() is None, reason="no external SMT solver on PATH"
)
class TestExternalAgreement:
    def test_agrees_with_internal_solver(self):
        o = CommandOracle(_available_solver())
        for seed in range(20):
            rng = random.Random(seed)
            seq = gen.random_ground_sequent(rng)
            internal = decide_validity(seq)
            external = o.validity(seq)
            if external is not Verdict.UNKNOWN:
                assert external == internal, f"seed {seed}"

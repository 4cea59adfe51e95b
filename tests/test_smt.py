"""SMT-LIB export and the external-solver oracle."""

from __future__ import annotations

import random
import re
import shutil
import stat
import time
from pathlib import Path

import pytest

from cutintro.cnf import cnf_of_formulas
from cutintro.cutformula import sf_improve
from cutintro.euf import InternalOracle, Verdict
from cutintro.formulas import Atom, Eq
from cutintro.pipeline import RunConfig, run_pipeline
from cutintro.sequents import Sequent
from cutintro.smt import CommandOracle, export_smt2
from cutintro.terms import App, Var, const

import gen
from oracles import decide_validity
from test_euf import wide_sequent

a, b = const("a"), const("b")


def f(t):
    return App("f", (t,))


SOLVERS = ["z3 -smt2 {file}", "cvc5 --lang smt2 {file}", "cvc4 --lang smt2 {file}"]


def _available_solver():
    for template in SOLVERS:
        if shutil.which(template.split()[0]):
            return template
    return None


def _read_back(script: str) -> frozenset:
    """The clause set asserted by an exported script, read with a small
    s-expression reader: a check of the writer that needs no solver."""
    tokens = re.findall(r"\(|\)|\|[^|]*\||[^\s()|]+", script)

    def sexp(i):
        if tokens[i] != "(":
            return tokens[i].strip("|"), i + 1
        items, i = [], i + 1
        while tokens[i] != ")":
            item, i = sexp(i)
            items.append(item)
        return items, i + 1

    def term(x):
        if isinstance(x, list):
            return App(x[0], tuple(term(y) for y in x[1:]))
        return Var(x[2:]) if x.startswith("#v") else const(x)

    def literal(x):
        if isinstance(x, list) and x[0] == "not":
            return (False, literal(x[1])[1])
        if isinstance(x, list) and x[0] == "=":
            return (True, Eq(term(x[1]), term(x[2])))
        if isinstance(x, list):
            return (True, Atom(x[0], tuple(term(y) for y in x[1:])))
        return (True, Atom(x, ()))

    clauses, i = set(), 0
    while i < len(tokens):
        x, i = sexp(i)
        if x[0] != "assert":
            continue
        body = x[1]
        if body == "false":
            clauses.add(frozenset())
        elif isinstance(body, list) and body[0] == "or":
            clauses.add(frozenset(literal(y) for y in body[1:]))
        else:
            clauses.add(frozenset([literal(body)]))
    return frozenset(clauses)


def _export(ante, succ) -> str:
    return export_smt2(cnf_of_formulas(ante, succ))


class TestExport:
    def test_declares_sort_and_symbols_once(self):
        script = _export((Eq(f(a), a), Atom("P", (f(a),))), (Atom("P", (a,)),))
        assert script.count("(declare-sort U 0)") == 1
        assert script.count("(declare-fun a () U)") == 1
        assert script.count("(declare-fun f (U) U)") == 1
        assert script.count("(declare-fun P (U) Bool)") == 1

    def test_succedent_is_negated(self):
        # The clause form of ⊢ P(a) is the unit clause ¬P(a).
        assert "(assert (not (P a)))" in _export((), (Atom("P", (a,)),))

    def test_unit_clause_is_its_literal(self):
        assert "(assert (= a b))" in _export((Eq(a, b),), ())

    def test_clause_is_a_disjunction(self):
        clause = frozenset({(True, Atom("P", (a,))), (False, Atom("Q", (b,)))})
        script = export_smt2(frozenset({clause}))
        assert "(assert (or (P a) (not (Q b))))" in script

    def test_empty_clause_is_false(self):
        script = export_smt2(frozenset({frozenset()}))
        assert "(assert false)" in script

    def test_check_sat_is_last(self):
        assert _export((Atom("P", (a,)),), (Atom("P", (a,)),)).rstrip().endswith(
            "(check-sat)"
        )

    def test_logic_line(self):
        clauses = frozenset({frozenset({(True, Eq(a, b))})})
        assert export_smt2(clauses).startswith("(set-logic QF_UF)")

    def test_nonalnum_symbols_are_quoted(self):
        script = _export((Atom("P", (App("#f1", (a,)),)),), (Atom("P", (a,)),))
        assert "(declare-fun |#f1| (U) U)" in script

    def test_variable_is_not_the_constant_of_its_name(self):
        # ⊢ a = a with a variable on one side is invalid: a free variable
        # is a constant of its own.  Written with one symbol for both,
        # every solver would answer unsat, i.e. VALID.
        script = _export((), (Eq(Var("a"), a),))
        assert script.count("(declare-fun a () U)") == 1
        assert script.count("(declare-fun |#va| () U)") == 1
        assert "(not (= a a))" not in script

    def test_export_random_sequents_is_wellformed(self):
        for seed in range(20):
            rng = random.Random(seed)
            seq = gen.random_ground_sequent(rng)
            script = _export(seq.ante, seq.succ)
            assert script.count("(") == script.count(")")
            assert script.count("(check-sat)") == 1

    def test_script_reads_back_as_the_clause_set(self):
        x = Var("x")
        for seed in range(40):
            rng = random.Random(seed)
            seq = gen.random_ground_sequent(rng)
            clauses = cnf_of_formulas(seq.ante, (*seq.succ, Eq(x, f(a))))
            assert _read_back(export_smt2(clauses)) == clauses, f"seed {seed}"
        empty = frozenset({frozenset()})
        assert _read_back(export_smt2(empty)) == empty


def _running(pid: int) -> bool:
    """Whether the process is alive; a zombie that nobody reaps is not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


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
        assert copy.read_text() == _export(seq.ante, seq.succ)

    def test_clause_form_past_the_cap_never_starts_the_solver(self, tmp_path):
        marker = tmp_path / "started"
        o = CommandOracle(self._stub(tmp_path, f"touch {marker}; echo unsat"))
        assert o.validity(wide_sequent(14)) is Verdict.UNKNOWN
        assert o.calls == 0
        assert not marker.exists()

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

    def test_deadline_stops_a_slow_solver_call(self, tmp_path, golden_text):
        # One query outlasts the whole budget: the deadline is polled
        # while the solver runs, not only between calls.
        src = tmp_path / "running_example.cis"
        src.write_text(golden_text)
        stub = self._stub(tmp_path, "sleep 3; echo unsat")
        cfg = RunConfig(timeout=1, oracle_spec="cmd:" + stub)
        report = run_pipeline(src, cfg)
        assert report.status == "timeout"
        assert report.wall_time < 1.5

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="needs /proc"
    )
    @pytest.mark.parametrize("stop", ["deadline", "own_timeout"])
    def test_processes_the_solver_started_die_with_it(
        self, tmp_path, golden_text, stop
    ):
        pid_file = tmp_path / "child.pid"
        stub = self._stub(tmp_path, f"sleep 5 & echo $! > {pid_file}; wait")
        if stop == "deadline":
            src = tmp_path / "running_example.cis"
            src.write_text(golden_text)
            cfg = RunConfig(timeout=1, oracle_spec="cmd:" + stub)
            assert run_pipeline(src, cfg).status == "timeout"
        else:
            o = CommandOracle(stub, 0.2)
            assert o.validity(Sequent((), ())) is Verdict.UNKNOWN
        pid = int(pid_file.read_text())
        end = time.monotonic() + 1
        while _running(pid) and time.monotonic() < end:
            time.sleep(0.02)
        assert not _running(pid)

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="needs /proc"
    )
    @pytest.mark.parametrize(
        "answer, verdict", [("unsat", Verdict.VALID), ("flurble", Verdict.UNKNOWN)]
    )
    def test_answer_counts_while_a_child_holds_the_output(
        self, tmp_path, answer, verdict
    ):
        # The solver answers and exits, but a process it started still
        # holds its stdout, so end of file does not come for 2 s.
        pid_file = tmp_path / "child.pid"
        stub = self._stub(
            tmp_path, f"sleep 2 & echo $! > {pid_file}; echo {answer}"
        )
        start = time.monotonic()
        assert CommandOracle(stub, 1.0).validity(Sequent((), ())) is verdict
        assert time.monotonic() - start < 0.5
        pid = int(pid_file.read_text())
        end = time.monotonic() + 1
        while _running(pid) and time.monotonic() < end:
            time.sleep(0.02)
        assert not _running(pid)

    def test_solver_past_its_own_timeout_means_unknown(self, tmp_path):
        o = CommandOracle(self._stub(tmp_path, "sleep 3; echo unsat"), 0.2)
        start = time.monotonic()
        assert o.validity(Sequent((), ())) is Verdict.UNKNOWN
        assert time.monotonic() - start < 1.5


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

    def test_agrees_on_the_guard_clause_sets(self, golden_ehs):
        # Every clause set forgetful inference asks about on the bundled
        # example: the guards of its candidates.
        internal = InternalOracle()
        sf_improve(golden_ehs, internal)
        o = CommandOracle(_available_solver())
        assert internal._memo
        for clauses, verdict in internal._memo.items():
            external = o.refutation(clauses)
            if external is not Verdict.UNKNOWN:
                assert external == verdict, export_smt2(clauses)

    def test_variable_is_not_the_constant_of_its_name(self):
        seq = Sequent((), (Eq(Var("a"), a),))
        assert decide_validity(seq) is Verdict.INVALID
        assert CommandOracle(_available_solver()).validity(seq) is Verdict.INVALID

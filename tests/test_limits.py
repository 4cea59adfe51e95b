"""The run's limits: each meter raises LimitReached under its own name,
and each ends the way it always has."""

from __future__ import annotations

import sys

import pytest

import cutintro.euf as euf
import cutintro.pipeline as pipeline
from cutintro.cli import main
from cutintro.cnf import cnf_of_formulas
from cutintro.cutformula import check_solution
from cutintro.decomposition import build_delta_table
from cutintro.euf import InternalOracle, Verdict, _Search
from cutintro.formulas import And, Atom, Eq, Or
from cutintro.limits import NO_DEADLINE, Deadline, LimitReached
from cutintro.pipeline import RunConfig, run_pipeline
from cutintro.sequents import Sequent
from cutintro.terms import App, alpha, const

import gen

TOO_LARGE = (
    "term set has 12 terms; the subset table is limited to 5 (raise the "
    "limit explicitly to override)"
)


@pytest.fixture()
def golden_file(tmp_path, golden_text):
    p = tmp_path / "golden.cis"
    p.write_text(golden_text)
    return p


def _wide(n: int, *args) -> Or:
    """(P0 & Q0) | ... | (Pn-1 & Qn-1): 2ⁿ clauses of n literals."""
    parts = [And(Atom(f"P{i}", args), Atom(f"Q{i}", args)) for i in range(n)]
    f = parts[0]
    for p in parts[1:]:
        f = Or(f, p)
    return f


def _chain_sequent(n: int) -> Sequent:
    """a = f(a), ..., fⁿ⁻¹(a) = fⁿ(a) ⊢ a = fⁿ(a)."""
    a = const("a")
    terms = [a]
    for _ in range(n):
        terms.append(App("f", (terms[-1],)))
    ante = tuple(Eq(s, t) for s, t in zip(terms, terms[1:]))
    return Sequent(ante, (Eq(a, terms[-1]),))


class TestDeadline:
    def test_poll_raises_the_deadline_meter(self):
        with pytest.raises(LimitReached) as exc:
            Deadline(1e-9).poll()
        assert exc.value.meter == "deadline"
        assert exc.value.cap == 1e-9
        assert str(exc.value) == "deadline of 1e-09s struck during the search"

    def test_none_never_strikes(self):
        NO_DEADLINE.poll()
        Deadline(None).poll()

    def test_run_ends_timeout(self, golden_file, capsys):
        rep = run_pipeline(golden_file, RunConfig(timeout=1e-6))
        assert rep.status == "timeout"
        assert rep.messages == ["deadline of 1e-06s struck during the search"]
        assert main(["run", str(golden_file), "--timeout", "1e-9"]) == 3
        assert '"status": "timeout"' in capsys.readouterr().out

    def test_check_ends_with_one_line_and_exit_two(
        self, golden_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "artifacts"
        main(["run", str(golden_file), "--out", str(out)])
        capsys.readouterr()
        # `check` takes the default deadline of `run`.
        monkeypatch.setattr(RunConfig, "timeout", 1e-9)
        assert main(["check", str(out / "proof.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot check proof: deadline of 1e-09s struck during "
            "the search\n"
        )


class _StrikeIn(Deadline):
    """A deadline that strikes when polled from the function named
    ``site``, and never elsewhere."""

    site = ""

    def poll(self) -> None:
        if sys._getframe(1).f_code.co_name == self.site:
            self._at = float("-inf")
        super().poll()


class TestDeadlineInsideAQuery:
    # A query's own caps make it UNKNOWN; a deadline that strikes while
    # it runs must end the run instead.
    @pytest.mark.parametrize("site", ["simplify_clauses", "next_model"])
    def test_run_ends_timeout_not_unknown(self, golden_file, site, monkeypatch):
        monkeypatch.setattr(_StrikeIn, "site", site)
        monkeypatch.setattr(pipeline, "Deadline", _StrikeIn)
        rep = run_pipeline(golden_file, RunConfig())
        assert rep.status == "timeout"
        assert rep.messages == ["deadline of 60s struck during the search"]

    @pytest.mark.parametrize("site", ["simplify_clauses", "next_model"])
    def test_validity_passes_the_deadline_on(self, site, monkeypatch):
        monkeypatch.setattr(_StrikeIn, "site", site)
        oracle = InternalOracle(cancel=_StrikeIn(60).poll)
        with pytest.raises(LimitReached) as exc:
            oracle.validity(_chain_sequent(3))
        assert exc.value.meter == "deadline"


class TestTermsetLimit:
    def test_table_raises_the_termset_meter(self):
        ts = [const(f"c{i}") for i in range(6)]
        with pytest.raises(LimitReached) as exc:
            build_delta_table(ts, limit=5)
        assert exc.value.meter == "termset_limit"
        assert exc.value.cap == 5

    def test_run_ends_too_large(self, golden_file, capsys):
        rep = run_pipeline(golden_file, RunConfig(termset_limit=5))
        assert rep.status == "too_large"
        assert rep.termset_size == 12
        assert rep.messages == [TOO_LARGE]
        assert main(["run", str(golden_file), "--termset-limit", "5"]) == 3
        assert '"status": "too_large"' in capsys.readouterr().out


class TestOracleSteps:
    def test_search_raises_the_step_meter(self):
        with pytest.raises(LimitReached) as exc:
            _Search([(1, 2), (-1, 2)], 2, 1, NO_DEADLINE.poll)
        assert exc.value.meter == "oracle_steps"
        assert exc.value.cap == 1

    def test_query_past_the_cap_is_unknown(self, monkeypatch):
        seq = _chain_sequent(12)
        assert InternalOracle().validity(seq) is Verdict.VALID
        monkeypatch.setattr(euf, "DEFAULT_STEP_CAP", 5)
        assert InternalOracle().validity(seq) is Verdict.UNKNOWN


class TestClauseFormLiterals:
    def test_clause_form_raises_the_literal_meter(self):
        with pytest.raises(LimitReached) as exc:
            cnf_of_formulas([_wide(16)], [], cap=1000)
        assert exc.value.meter == "clause_form_literals"
        assert exc.value.cap == 1000
        assert str(exc.value) == "clause form exceeds 1000 literals"

    def test_validity_past_the_cap_is_unknown(self):
        seq = Sequent((_wide(14),), (Atom("R", ()),))
        assert InternalOracle().validity(seq) is Verdict.UNKNOWN

    def test_solution_past_the_cap_fails_the_check(self, golden_ehs):
        a = _wide(14, alpha(1))
        assert check_solution(golden_ehs, a, InternalOracle()) is False

    def test_canonical_solution_past_the_cap_fails_its_decomposition(
        self, tmp_path
    ):
        p = tmp_path / "wide.cis"
        p.write_text(gen.wide_disjunction_input())
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "error"
        assert any(
            "passes the clause-form cap: clause form exceeds 10000 literals"
            in m
            for m in rep.messages
        )

"""SMT-LIB export and an external-solver oracle.

Ground validity modulo equality maps to QF_UF: declare one uninterpreted
sort, assert the antecedent and the negated succedent, and ask for
satisfiability — unsat means the sequent is valid.  Any solver speaking
SMT-LIB 2 on files works as a drop-in oracle backend.
"""

from __future__ import annotations

import re
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .euf import Oracle, Verdict
from .formulas import (
    And,
    Atom,
    Bottom,
    Eq,
    Formula,
    Imp,
    Not,
    Or,
    Top,
    is_quantifier_free,
    symbols,
)
from .sequents import Sequent
from .terms import Term, Var

_PLAIN = re.compile(r"[A-Za-z~!@$%^&*_\-+=<>.?/][A-Za-z0-9~!@$%^&*_\-+=<>.?/]*\Z")


def _sym(name: str) -> str:
    if _PLAIN.match(name):
        return name
    escaped = name.replace("\\", "").replace("|", "")
    return f"|{escaped}|"


def _term_sexp(t: Term) -> str:
    if isinstance(t, Var):
        return _sym(t.name)
    if not t.args:
        return _sym(t.head)
    return "(" + " ".join([_sym(t.head)] + [_term_sexp(a) for a in t.args]) + ")"


def _formula_sexp(f: Formula) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return _sym(f.pred)
        return (
            "(" + " ".join([_sym(f.pred)] + [_term_sexp(a) for a in f.args]) + ")"
        )
    if isinstance(f, Eq):
        return f"(= {_term_sexp(f.lhs)} {_term_sexp(f.rhs)})"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return f"(not {_formula_sexp(f.body)})"
    if isinstance(f, And):
        return f"(and {_formula_sexp(f.lhs)} {_formula_sexp(f.rhs)})"
    if isinstance(f, Or):
        return f"(or {_formula_sexp(f.lhs)} {_formula_sexp(f.rhs)})"
    if isinstance(f, Imp):
        return f"(=> {_formula_sexp(f.lhs)} {_formula_sexp(f.rhs)})"
    raise TypeError(f"cannot export quantified formula: {f!r}")


def _signature(seq: Sequent) -> tuple[dict[str, int], dict[str, int]]:
    """Function and predicate arities; a variable is declared as a
    constant."""
    funcs: dict[str, int] = {}
    preds: dict[str, int] = {}
    for kind, name, arity in symbols((*seq.ante, *seq.succ)):
        (preds if kind == "pred" else funcs).setdefault(name, arity)
    return funcs, preds


def export_smt2(seq: Sequent, logic: str = "QF_UF") -> str:
    """SMT-LIB 2 script that is unsat iff the sequent is valid."""
    for f in tuple(seq.ante) + tuple(seq.succ):
        if not is_quantifier_free(f):
            raise ValueError(f"sequent is not quantifier-free: {f!r}")
    funcs, preds = _signature(seq)
    lines = [f"(set-logic {logic})", "(declare-sort U 0)"]
    for name in sorted(funcs):
        arity = funcs[name]
        dom = " ".join(["U"] * arity)
        lines.append(f"(declare-fun {_sym(name)} ({dom}) U)")
    for name in sorted(preds):
        arity = preds[name]
        dom = " ".join(["U"] * arity)
        lines.append(f"(declare-fun {_sym(name)} ({dom}) Bool)")
    for f in seq.ante:
        lines.append(f"(assert {_formula_sexp(f)})")
    for f in seq.succ:
        lines.append(f"(assert (not {_formula_sexp(f)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


@dataclass
class CommandOracle(Oracle):
    """Runs an external SMT solver per query.

    ``template`` is a shell-free command line with a ``{file}``
    placeholder, e.g. ``z3 -smt2 {file}`` or ``veriT {file}``.  The
    first stdout line containing ``unsat`` or ``sat`` decides; anything
    else (including solver errors and timeouts) is UNKNOWN.
    """

    template: str
    timeout: float = 30.0

    def _decide_validity(self, seq: Sequent) -> Verdict:
        return self._run(export_smt2(seq))

    def _run(self, script: str) -> Verdict:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".smt2", delete=False
        ) as fh:
            fh.write(script)
            path = fh.name
        try:
            argv = [
                part.replace("{file}", path)
                for part in self.template.split()
            ]
            done = subprocess.run(
                argv,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except (subprocess.TimeoutExpired, OSError):
            return Verdict.UNKNOWN
        finally:
            Path(path).unlink(missing_ok=True)
        for line in done.stdout.splitlines():
            word = line.strip()
            if word == "unsat":
                return Verdict.VALID
            if word == "sat":
                return Verdict.INVALID
        return Verdict.UNKNOWN

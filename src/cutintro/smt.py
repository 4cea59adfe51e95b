"""SMT-LIB export and an external-solver oracle.

The oracle's one question, unsatisfiability of a ground clause set
modulo equality, maps to QF_UF: declare one uninterpreted sort and the
symbols, assert each clause, and ask for satisfiability — unsat means
VALID.  A free variable is a constant of its own, never the constant
that shares its name, so it is declared under a reserved ``#v`` name
('#' is no token character, so no parsed symbol starts with it).  Any
solver speaking SMT-LIB 2 on files works as a drop-in oracle backend.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .cnf import CNF, Clause, Literal, clause_key, literal_key
from .euf import Oracle, Verdict
from .formulas import Eq, symbols
from .terms import Term, Var

# How long a solver run goes between two calls of ``Oracle.cancel``.
_SLICE_S = 0.05

# The solver's answer lines, and ``waitid`` flags that see an exit
# without reaping the process.
_ANSWERS = {b"unsat": Verdict.VALID, b"sat": Verdict.INVALID}
_EXITED = os.WEXITED | os.WNOHANG | os.WNOWAIT

_PLAIN = re.compile(r"[A-Za-z~!@$%^&*_\-+=<>.?/][A-Za-z0-9~!@$%^&*_\-+=<>.?/]*\Z")


def _sym(name: str) -> str:
    if _PLAIN.match(name):
        return name
    escaped = name.replace("\\", "").replace("|", "")
    return f"|{escaped}|"


def _var_sym(name: str) -> str:
    return _sym("#v" + name)


def _app_sexp(head: str, args: tuple) -> str:
    if not args:
        return _sym(head)
    return "(" + " ".join([_sym(head)] + [_term_sexp(a) for a in args]) + ")"


def _term_sexp(t: Term) -> str:
    if isinstance(t, Var):
        return _var_sym(t.name)
    return _app_sexp(t.head, t.args)


def _literal_sexp(lit: Literal) -> str:
    sign, atom = lit
    if isinstance(atom, Eq):
        s = f"(= {_term_sexp(atom.lhs)} {_term_sexp(atom.rhs)})"
    else:
        s = _app_sexp(atom.pred, atom.args)
    return s if sign else f"(not {s})"


def _clause_sexp(c: Clause) -> str:
    lits = [_literal_sexp(lit) for lit in sorted(c, key=literal_key)]
    if not lits:
        return "false"
    return lits[0] if len(lits) == 1 else "(or " + " ".join(lits) + ")"


def export_smt2(clauses: CNF, logic: str = "QF_UF") -> str:
    """SMT-LIB 2 script that is unsat iff the clause set is unsatisfiable
    modulo equality."""
    decls: dict[str, str] = {}
    atoms = {atom for c in clauses for _, atom in c}
    for kind, name, arity in symbols(atoms):
        sym = _var_sym(name) if kind == "var" else _sym(name)
        dom = " ".join(["U"] * arity)
        decls.setdefault(sym, f"({dom}) {'Bool' if kind == 'pred' else 'U'}")
    lines = [f"(set-logic {logic})", "(declare-sort U 0)"]
    lines += [f"(declare-fun {sym} {decls[sym]})" for sym in sorted(decls)]
    lines += [
        f"(assert {_clause_sexp(c)})" for c in sorted(clauses, key=clause_key)
    ]
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


@dataclass
class CommandOracle(Oracle):
    """Runs an external SMT solver per clause set.

    ``template`` is a shell-free command line with a ``{file}``
    placeholder, e.g. ``z3 -smt2 {file}`` or ``veriT {file}``.  The
    solver receives ``export_smt2`` of the clause set; a sequent reaches
    it as its clause form, so one past the cap is UNKNOWN without a
    solver run, as for the internal oracle.  The first stdout line
    reading ``unsat`` or ``sat`` decides; anything else (including
    solver errors and timeouts) is UNKNOWN.  ``cancel`` is also called
    while the solver runs, so a deadline stops a slow solver call.
    """

    template: str
    timeout: float = 30.0

    def _decide(self, clauses: CNF) -> Verdict:
        return self._run(export_smt2(clauses))

    def _run(self, script: str) -> Verdict:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".smt2", delete=False
        ) as fh:
            fh.write(script)
            path = fh.name
        argv = [part.replace("{file}", path) for part in self.template.split()]
        try:
            with subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            ) as proc:
                return self._wait(proc)
        except OSError:
            return Verdict.UNKNOWN
        finally:
            Path(path).unlink(missing_ok=True)

    def _wait(self, proc: subprocess.Popen) -> Verdict:
        """The verdict of the solver's first ``sat``/``unsat`` line, read
        as it comes: UNKNOWN once the solver exits or closes its output
        without one, or once ``timeout`` passes.  Calls ``cancel`` every
        ``_SLICE_S`` meanwhile.  The solver is then killed with its
        process group, so the processes it started die too, even one
        that still holds its output.  Its exit is seen without reaping
        it, so its pid cannot name another group yet."""
        end = time.monotonic() + self.timeout
        fd = proc.stdout.fileno()
        out = b""
        try:
            while time.monotonic() <= end:
                exited = os.waitid(os.P_PID, proc.pid, _EXITED) is not None
                ready = select.select([fd], [], [], 0 if exited else _SLICE_S)[0]
                chunk = os.read(fd, 4096) if ready else b""
                out += chunk
                # Whole lines decide; the last one too once no more comes.
                more = bool(chunk) or not (ready or exited)
                lines = out.split(b"\n")
                for line in lines[:-1] if more else lines:
                    verdict = _ANSWERS.get(line.strip())
                    if verdict is not None:
                        return verdict
                if not more:
                    return Verdict.UNKNOWN
                self.cancel()
            return Verdict.UNKNOWN
        finally:
            os.killpg(proc.pid, signal.SIGKILL)

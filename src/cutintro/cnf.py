"""Clause normal form over the original atom set.

Literals are (sign, atom) pairs where the atom is a predicate application
or an equation; no definitional atoms are ever introduced, so clause sets
stay in the signature of the input formula (the solution-improvement
search depends on that).  ``cnf_of_formulas`` is the one conversion:
one walk that pushes negations down and distributes as it goes, guarded
by a literal-count cap.  A clause set is what the equality oracle
decides, so a quantifier met here raises ValueError for every caller.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

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
    conj,
    disj,
)
from .limits import NO_DEADLINE, LimitReached

Literal = tuple[bool, Union[Atom, Eq]]
Clause = frozenset  # of Literal
CNF = frozenset  # of Clause

DEFAULT_CNF_CAP = 10_000


def _clause_form(
    g: Formula, pos: bool, cap: int, budget: list
) -> set[Clause]:
    """The clauses of g, or of ¬g when not ``pos``, in one walk that
    carries the polarity, so no negation normal form is built.  A side
    that is a conjunction in its polarity (∧⁺, ∨⁻, →⁻) unions the clauses
    of its parts, a disjunction (∨⁺, ∧⁻, →⁺) multiplies them out.
    ``budget[0]`` is the count of literals the products may still spend;
    raises LimitReached (``clause_form_literals``) once they spend more
    than ``cap``.  The state is passed as arguments, not held in a
    closure, so a call leaves no reference cycle behind."""
    if isinstance(g, (Atom, Eq)):
        return {frozenset([(pos, g)])}
    if isinstance(g, Not):
        return _clause_form(g.body, not pos, cap, budget)
    if isinstance(g, (Top, Bottom)):
        return set() if isinstance(g, Top) == pos else {frozenset()}
    if not isinstance(g, (And, Or, Imp)):
        raise ValueError(f"not quantifier-free: {g!r}")
    left = _clause_form(g.lhs, pos != isinstance(g, Imp), cap, budget)
    right = _clause_form(g.rhs, pos, cap, budget)
    if isinstance(g, And) == pos:
        return left | right
    if not left or not right:  # one side is true
        return set()
    out: set[Clause] = set()
    for c in left:
        for d in right:
            e = c | d
            budget[0] -= len(e)
            if budget[0] < 0:
                message = f"clause form exceeds {cap} literals"
                raise LimitReached("clause_form_literals", cap, message)
            out.add(e)
    return out


def is_tautological(c: Clause) -> bool:
    return any((not sign, atom) in c for sign, atom in c)


# Clauses checked for subsumption between two calls of ``cancel``.
_POLL_EVERY = 256


def simplify_clauses(
    clauses: Iterable[Clause],
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> CNF:
    """Drop tautological and strictly subsumed clauses.

    Each clause is checked against every kept one, so this is quadratic;
    ``cancel`` runs every ``_POLL_EVERY`` clauses.
    """
    kept = [c for c in set(clauses) if not is_tautological(c)]
    kept.sort(key=len)
    out: list[Clause] = []
    for i, c in enumerate(kept):
        if i % _POLL_EVERY == 0:
            cancel()
        if not any(d <= c for d in out):
            out.append(c)
    return frozenset(out)


def cnf_of_formulas(
    asserted: Iterable[Formula],
    denied: Iterable[Formula],
    cap: int = DEFAULT_CNF_CAP,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> CNF:
    """Clauses equivalent to (all asserted true and all denied false).
    ``cancel`` is passed to ``simplify_clauses``."""
    clauses: set[Clause] = set()
    for f in asserted:
        clauses |= _clause_form(f, True, cap, [cap])
    for f in denied:
        clauses |= _clause_form(f, False, cap, [cap])
    return simplify_clauses(clauses, cancel)


def literal_key(lit: Literal) -> tuple:
    return (lit[1].key, lit[0])


def clause_key(c: Clause) -> tuple:
    return tuple(sorted(literal_key(l) for l in c))


def clause_formula(c: Clause) -> Formula:
    lits = sorted(c, key=literal_key)
    return disj([a if sign else Not(a) for sign, a in lits])


def formula_of_cnf(cnf: CNF) -> Formula:
    return conj([clause_formula(c) for c in sorted(cnf, key=clause_key)])

"""Cut-formula synthesis over a schematic extended Herbrand sequent.

A decomposition U∘W of the instance term set induces a schematic
sequent.  Its patterns U split by tag, as ``herbrand.decode_termset``
splits the term set itself, into a Herbrand structure over the
variables α₁..α_m, and the schematic sequent Γ' ⊢ Δ' is the Herbrand
sequent of that structure (``herbrand.herbrand_sequent``): the same
instantiation, with pattern tuples in place of ground ones.  A formula
A(ᾱ) solves the schema when

    A(ᾱ) → ⋀_{w̄ ∈ W} A(w̄),  Γ'  ⊢  Δ'

is valid modulo equality, where Γ'/Δ' are the instantiated sides.  Any
solution can serve as the matrix of a single quantified cut ∀x̄.A whose
proof reproduces the original Herbrand sequent; the proof's end-sequent
is the input ``Sequent`` itself (``SchematicEHS.base``), whose
quantifier blocks it instantiates.

That sequent is never built: it holds iff both of its halves do, and
each half is decided on clause sets, with the free ᾱ read as constants.
Write S for the side clauses, the clause form of Γ' ∧ ¬⋁Δ':

  (i)  Γ' ⊢ Δ', A — every clause C of A's clause form follows from S,
       one refutation of S ∪ {¬l : l ∈ C} per clause C not in S;
  (ii) A(w̄₁), .., A(w̄_k), Γ' ⊢ Δ' — the guard, a refutation of
       S ∪ ⋃_{w̄ ∈ W} A[w̄].

The canonical solution ⋀Γ' ∧ ¬⋁Δ' always works (its clause form is S,
so (i) asks nothing) and is a least element of the solution space under
entailment; ``sf_improve`` then searches for smaller solutions by
forgetful inference: replacing two clauses of the clause form by one of
their resolvents or paramodulants and keeping the results that still
pass the guard.  They keep (i) because they follow from the canonical
clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .cnf import (
    CNF,
    Clause,
    cnf_of_formulas,
    clause_formula,
    clause_key,
    formula_of_cnf,
    is_tautological,
    simplify_clauses,
)
from .euf import Oracle, Verdict
from .formulas import (
    Atom,
    Eq,
    Formula,
    Not,
    apply_subst,
    conj,
    disj,
    formula_size,
    formula_vars,
    render_formula,
)
from .herbrand import HerbrandStructure, herbrand_sequent
from .limits import NO_DEADLINE, LimitReached
from .sequents import Sequent
from .terms import (
    Term,
    alpha_index,
    alpha_subst,
    is_alpha,
    positions_of,
    render_term,
    replace_at,
    term_vars,
    tuple_key,
)


class SchemaError(ValueError):
    """The decomposition does not fit the sequent."""


@dataclass(frozen=True)
class SchematicEHS:
    """Schematic extended Herbrand sequent for one quantified cut."""

    base: Sequent  # the input sequent, of prenex formulas
    u: HerbrandStructure  # the patterns' tuples, over ᾱ
    w: tuple  # of ground rows, sorted
    gamma: tuple  # instantiated antecedent formulas, fixed order
    delta: tuple  # instantiated succedent formulas, fixed order

    @property
    def arity(self) -> int:
        return len(self.w[0]) if self.w else 0

    @cached_property
    def side_clauses(self) -> CNF:
        """Clause form of Γ' ∧ ¬⋁Δ'; raises LimitReached past the cap."""
        return cnf_of_formulas(self.gamma, self.delta)

    @cached_property
    def _instances(self) -> dict:
        """Each clause's instances under the rows W, kept as long as this
        sequent once ``guard_clauses`` has met the clause."""
        return {}


def build_schematic_ehs(
    s: Sequent, u: HerbrandStructure, w: Iterable[tuple]
) -> SchematicEHS:
    """The Herbrand sequent of the pattern structure U, with the rows W."""
    if len(u.instances) != s.q:
        raise SchemaError(
            f"decomposition has {len(u.instances)} instance sets, "
            f"sequent has {s.q} formulas"
        )
    rows = tuple(sorted(w, key=tuple_key))
    if not rows or not rows[0]:
        raise SchemaError("decomposition must bind at least one variable")
    for row in rows:
        for x in row:
            if term_vars(x):
                raise SchemaError(
                    f"instantiation vector {render_term(x)} is not ground"
                )
    for i, ui in enumerate(u.instances, start=1):
        k = s.k(i)
        if k == 0 and ui:
            raise SchemaError(
                f"formula {i} has no quantifier prefix but "
                f"{len(ui)} instance tuples"
            )
        for tup in ui:
            if len(tup) != k:
                raise SchemaError(
                    f"formula {i} expects {k}-tuples, got {len(tup)}"
                )
            for x in tup:
                bad = [v for v in term_vars(x) if not is_alpha(v)]
                if bad:
                    raise SchemaError(
                        f"instance tuple mentions non-schema variable "
                        f"{min(bad)}"
                    )
    hseq = herbrand_sequent(s, u)
    return SchematicEHS(
        base=s, u=u, w=rows, gamma=hseq.ante, delta=hseq.succ
    )


@dataclass(frozen=True)
class SolutionCandidate:
    """A cut-formula matrix together with its clause form and ancestry."""

    formula: Formula
    clauses: CNF
    steps: tuple = ()  # forgetful steps (clause, clause, result) taken

    @property
    def provenance(self) -> tuple[str, ...]:
        """"canonical", then each step as "[ci] + [cj] => [new]"."""
        show = lambda c: render_formula(clause_formula(c))
        return ("canonical",) + tuple(
            f"[{show(ci)}] + [{show(cj)}] => [{show(new)}]"
            for ci, cj, new in self.steps
        )

    @property
    def size(self) -> int:
        return formula_size(self.formula)

    def sort_key(self) -> tuple:
        return (self.size, render_formula(self.formula))


def candidates_by_sort_key(
    candidates: Iterable[SolutionCandidate],
) -> Iterator[SolutionCandidate]:
    """The candidates in ``SolutionCandidate.sort_key`` order, the order
    of a stable sort.  The size alone orders candidates of different
    sizes; a group of equal size is rendered and sorted only when the
    iteration reaches it, so a caller that stops at the first candidate
    that works renders no larger one."""
    by_size = sorted(((c.size, c) for c in candidates), key=itemgetter(0))
    for _, group in groupby(by_size, key=itemgetter(0)):
        tied = [c for _, c in group]
        if len(tied) > 1:
            tied.sort(key=SolutionCandidate.sort_key)
        yield from tied


def canonical_solution(e: SchematicEHS) -> SolutionCandidate:
    """⋀Γ' ∧ ¬⋁Δ'; empty sides contribute no conjunct."""
    parts: list[Formula] = []
    if e.gamma:
        parts.append(conj(list(e.gamma)))
    if e.delta:
        parts.append(Not(disj(list(e.delta))))
    return SolutionCandidate(formula=conj(parts), clauses=e.side_clauses)


def guard_clauses(e: SchematicEHS, clauses: CNF) -> CNF:
    """A(w̄₁), .., A(w̄_k), Γ' ⊢ Δ' as a clause set to refute, where
    ``clauses`` is the clause form of A(ᾱ)."""
    known = e._instances
    for c in clauses - known.keys():
        known[c] = frozenset().union(
            *(subst_clauses([c], alpha_subst(row)) for row in e.w)
        )
    return e.side_clauses.union(*[known[c] for c in clauses])


def _negated(c: Clause) -> CNF:
    """¬C as unit clauses."""
    return frozenset(frozenset([(not sign, atom)]) for sign, atom in c)


def check_solution(
    e: SchematicEHS, a: Formula, oracle: Oracle
) -> bool:
    """True iff A(ᾱ) solves the schema; UNKNOWN counts as failure."""
    bad = [
        v
        for v in formula_vars(a)
        if not is_alpha(v) or alpha_index(v) > e.arity
    ]
    if bad:
        raise SchemaError(
            f"candidate mentions variable {sorted(bad)[0]} outside α₁..α_{e.arity}"
        )
    try:
        side, clauses = e.side_clauses, cnf_of_formulas((a,), ())
    except LimitReached:  # clause_form_literals: no deadline is polled
        return False
    queries = [side | _negated(c) for c in clauses - side]
    queries.append(guard_clauses(e, clauses))
    return all(oracle.refutation(q) is Verdict.VALID for q in queries)


def subst_clauses(cnf: CNF, mapping: dict) -> CNF:
    return frozenset(
        frozenset((sign, apply_subst(a, mapping)) for sign, a in c)
        for c in cnf
    )


# ---------------------------------------------------------------------------
# forgetful inference


def _clause_eqs(c: Clause) -> list[Eq]:
    return [a for sign, a in c if sign and isinstance(a, Eq)]


def _rewrite_literal(lit, lhs: Term, rhs: Term):
    """All single-occurrence rewrites of lhs to rhs inside the literal."""
    sign, atom = lit
    out = []
    if isinstance(atom, Eq):
        sides = (atom.lhs, atom.rhs)
    else:
        sides = atom.args
    for i, t in enumerate(sides):
        for pos in positions_of(t, lhs):
            new_t = replace_at(t, pos, rhs)
            if isinstance(atom, Eq):
                new_atom = (
                    Eq(new_t, atom.rhs) if i == 0 else Eq(atom.lhs, new_t)
                )
            else:
                args = list(atom.args)
                args[i] = new_t
                new_atom = Atom(atom.pred, tuple(args))
            out.append((sign, new_atom))
    return out


def _pair_successors(ci: Clause, cj: Clause) -> list[Clause]:
    """Resolvents and ground paramodulants of an unordered clause pair."""
    out: list[Clause] = []
    for sign, atom in ci:
        if (not sign, atom) in cj:
            out.append(
                (ci - {(sign, atom)}) | (cj - {(not sign, atom)})
            )
    for src, dst in ((ci, cj), (cj, ci)):
        for eq in _clause_eqs(src):
            rest = src - {(True, eq)}
            for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                for lit in dst:
                    for new_lit in _rewrite_literal(lit, lhs, rhs):
                        if new_lit == lit:
                            continue
                        out.append(rest | (dst - {lit}) | {new_lit})
    return out


def _forget_moves(
    cnf: CNF, pairs: Optional[dict] = None
) -> Iterator[tuple[CNF, tuple]]:
    """Every clause set reachable by one forgetful inference step, each
    distinct successor once, with the (clause, clause, result) step that
    first reached it; the step is rendered only on demand.  ``pairs``,
    when given, keeps each ordered clause pair's ``_pair_successors``
    across calls.

    One step picks two clauses and replaces both by a single resolvent
    or ground paramodulant, which is dropped when it is a tautology; the
    node itself holds none.  The result is strictly less general in the
    entailment order, which is what lets the improvement loop shrink
    solutions.
    """
    if pairs is None:
        pairs = {}
    clauses = sorted(cnf, key=clause_key)
    seen: set[CNF] = set()
    for i in range(len(clauses)):
        for j in range(i + 1, len(clauses)):
            pair = (clauses[i], clauses[j])
            news = pairs.get(pair)
            if news is None:
                news = pairs[pair] = _pair_successors(*pair)
            rest = cnf - {clauses[i], clauses[j]}
            for new in news:
                succ = rest if is_tautological(new) else rest | {new}
                if succ in seen:
                    continue
                seen.add(succ)
                yield succ, (clauses[i], clauses[j], new)


def _drop_alpha_free(cnf: CNF, known: dict) -> CNF:
    """Drop clauses with no schema variable; ``known`` keeps, per clause,
    whether it mentions one.

    Such clauses follow from Γ' (they were instantiated from it), so
    removing them preserves solutionhood while shrinking the formula.
    """
    for c in cnf - known.keys():
        known[c] = any(any(is_alpha(v) for v in formula_vars(a)) for _, a in c)
    return frozenset(c for c in cnf if known[c])


@dataclass
class SFResult:
    candidates: list  # of SolutionCandidate, one per visited node
    visited: int
    capped: bool


def sf_improve(
    e: SchematicEHS,
    cand: SolutionCandidate,
    oracle: Oracle,
    node_cap: int = 10_000,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> SFResult:
    """Greedy-complete search over forgetful successors of a solution.

    Maintains a stack of clause-set nodes known to solve the schema
    (validated via the step guard A(w̄₁)..A(w̄_k), Γ' ⊢ Δ', which the
    successors of a solution inherit).  α-free clauses are dropped at
    every node.  Nodes whose every successor fails the guard are leaves.
    Every visited node is returned as a candidate, in visiting order;
    the pipeline tries them in ``SolutionCandidate.sort_key`` order
    (``candidates_by_sort_key``), smallest first.
    """
    mentions_alpha: dict = {}
    pairs: dict = {}
    entry = _drop_alpha_free(simplify_clauses(cand.clauses), mentions_alpha)
    seen: set[CNF] = {entry}
    stack: list[tuple[CNF, tuple]] = [(entry, cand.steps)]
    results: list[SolutionCandidate] = []
    visited = 0
    capped = False
    while stack:
        cancel()
        node, steps = stack.pop()
        visited += 1
        results.append(
            SolutionCandidate(
                formula=formula_of_cnf(node), clauses=node, steps=steps
            )
        )
        if visited >= node_cap:
            capped = True
            break
        for succ, move in _forget_moves(node, pairs):
            succ = _drop_alpha_free(succ, mentions_alpha)
            if succ in seen:
                continue
            seen.add(succ)
            if oracle.refutation(guard_clauses(e, succ)) is Verdict.VALID:
                stack.append((succ, steps + (move,)))
    return SFResult(candidates=results, visited=visited, capped=capped)


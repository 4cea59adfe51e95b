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
entailment; ``sf_improve`` then starts at S and searches for smaller
solutions by forgetful inference: replacing two clauses by one of their
resolvents or paramodulants and keeping the results that still pass the
guard.  They keep (i) because they follow from S.  The search interns
each clause once, as an int id with its attributes, as in hash-consing
(Filliâtre and Conchon, 2006), and a candidate's formula is built only
when it is read.
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
    cnf_size,
    clause_formula,
    clause_key,
    formula_of_cnf,
    is_tautological,
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


DEFAULT_SF_CAP = 10_000  # nodes the forgetful-inference search visits


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


class SolutionCandidate:
    """A cut-formula matrix that ``sf_improve`` reached: its clause form,
    held as a set of ids into the search's clause list ``table``, so a
    visited node is one set, and the forgetful steps (clause, clause,
    result) taken from the side clauses.  ``formula`` is
    ``formula_of_cnf(clauses)``, built on first read; ``size`` builds
    none."""

    __slots__ = ("_ids", "_table", "steps", "_formula")

    def __init__(self, ids: frozenset, table: list, steps: tuple = ()) -> None:
        self._ids, self._table, self.steps = ids, table, steps
        self._formula: Optional[Formula] = None

    @property
    def clauses(self) -> CNF:
        return frozenset(map(self._table.__getitem__, self._ids))

    @property
    def formula(self) -> Formula:
        if self._formula is None:
            self._formula = formula_of_cnf(self.clauses)
        return self._formula

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
        return cnf_size(self.clauses)

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


def canonical_solution(e: SchematicEHS) -> Formula:
    """⋀Γ' ∧ ¬⋁Δ'; empty sides contribute no conjunct.  Its clause form
    is ``e.side_clauses``, where ``sf_improve`` starts."""
    parts: list[Formula] = []
    if e.gamma:
        parts.append(conj(list(e.gamma)))
    if e.delta:
        parts.append(Not(disj(list(e.delta))))
    return conj(parts)


def _instances(c: Clause, substs: list) -> CNF:
    """The instances of clause C under W, given as ``alpha_subst`` of
    each row: C's share of the guard's ⋃_{w̄ ∈ W} A[w̄]."""
    return frozenset(
        frozenset((sign, apply_subst(a, m)) for sign, a in c) for m in substs
    )


def _negated(c: Clause) -> CNF:
    """¬C as unit clauses."""
    return frozenset(frozenset([(not sign, atom)]) for sign, atom in c)


def check_solution(
    e: SchematicEHS, a: Formula, oracle: Oracle
) -> bool:
    """True iff A(ᾱ) solves the schema; UNKNOWN counts as failure.  The
    canonical solution's clause form is ``e.side_clauses``, which it
    takes as it is; formulas are interned, so an identity test finds it."""
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
        side = e.side_clauses
        if a is canonical_solution(e):
            clauses = side
        else:
            clauses = cnf_of_formulas((a,), ())
    except LimitReached:  # clause_form_literals: no deadline is polled
        return False
    queries = [side | _negated(c) for c in clauses - side]
    substs = [alpha_subst(row) for row in e.w]
    queries.append(side.union(*(_instances(c, substs) for c in clauses)))
    return all(oracle.refutation(q) is Verdict.VALID for q in queries)


# ---------------------------------------------------------------------------
# forgetful inference


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
        for eq in [a for sign, a in src if sign and isinstance(a, Eq)]:
            rest = src - {(True, eq)}
            for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                for lit in dst:
                    for new_lit in _rewrite_literal(lit, lhs, rhs):
                        if new_lit == lit:
                            continue
                        out.append(rest | (dst - {lit}) | {new_lit})
    return out


@dataclass
class SFResult:
    candidates: list  # of SolutionCandidate, one per visited node
    capped: bool

    @property
    def visited(self) -> int:
        return len(self.candidates)


def sf_improve(
    e: SchematicEHS,
    oracle: Oracle,
    node_cap: int = DEFAULT_SF_CAP,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> SFResult:
    """Greedy-complete search over forgetful successors of the canonical
    solution, whose clause form is the side clauses.

    Maintains a stack of clause-set nodes known to solve the schema
    (validated via the step guard A(w̄₁)..A(w̄_k), Γ' ⊢ Δ', which the
    successors of a solution inherit).  A step replaces two clauses of a
    node, taken in ``clause_key`` order, by one ``_pair_successors``
    result unless it is a tautology: a less general solution.  α-free
    clauses, which follow from Γ', are dropped, from the side clauses
    too.  Each distinct successor is asked once, with the first step
    that reached it.  Every visited node is a candidate, in visiting
    order; the pipeline tries them in ``SolutionCandidate.sort_key``
    order, smallest first.  A node is a frozenset of ids into ``table``;
    an id holds, computed once, its ``clause_key`` if a node keeps it (it
    mentions an α and is no tautology) or else None, its successors per
    id pair and, at its first guard, its ``_instances``."""
    table: list[Clause] = []  # by id, as are keys and insts
    ids: dict[Clause, int] = {}
    keys: list[Optional[tuple]] = []
    insts: list[Optional[CNF]] = []
    pairs: dict[tuple[int, int], list[int]] = {}
    side, substs = e.side_clauses, [alpha_subst(row) for row in e.w]

    def intern(c: Clause) -> int:
        i = ids.get(c)
        if i is None:
            i = ids[c] = len(table)
            keep = not is_tautological(c) and any(
                any(is_alpha(v) for v in formula_vars(a)) for _, a in c
            )
            table.append(c)
            keys.append(clause_key(c) if keep else None)
            insts.append(None)
        return i

    def instances(i: int) -> CNF:
        if insts[i] is None:
            insts[i] = _instances(table[i], substs)
        return insts[i]

    entry = frozenset(i for i in map(intern, side) if keys[i])
    seen: set[frozenset] = {entry}
    stack: list[tuple[frozenset, tuple]] = [(entry, ())]
    results: list[SolutionCandidate] = []
    capped = False
    while stack:
        cancel()
        node, steps = stack.pop()
        results.append(SolutionCandidate(node, table, steps))
        if len(results) >= node_cap:
            capped = True
            break
        order = sorted(node, key=keys.__getitem__)
        for n, i in enumerate(order):
            for j in order[n + 1 :]:
                news = pairs.get((i, j))
                if news is None:
                    news = pairs[i, j] = [
                        intern(c) for c in _pair_successors(table[i], table[j])
                    ]
                if not news:
                    continue
                rest = node - {i, j}
                for k in news:
                    succ = rest if keys[k] is None else rest | {k}
                    if succ in seen:
                        continue
                    seen.add(succ)
                    guard = side.union(*map(instances, succ))
                    if oracle.refutation(guard) is Verdict.VALID:
                        move = (table[i], table[j], table[k])
                        stack.append((succ, steps + (move,)))
    return SFResult(candidates=results, capped=capped)

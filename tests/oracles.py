"""Independent reference implementations used to cross-check the package.

These are deliberately naive: a recursive term order and subterm search,
truth-table enumeration plus fixpoint congruence saturation for
validity, the oracle's first restart-DPLL lazy loop for clause sets,
solutionhood as one implication sequent, a two-pass anti-unifier, the
all-subsets Δ-table with its fold over term sets, an exhaustive cover
search for minimal decompositions, the expansion check of a
decomposition, the clause form as negation normal form followed by
distribution, and the input format by a recursive-descent parser.  They share no code with the implementations
under test, with three exceptions: the fold reference builds the
package's ``Decomposition`` records, the solution
reference hands its sequent to ``decide_validity``, which is checked
against the saturation reference on its own, and the parser reference
raises the package's ``InputError`` and ends with its signature check.

``decide_validity`` lives here too: the package's clause form and
refutation with both caps exposed, the sequent-level question the
tests ask of the decision procedure.  Its refutation is
``reference_refute``, the internal oracle's query as it was before the
run-wide atom table (it numbers and encodes each query afresh), on the
package's search; it checks models on ``ReferenceClosure``.

``reference_sf_improve`` is the forgetful-inference search as it was
before its clause table: it starts from ``simplify_clauses`` of the side
clauses, and nodes are sets of clauses, sorted, filtered and
instantiated afresh at each node through ``guard_clauses``, the guard
as defined: the side clauses and ``subst_clauses`` of the whole clause
set under each row of W.  It is the old search, not an independent one:
it takes the package's inference rule (``_pair_successors``),
subsumption filter and clause order, and keeps candidates in a record
of its own, so what it checks is that the table changes no query, order
or candidate.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from cutintro.cnf import (
    DEFAULT_CNF_CAP,
    clause_key,
    cnf_of_formulas,
    is_tautological,
    simplify_clauses,
)
from cutintro.cutformula import SFResult, _pair_successors
from cutintro.euf import DEFAULT_STEP_CAP, Verdict, _Search
from cutintro.formulas import (
    And,
    Atom,
    Bottom,
    Eq,
    Formula,
    Imp,
    Not,
    Or,
    QuantBlock,
    Top,
    apply_subst,
    conj,
    formula_vars,
    render_formula,
)
from cutintro.herbrand import HerbrandStructure
from cutintro.limits import NO_DEADLINE, LimitReached
from cutintro.parser import InputError, _check_signature
from cutintro.proofs import _RULES
from cutintro.sequents import Sequent
from cutintro.terms import (
    App,
    Term,
    Var,
    alpha,
    alpha_index,
    alpha_subst,
    is_alpha,
    is_tag_head,
    render_term,
    render_tuple,
    term_key,
)


# --------------------------------------------------------------------------
# Term order, recomputed recursively
# --------------------------------------------------------------------------


def _reference_name_key(name: str) -> tuple:
    if is_alpha(name):
        return (0, alpha_index(name), "")
    return (1, 0, name)


def reference_term_key(t: Term) -> tuple:
    """The sort key that ``term_key`` reads off a term, rebuilt by a walk:
    variables before applications, then by name (generated variables by
    index), then by arguments."""
    if isinstance(t, Var):
        return (0, _reference_name_key(t.name))
    return (
        1,
        _reference_name_key(t.head),
        tuple(reference_term_key(a) for a in t.args),
    )


def reference_formula_key(f: Formula) -> tuple:
    """The sort key that ``f.key`` caches on an atom or equation, the
    formulas that carry one, rebuilt by a walk: atoms before equations,
    then by predicate and arguments, or by sides."""
    if isinstance(f, Atom):
        return (0, f.pred, tuple(reference_term_key(t) for t in f.args))
    assert isinstance(f, Eq)
    return (1, reference_term_key(f.lhs), reference_term_key(f.rhs))


def reference_positions_of(t: Term, s: Term) -> list[tuple[int, ...]]:
    """The positions of s in t, found by a recursive pre-order walk.  The
    walk keeps its path in one list, so a term n deep holds n frames but
    no tuple per frame."""
    out: list[tuple[int, ...]] = []
    path: list[int] = []

    def walk(x: Term) -> None:
        if x == s:
            out.append(tuple(path))
        if isinstance(x, App):
            for i, a in enumerate(x.args):
                path.append(i)
                walk(a)
                path.pop()

    walk(t)
    return out


def reference_render_term(t: Term) -> str:
    """A term written as ``f(a, x)``, by recursion: one Python frame per
    level and a generator frame per argument list."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.head
    return f"{t.head}({', '.join(reference_render_term(a) for a in t.args)})"


def reference_render_proof(p) -> str:
    """``proofs.render_proof`` as it was before it kept each formula's
    text: every step's formulas, and its whole conclusion, rendered
    afresh.  ``p`` is the table of steps, root last."""
    lines: list[str] = []
    stack = [(len(p) - 1, 0)]
    while stack:
        i, depth = stack.pop()
        node = p[i]
        extra = ""
        if _RULES[node.rule].kind:
            extra = " [" + ", ".join(render_term(t) for t in node.terms) + "]"
        elif node.rule == "cut":
            extra = " on " + render_formula(node.formula)
        seq = node.conclusion
        left = ", ".join(render_formula(f) for f in seq.ante)
        right = ", ".join(render_formula(f) for f in seq.succ)
        lines.append(f"{'  ' * depth}{node.rule}{extra}: {left} |- {right}")
        stack.extend((j, depth + 1) for j in reversed(node.premises))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Validity with equality, by brute force
# --------------------------------------------------------------------------


def _collect_atoms(f: Formula, out: list) -> None:
    if isinstance(f, (Atom, Eq)):
        if f not in out:
            out.append(f)
    elif isinstance(f, Not):
        _collect_atoms(f.body, out)
    elif isinstance(f, (And, Or, Imp)):
        _collect_atoms(f.lhs, out)
        _collect_atoms(f.rhs, out)


def _eval(f: Formula, asg: dict) -> bool:
    if isinstance(f, (Atom, Eq)):
        return asg[f]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _eval(f.body, asg)
    if isinstance(f, And):
        return _eval(f.lhs, asg) and _eval(f.rhs, asg)
    if isinstance(f, Or):
        return _eval(f.lhs, asg) or _eval(f.rhs, asg)
    if isinstance(f, Imp):
        return (not _eval(f.lhs, asg)) or _eval(f.rhs, asg)
    raise TypeError(f"not quantifier-free: {f!r}")


def _all_subterms(atoms: Iterable) -> list[Term]:
    seen: list[Term] = []

    def walk(t: Term) -> None:
        if t not in seen:
            seen.append(t)
            if isinstance(t, App):
                for a in t.args:
                    walk(a)

    for a in atoms:
        for t in a.args if isinstance(a, Atom) else (a.lhs, a.rhs):
            walk(t)
    return seen


def _saturate(universe: list[Term], equations: list[tuple[Term, Term]]) -> set:
    """Reflexive/symmetric/transitive/congruent closure over the universe,
    as a set of frozen pairs, by plain fixpoint iteration."""
    rel = {frozenset((t, t)) for t in universe}
    rel |= {frozenset((l, r)) for l, r in equations}

    def related(a: Term, b: Term) -> bool:
        return frozenset((a, b)) in rel

    changed = True
    while changed:
        changed = False
        # transitivity
        for a, b, c in itertools.product(universe, repeat=3):
            if related(a, b) and related(b, c) and not related(a, c):
                rel.add(frozenset((a, c)))
                changed = True
        # congruence
        for s, t in itertools.combinations(universe, 2):
            if (
                isinstance(s, App)
                and isinstance(t, App)
                and s.head == t.head
                and len(s.args) == len(t.args)
                and not related(s, t)
                and all(related(x, y) for x, y in zip(s.args, t.args))
            ):
                rel.add(frozenset((s, t)))
                changed = True
    return rel


def naive_evalid(seq: Sequent) -> bool:
    """True iff the sequent holds in every model of the equality axioms.
    Free variables are read as fresh constants (universal closure)."""
    atoms: list = []
    for f in seq.ante + seq.succ:
        _collect_atoms(f, atoms)
    universe = _all_subterms(atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        asg = dict(zip(atoms, bits))
        if not all(_eval(f, asg) for f in seq.ante):
            continue
        if any(_eval(f, asg) for f in seq.succ):
            continue
        # Candidate countermodel; check it extends to a model of equality.
        eqs = [(a.lhs, a.rhs) for a, v in asg.items() if isinstance(a, Eq) and v]
        rel = _saturate(universe, eqs)

        def related(a: Term, b: Term) -> bool:
            return frozenset((a, b)) in rel

        consistent = True
        for a, v in asg.items():
            if isinstance(a, Eq) and not v and related(a.lhs, a.rhs):
                consistent = False
                break
        if consistent:
            pos = [a for a, v in asg.items() if isinstance(a, Atom) and v]
            neg = [a for a, v in asg.items() if isinstance(a, Atom) and not v]
            for ap, an in itertools.product(pos, neg):
                if (
                    ap.pred == an.pred
                    and len(ap.args) == len(an.args)
                    and all(related(x, y) for x, y in zip(ap.args, an.args))
                ):
                    consistent = False
                    break
        if consistent:
            return False
    return True


# --------------------------------------------------------------------------
# Clause sets modulo equality, by the oracle's first lazy loop: a DPLL that
# restarts after every blocking clause, and conflict cores minimized by
# deleting equations one at a time
# --------------------------------------------------------------------------


class ReferenceClosure:
    """Union-find over terms with congruence propagation, no explanations."""

    def __init__(self) -> None:
        self._ids: dict = {}
        self._node: list = []
        self._parent: list[int] = []
        self._members: list[list[int]] = []
        self._use: list[list[int]] = []
        self._sig: dict = {}

    def intern(self, t: Term) -> int:
        known = self._ids.get(t)
        if known is not None:
            return known
        if isinstance(t, Var):  # its own head: no constant's congruence
            head, args = t, ()
        else:
            head, args = t.head, tuple(self.intern(a) for a in t.args)
        i = len(self._node)
        self._ids[t] = i
        self._node.append((head, args))
        self._parent.append(i)
        self._members.append([i])
        self._use.append([])
        roots = tuple(self.find(a) for a in args)
        twin = self._sig.get((head, roots))
        if twin is None:
            self._sig[(head, roots)] = i
        for a in roots:
            self._use[a].append(i)
        if twin is not None and self.find(twin) != i:
            self._merge(i, twin)
        return i

    def find(self, i: int) -> int:
        while self._parent[i] != i:
            i = self._parent[i]
        return i

    def merge_terms(self, s: Term, t: Term) -> None:
        self._merge(self.intern(s), self.intern(t))

    def equal(self, s: Term, t: Term) -> bool:
        return self.find(self.intern(s)) == self.find(self.intern(t))

    def _merge(self, i: int, j: int) -> None:
        queue = [(i, j)]
        while queue:
            a, b = queue.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            if len(self._members[ra]) > len(self._members[rb]):
                ra, rb = rb, ra
            self._parent[ra] = rb
            self._members[rb].extend(self._members[ra])
            for app in self._use[ra]:
                head, args = self._node[app]
                roots = tuple(self.find(x) for x in args)
                twin = self._sig.get((head, roots))
                if twin is None:
                    self._sig[(head, roots)] = app
                elif self.find(twin) != self.find(app):
                    queue.append((app, twin))
            self._use[rb].extend(self._use[ra])
            self._use[ra] = []


def _reference_clash(eqs: list, others: list):
    """The literals that clash with the closure of ``eqs``, or None."""
    cc = ReferenceClosure()
    for eq in eqs:
        cc.merge_terms(eq.lhs, eq.rhs)
    for sign, atom in others:
        if isinstance(atom, Eq) and not sign and cc.equal(atom.lhs, atom.rhs):
            return [(False, atom)]
    for sp, p in others:
        for sn, n in others:
            if (
                sp
                and not sn
                and isinstance(p, Atom)
                and isinstance(n, Atom)
                and p.pred == n.pred
                and len(p.args) == len(n.args)
                and all(cc.equal(x, y) for x, y in zip(p.args, n.args))
            ):
                return [(True, p), (False, n)]
    return None


def _reference_model_conflict(true_eqs: list, others: list):
    """(equation core, clashing literals) for a model, or None if it is a
    model modulo equality; the core is shrunk by trial deletion."""
    clash = _reference_clash(true_eqs, others)
    if clash is None:
        return None
    core = list(true_eqs)
    for eq in list(core):
        trial = [e for e in core if e is not eq]
        if _reference_clash(trial, clash) is not None:
            core = trial
    return core, clash


def _reference_blocking(model, index: dict):
    """The blocking clause, as ints, of a propositional model that is no
    model modulo equality, or None: ``index`` numbers the atoms from 1,
    and ``model[i]`` is the value of atom i."""
    true_eqs = [a for a, i in index.items() if isinstance(a, Eq) and model[i]]
    others = [
        (model[i], a)
        for a, i in index.items()
        if not (isinstance(a, Eq) and model[i])
    ]
    conflict = _reference_model_conflict(true_eqs, others)
    if conflict is None:
        return None
    core, clash = conflict
    return [-index[e] for e in core] + [
        (-index[a] if s else index[a]) for s, a in clash
    ]


def _reference_propagate(clauses: list, assign: dict) -> bool:
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(assign.get(abs(l)) == (l > 0) for l in clause):
                continue
            open_lits = [l for l in clause if abs(l) not in assign]
            if not open_lits:
                return False
            if len(open_lits) == 1:
                assign[abs(open_lits[0])] = open_lits[0] > 0
                changed = True
    return True


def _reference_next_model(clauses: list, n_vars: int):
    order = sorted(
        range(1, n_vars + 1),
        key=lambda v: -sum(1 for c in clauses if v in c or -v in c),
    )

    def search(assign: dict):
        if not _reference_propagate(clauses, assign):
            return None
        pick = next((v for v in order if v not in assign), None)
        if pick is None:
            return assign
        for value in (True, False):
            found = search({**assign, pick: value})
            if found is not None:
                return found
        return None

    return search({})


def reference_decide_clauses(cnf, *, theory: bool = True) -> bool:
    """True iff the clause set has no model (modulo equality when
    ``theory``): each propositional model is checked by congruence
    closure and blocked, and the search starts over."""
    atoms = sorted({atom for c in cnf for _, atom in c}, key=repr)
    index = {atom: i + 1 for i, atom in enumerate(atoms)}
    clauses = [
        frozenset((index[a] if s else -index[a]) for s, a in c) for c in cnf
    ]
    if any(not c for c in clauses):
        return True
    while True:
        model = _reference_next_model(clauses, len(atoms))
        if model is None:
            return True
        if not theory:
            return False
        blocking = _reference_blocking(model, index)
        if blocking is None:
            return False
        clauses.append(frozenset(blocking))


# --------------------------------------------------------------------------
# Clause form in two passes: negation normal form, then distribution
# --------------------------------------------------------------------------


def _reference_nnf(f: Formula, positive: bool) -> Formula:
    nnf = _reference_nnf
    if isinstance(f, (Atom, Eq)):
        return f if positive else Not(f)
    if isinstance(f, Top):
        return Top() if positive else Bottom()
    if isinstance(f, Bottom):
        return Bottom() if positive else Top()
    if isinstance(f, Not):
        return nnf(f.body, not positive)
    if isinstance(f, And):
        cls = And if positive else Or
        return cls(nnf(f.lhs, positive), nnf(f.rhs, positive))
    if isinstance(f, Or):
        cls = Or if positive else And
        return cls(nnf(f.lhs, positive), nnf(f.rhs, positive))
    if isinstance(f, Imp):
        if positive:
            return Or(nnf(f.lhs, False), nnf(f.rhs, True))
        return And(nnf(f.lhs, True), nnf(f.rhs, False))
    raise ValueError(f"not quantifier-free: {f!r}")


def _reference_distribute(f: Formula, budget: list) -> set:
    """Clauses of an NNF formula; every literal of a product clause is
    charged to ``budget[0]``."""
    if isinstance(f, (Atom, Eq)):
        return {frozenset([(True, f)])}
    if isinstance(f, Not):
        return {frozenset([(False, f.body)])}
    if isinstance(f, Top):
        return set()
    if isinstance(f, Bottom):
        return {frozenset()}
    left = _reference_distribute(f.lhs, budget)
    right = _reference_distribute(f.rhs, budget)
    if isinstance(f, And):
        return left | right
    if not left or not right:
        return set()
    out = set()
    for c in left:
        for d in right:
            budget[0] -= len(c | d)
            out.add(c | d)
    return out


def reference_clauses(asserted: list, denied: list, cap: int):
    """The clause set, unsimplified, of all ``asserted`` true and all
    ``denied`` false, or None when the distribution of one formula
    spends more than ``cap`` literals."""
    out: set = set()
    signed = [(f, True) for f in asserted] + [(f, False) for f in denied]
    for f, positive in signed:
        budget = [cap]
        out |= _reference_distribute(_reference_nnf(f, positive), budget)
        if budget[0] < 0:
            return None
    return out


# --------------------------------------------------------------------------
# Validity of a sequent, through the package's decision procedure
# --------------------------------------------------------------------------


def reference_refute(
    clauses,
    *,
    learned: Optional[dict] = None,
    step_cap: int = DEFAULT_STEP_CAP,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> Verdict:
    """The internal oracle's query as it was before its run-wide atom
    table: VALID iff the clause set is unsatisfiable modulo equality,
    UNKNOWN past the step cap.  The package's search finds the models;
    each is checked, and blocked, as ``reference_decide_clauses`` does,
    on ``ReferenceClosure``, so no code of the package's theory check
    runs here.

    Each query drops its tautologies, numbers its own atoms 1..n in
    ``key`` order and encodes its clauses afresh.  ``learned``, when
    given, is a lemma store that outlives the query: each blocking
    clause found is filed there under the atom of its one positive
    literal, mapped to its atoms, and a stored lemma joins the query
    when all its atoms occur in it, so it adds no variable.
    """
    cnf = {c for c in clauses if not is_tautological(c)}
    present = {a for c in cnf for _, a in c}
    if learned is None:
        learned = {}
    for a in present:
        for clause, needs in learned.get(a, {}).items():
            if needs <= present:
                cnf.add(clause)
    atoms = sorted(present, key=lambda a: a.key)
    index = {atom: i + 1 for i, atom in enumerate(atoms)}
    ints = sorted(
        sorted((index[a] if s else -index[a] for s, a in c), key=abs)
        for c in cnf
    )
    if any(not c for c in ints):
        return Verdict.VALID
    try:
        search = _Search(ints, len(atoms), step_cap, cancel)
        while (model := search.next_model()) is not None:
            blocking = _reference_blocking(model, index)
            if blocking is None:
                return Verdict.INVALID
            lemma = frozenset((u > 0, atoms[abs(u) - 1]) for u in blocking)
            learned.setdefault(atoms[blocking[-1] - 1], {})[lemma] = frozenset(
                a for _, a in lemma
            )
            search.charge(len(blocking))
            search.block(blocking)
    except LimitReached as err:
        if err.meter != "oracle_steps":
            raise
        return Verdict.UNKNOWN
    return Verdict.VALID


def decide_validity(
    seq: Sequent,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    cnf_cap: int = DEFAULT_CNF_CAP,
    cancel: Callable[[], None] = NO_DEADLINE.poll,
) -> Verdict:
    """Three-valued validity of a ground sequent modulo equality: the
    refutation of its clause form, UNKNOWN past the clause-form cap."""
    try:
        clauses = cnf_of_formulas(seq.ante, seq.succ, cnf_cap, cancel)
    except LimitReached as err:
        if err.meter != "clause_form_literals":
            raise
        return Verdict.UNKNOWN
    return reference_refute(clauses, step_cap=step_cap, cancel=cancel)


# --------------------------------------------------------------------------
# Solutions of a schematic sequent, as one implication sequent
# --------------------------------------------------------------------------


def reference_check_solution(e, a: Formula, cnf_cap: int = 10**6) -> bool:
    """True iff (A → ⋀_{w̄ ∈ W} A(w̄)), Γ' ⊢ Δ' is valid: the definition
    of a solution, sent whole to the validity check, whose distributive
    clause form gets a raised cap.  A verdict it cannot reach fails."""
    steps = conj(
        [
            apply_subst(a, {alpha(i + 1).name: t for i, t in enumerate(row)})
            for row in e.w
        ]
    )
    seq = Sequent((Imp(a, steps),) + tuple(e.gamma), tuple(e.delta))
    verdict = decide_validity(seq, cnf_cap=cnf_cap)
    assert verdict is not Verdict.UNKNOWN, "raise the reference's cnf_cap"
    return verdict is Verdict.VALID


# --------------------------------------------------------------------------
# Forgetful inference, as the search was before its clause table
# --------------------------------------------------------------------------


def reference_forget_moves(cnf, pairs: Optional[dict]):
    """Every clause set one forgetful step reaches, each distinct one
    once, with the (clause, clause, result) step that first reached it:
    each pair in ``clause_key`` order, recomputed per node, replaced by
    each of its ``_pair_successors`` that is no tautology.  ``pairs``,
    when given, keeps each ordered pair's successors across calls."""
    clauses = sorted(cnf, key=clause_key)
    seen: set = set()
    for i in range(len(clauses)):
        for j in range(i + 1, len(clauses)):
            pair = (clauses[i], clauses[j])
            if pairs is None:
                news = _pair_successors(*pair)
            else:
                news = pairs.get(pair)
                if news is None:
                    news = pairs[pair] = _pair_successors(*pair)
            rest = cnf - {clauses[i], clauses[j]}
            for new in news:
                succ = rest if is_tautological(new) else rest | {new}
                if succ not in seen:
                    seen.add(succ)
                    yield succ, (clauses[i], clauses[j], new)


def subst_clauses(cnf, mapping: dict):
    """The clause set with ``mapping`` applied to every atom."""
    return frozenset(
        frozenset((sign, apply_subst(a, mapping)) for sign, a in c)
        for c in cnf
    )


def guard_clauses(e, clauses):
    """A(w̄₁), .., A(w̄_k), Γ' ⊢ Δ' as a clause set to refute, where
    ``clauses`` is the clause form of A(ᾱ)."""
    return e.side_clauses.union(
        *(subst_clauses(clauses, alpha_subst(row)) for row in e.w)
    )


@dataclass(frozen=True)
class ReferenceCandidate:
    """A node of ``reference_sf_improve`` and the steps that reached it."""

    clauses: frozenset
    steps: tuple


def _reference_drop_alpha_free(cnf):
    return frozenset(
        c
        for c in cnf
        if any(any(is_alpha(v) for v in formula_vars(a)) for _, a in c)
    )


def reference_sf_improve(
    e, oracle, node_cap: int = 10_000, shared_pairs: bool = True
) -> SFResult:
    """``cutformula.sf_improve`` on clause sets, from the side clauses
    simplified: every node is a set of clauses, sorted by ``clause_key``
    and dropped of α-free clauses afresh, and its guard
    ``guard_clauses``.  ``shared_pairs`` keeps one pair memo for the
    search, as the package does; without it each node recomputes its
    pairs' successors."""
    pairs = {} if shared_pairs else None
    entry = _reference_drop_alpha_free(simplify_clauses(e.side_clauses))
    seen = {entry}
    stack = [(entry, ())]
    results = []
    capped = False
    while stack:
        node, steps = stack.pop()
        results.append(ReferenceCandidate(node, steps))
        if len(results) >= node_cap:
            capped = True
            break
        for succ, move in reference_forget_moves(node, pairs):
            succ = _reference_drop_alpha_free(succ)
            if succ in seen:
                continue
            seen.add(succ)
            if oracle.refutation(guard_clauses(e, succ)) is Verdict.VALID:
                stack.append((succ, steps + (move,)))
    return SFResult(candidates=results, capped=capped)


# --------------------------------------------------------------------------
# Anti-unification (two-pass: raw generalization, then column merging)
# --------------------------------------------------------------------------


def antiunify(terms: Sequence[Term]) -> tuple[Term, tuple[tuple[Term, ...], ...]]:
    """Least general generalization of a term list.  Returns the pattern and
    the substitution rows (one row per input term).  Variables are numbered
    by first occurrence in the pattern; equal columns share one variable."""
    n = len(terms)
    columns: list[tuple[Term, ...]] = []

    def gen(ts: tuple[Term, ...]) -> Term:
        if all(t == ts[0] for t in ts):
            return ts[0]
        if all(
            isinstance(t, App)
            and isinstance(ts[0], App)
            and t.head == ts[0].head
            and len(t.args) == len(ts[0].args)
            for t in ts
        ):
            return App(
                ts[0].head,
                tuple(
                    gen(tuple(t.args[i] for t in ts))
                    for i in range(len(ts[0].args))
                ),
            )
        columns.append(ts)
        return Var(f"?{len(columns) - 1}")

    raw = gen(tuple(terms))

    # Merge equal columns, then rename by first occurrence in the pattern.
    canon: dict[tuple[Term, ...], int] = {}
    remap: dict[str, int] = {}
    for i, col in enumerate(columns):
        canon.setdefault(col, len(canon))
        remap[f"?{i}"] = canon[col]

    from cutintro.terms import alpha

    def rename(t: Term) -> Term:
        if isinstance(t, Var):
            return alpha(remap[t.name] + 1)
        if not t.args:
            return t
        return App(t.head, tuple(rename(a) for a in t.args))

    pattern = rename(raw)
    merged = list(canon)
    rows = tuple(
        tuple(merged[j][i] for j in range(len(merged))) for i in range(n)
    )
    return pattern, rows


# --------------------------------------------------------------------------
# Exhaustive minimal-decomposition search
# --------------------------------------------------------------------------


def _row_is_clean(row: tuple[Term, ...]) -> bool:
    def clean(t: Term) -> bool:
        if isinstance(t, Var):
            return True
        return not is_tag_head(t.head) and all(clean(a) for a in t.args)

    return all(clean(t) for t in row)


def _pattern_vars(t: Term) -> set[int]:
    if isinstance(t, Var):
        return {alpha_index(t.name)} if is_alpha(t.name) else set()
    out: set[int] = set()
    for a in t.args:
        out |= _pattern_vars(a)
    return out


def brute_min_decompositions(terms: Iterable[Term]):
    """Minimal decompositions over the normalized search space:

    - candidate keys are anti-unification keys of subsets (arity >= 1,
      rows free of reserved tag heads);
    - usable pairs under a key are the native ones plus pairs lifted from
      strictly smaller arity via a coordinate injection whose row
      projection is a bijection;
    - a cover selects whole groups (all patterns sharing a covered subset)
      whose subsets union to the full term set, using every coordinate.

    Returns (min_size, decompositions) where each decomposition is
    (frozenset of patterns, frozenset of rows); (None, []) if the space is
    empty.
    """
    from cutintro.terms import alpha

    tset = frozenset(terms)
    tlist = sorted(tset, key=term_key)
    native: dict[frozenset, list[tuple[Term, frozenset]]] = {}
    for r in range(2, len(tlist) + 1):
        for combo in itertools.combinations(tlist, r):
            u, rows = antiunify(combo)
            key = frozenset(rows)
            if len(key) == 0:
                continue  # all-identical subset; impossible for distinct terms
            native.setdefault(key, []).append((u, frozenset(combo)))

    best_size: int | None = None
    best: list[tuple[frozenset, frozenset]] = []
    for key in native:
        rows = sorted(key, key=lambda row: tuple(term_key(t) for t in row))
        m = len(rows[0])
        if not all(_row_is_clean(row) for row in rows):
            continue
        # Collect all usable pairs: native plus lifted.
        pairs: list[tuple[Term, frozenset]] = list(native[key])
        for m0 in range(1, m):
            for inj in itertools.permutations(range(m), m0):
                proj = [tuple(row[c] for c in inj) for row in rows]
                if len(set(proj)) != len(rows):
                    continue
                src = frozenset(proj)
                for u0, covered in native.get(src, []):

                    def lift(t: Term) -> Term:
                        if isinstance(t, Var):
                            from cutintro.terms import alpha_index, is_alpha

                            assert is_alpha(t.name)
                            return alpha(inj[alpha_index(t.name) - 1] + 1)
                        if not t.args:
                            return t
                        return App(t.head, tuple(lift(a) for a in t.args))

                    pairs.append((lift(u0), covered))
        groups: dict[frozenset, set[Term]] = {}
        for u, covered in pairs:
            groups.setdefault(covered, set()).add(u)
        group_list = sorted(
            groups.items(), key=lambda kv: sorted(term_key(t) for t in kv[0])
        )
        if frozenset().union(*groups) != tset:
            continue
        # Exhaustive search over group subsets.
        for picks in itertools.chain.from_iterable(
            itertools.combinations(range(len(group_list)), k)
            for k in range(1, len(group_list) + 1)
        ):
            covered = frozenset().union(*(group_list[i][0] for i in picks))
            if covered != tset:
                continue
            patterns = frozenset().union(
                *(frozenset(group_list[i][1]) for i in picks)
            )
            used = set()
            for u in patterns:
                used |= _pattern_vars(u)
            if used != set(range(1, m + 1)):
                continue
            size = len(patterns) + len(key)
            if best_size is None or size < best_size:
                best_size = size
                best = [(patterns, key)]
            elif size == best_size:
                entry = (patterns, key)
                if entry not in best:
                    best.append(entry)
    return best_size, best


# --------------------------------------------------------------------------
# The all-subsets Δ-table and its fold
# --------------------------------------------------------------------------


def _reference_inject(u: Term, injection: Sequence[int]) -> Term:
    from cutintro.terms import alpha

    if isinstance(u, Var):
        return alpha(injection[alpha_index(u.name) - 1] + 1)
    if not u.args:
        return u
    return App(u.head, tuple(_reference_inject(a, injection) for a in u.args))


@dataclass(frozen=True)
class ReferenceTable:
    """A Δ-table as the references read one, the package's
    ``DeltaTable.entries``: {key: frozenset of (pattern, frozenset of
    the terms it covers)}."""

    entries: dict


def arity_one(table) -> ReferenceTable:
    """The keys of one witness column of a table (anything with
    ``entries``) and their pairs: what the single-variable fold scans."""
    return ReferenceTable({
        k: v for k, v in table.entries.items() if len(next(iter(k))) == 1
    })


def reference_build_delta_table(terms: Iterable[Term], max_subset=None):
    """The Δ-table built the slow way: ``antiunify`` on every subset of
    at most ``max_subset`` terms, unclean keys included, then every native
    pair lifted into each larger key that projects onto its key
    injectively.  Returns a ``ReferenceTable``."""
    tlist = sorted(terms, key=term_key)
    top = len(tlist) if max_subset is None else min(max_subset, len(tlist))
    table: dict[frozenset, set] = {}
    for r in range(1, top + 1):
        for combo in itertools.combinations(tlist, r):
            u, rows = antiunify(combo)
            table.setdefault(frozenset(rows), set()).add((u, frozenset(combo)))

    native = {k: tuple(v) for k, v in table.items()}
    for key in list(table):
        m = len(next(iter(key)))
        if m < 2:
            continue
        rows = sorted(key, key=lambda row: tuple(term_key(t) for t in row))
        for m0 in range(1, m):
            for inj in itertools.permutations(range(m), m0):
                projected = [tuple(row[i] for i in inj) for row in rows]
                if len(set(projected)) != len(rows):
                    continue
                for u0, covered in native.get(frozenset(projected), ()):
                    table[key].add((_reference_inject(u0, inj), covered))

    return ReferenceTable({k: frozenset(v) for k, v in table.items()})


def reference_lift(new: dict, cancel: Callable[[], None]) -> list:
    """The lifted pairs of one Δ-table size, the package's ``_lift``
    without its key index: every key of arity m ≥ 2, every m₀ < m and
    every injection in ``permutations(range(m), m₀)``, each tried by
    projecting the rows and looking the projection up among the size's
    keys.  ``cancel`` runs once per injection.  Returns (key, (pattern,
    mask)) by key, m₀, injection and source pair."""
    lifted = []
    for key in new:
        m = len(next(iter(key)))
        if m < 2:
            continue
        rows = list(key)
        for m0 in range(1, m):
            for inj in itertools.permutations(range(m), m0):
                cancel()
                projected = [tuple(row[i] for i in inj) for row in rows]
                if len(set(projected)) != len(rows):
                    continue
                for u0, mask in new.get(frozenset(projected), ()):
                    lifted.append((key, (_reference_inject(u0, inj), mask)))
    return lifted


def reference_clean_entries(table) -> dict:
    """The entries of a Δ-table whose keys mention no reserved tag head."""
    return {
        k: v
        for k, v in table.entries.items()
        if all(_row_is_clean(row) for row in k)
    }


def reference_fold_delta_table(table, terms: Iterable[Term], cancel=None) -> list:
    """Every minimum decomposition from a Δ-table, by branch and bound
    over covered term sets that keeps the ties of every |W|.  Returns
    ``Decomposition``s sorted by their ``sort_key``.  ``cancel`` runs
    once per search node."""
    return _reference_fold(table, terms, cancel, classwise=False, after=None)


def reference_fold_class(
    table, terms: Iterable[Term], after=None, cancel=None
) -> list:
    """One |W| class of the minimum decompositions from a Δ-table, by the
    search of ``reference_fold_delta_table`` made strict towards larger
    |W|: a key with more rows than the best found counts only when it
    does strictly better.  Without ``after``, the class of the least
    |W|; with ``after``, a decomposition of minimum size b, the class of
    size b with the least |W| above ``after``'s.  ``cancel`` runs once
    per search node."""
    return _reference_fold(table, terms, cancel, classwise=True, after=after)


def joined_classes(fold: Callable) -> list:
    """The classes ``fold(after)`` returns joined, from ``fold(None)`` on,
    each ``after`` being the last decomposition of the class before,
    until a class is empty."""
    out: list = []
    decs = fold(None)
    while decs:
        out += decs
        decs = fold(decs[-1])
    return out


def _reference_fold(table, terms, cancel, classwise: bool, after) -> list:
    """Keys scanned by (size, arity, sorted rows) and those of no more
    rows than ``after``'s skipped; groups by their sorted terms; the
    search branches on the uncovered term in the fewest groups.  A node
    or result of the best size counts unless ``classwise`` and the key
    has more rows than the best found."""
    import math

    from cutintro.decomposition import Decomposition

    def row_key(row):
        return tuple(term_key(t) for t in row)

    def key_order(key):
        return (len(key), len(next(iter(key))), tuple(sorted(map(row_key, key))))

    target = frozenset(terms)
    floor, best = (0, math.inf) if after is None else (len(after.w), after.size)
    # best size, and the |W| of the decompositions found (0 while none)
    state = [best, 0]
    found: set = set()

    entries = table.entries  # a view built on every access
    for key in sorted(entries, key=key_order):
        m = len(next(iter(key)))
        if m == 0 or len(key) <= floor:
            continue
        if not all(_row_is_clean(row) for row in key):
            continue
        groups: dict[frozenset, list[Term]] = {}
        for u, covered in entries[key]:
            groups.setdefault(covered, []).append(u)
        if set().union(*groups) != target:
            continue
        glist = sorted(
            groups.items(),
            key=lambda g: tuple(sorted(term_key(x) for x in g[0])),
        )
        by_term: dict[Term, list[int]] = {x: [] for x in target}
        for gi, (cov, _) in enumerate(glist):
            for x in cov:
                by_term[x].append(gi)

        def allowed(size: int) -> bool:
            if size == state[0]:
                return not classwise or state[1] in (0, len(key))
            return size < state[0]

        chosen: list[int] = []

        def search(uncovered: frozenset, n_patterns: int) -> None:
            if cancel is not None:
                cancel()
            if not uncovered:
                u_set = frozenset(u for gi in chosen for u in glist[gi][1])
                used = set()
                for u in u_set:
                    used |= _pattern_vars(u)
                if used != set(range(1, m + 1)):
                    return
                size = len(u_set) + len(key)
                if not allowed(size):
                    return
                if size < state[0]:
                    state[0] = size
                    found.clear()
                state[1] = len(key)
                found.add(Decomposition(u=u_set, w=key))
                return
            lower = n_patterns + math.ceil(len(uncovered) / len(key))
            if not allowed(lower + len(key)):
                return
            pivot = min(uncovered, key=lambda x: (len(by_term[x]), term_key(x)))
            for gi in by_term[pivot]:
                cov, us = glist[gi]
                chosen.append(gi)
                search(uncovered - cov, n_patterns + len(us))
                chosen.pop()

        search(target, 0)

    return sorted(found, key=Decomposition.sort_key)


def _is_ground(t: Term) -> bool:
    return not isinstance(t, Var) and all(_is_ground(a) for a in t.args)


def _instantiate(u: Term, row: tuple[Term, ...]) -> Term:
    if isinstance(u, Var):
        return row[alpha_index(u.name) - 1] if is_alpha(u.name) else u
    if not u.args:
        return u
    return App(u.head, tuple(_instantiate(a, row) for a in u.args))


def validate_decomposition(d, terms: Iterable[Term]) -> bool:
    """The exact expansion check of a decomposition (U, W): U and W are
    nonempty, W's rows are ground and of one arity m, U mentions only
    α₁..α_m, and every pattern under every row gives exactly ``terms``."""
    if not d.u or not d.w:
        return False
    arities = {len(row) for row in d.w}
    if len(arities) != 1:
        return False
    (m,) = arities
    if not all(_is_ground(x) for row in d.w for x in row):
        return False
    if any(not _pattern_vars(u) <= set(range(1, m + 1)) for u in d.u):
        return False
    expansion = {_instantiate(u, row) for row in d.w for u in d.u}
    return expansion == frozenset(terms)


# --------------------------------------------------------------------------
# The .cis input format: a tokenizer that builds a record per token and
# tracks line and column as it goes, and a recursive-descent parser with
# one function per precedence level
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    kind: str  # IDENT NAT PUNCT EOF
    text: str
    line: int
    col: int


_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<ident>[^\W\d]\w*'*)
    | (?P<nat>\d+)
    | (?P<punct>->|[().,:;=~&|])
    """,
    re.VERBOSE | re.UNICODE,
)


def _reference_tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, i)
        if m is None:
            raise InputError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind == "ident":
            if is_alpha(s):
                raise InputError(
                    f"identifier {s!r} is in the reserved variable namespace",
                    line,
                    col,
                )
            toks.append(_Tok("IDENT", s, line, col))
        elif kind == "nat":
            toks.append(_Tok("NAT", s, line, col))
        elif kind == "punct":
            toks.append(_Tok("PUNCT", s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
        i = m.end()
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _ReferenceParser:
    def __init__(self, text: str):
        self.toks = _reference_tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg: str) -> InputError:
        t = self.peek()
        return InputError(msg, t.line, t.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or t.kind == "EOF":
            raise self.err(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind != "EOF" and t.text == text

    def parse_file(self):
        ante: list[Formula] = []
        succ: list[Formula] = []
        insts: list[tuple[int, list[tuple[Term, ...]], _Tok]] = []
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.text == "ante":
                self.next()
                ante.append(self.parse_prenex("all"))
            elif t.text == "succ":
                self.next()
                succ.append(self.parse_prenex("ex"))
            elif t.text == "inst":
                self.next()
                at = self.peek()
                if at.kind != "NAT":
                    raise self.err("expected a formula number after 'inst'")
                n = int(self.next().text)
                self.expect(":")
                insts.append((n, self.parse_instlist(), at))
            else:
                raise self.err(
                    f"expected 'ante', 'succ' or 'inst', found {t.text!r}"
                )
            self.expect(".")
        return ante, succ, insts

    def parse_prenex(self, kind: str) -> Formula:
        t = self.peek()
        if t.text in ("all", "ex"):
            if t.text != kind:
                side = "antecedent" if kind == "all" else "succedent"
                raise self.err(
                    f"{t.text!r} prefix is a strong quantifier in the {side}"
                )
            self.next()
            names: list[str] = []
            while self.peek().kind == "IDENT" and not self.at(":"):
                names.append(self.next().text)
            if not names:
                raise self.err("expected at least one bound variable")
            if len(set(names)) != len(names):
                raise self.err("repeated bound variable in prefix")
            self.expect(":")
            matrix = self.parse_imp(frozenset(names))
            return QuantBlock(kind, tuple(names), matrix)
        return self.parse_imp(frozenset())

    def parse_imp(self, bound: frozenset[str]) -> Formula:
        lhs = self.parse_or(bound)
        if self.at("->"):
            self.next()
            return Imp(lhs, self.parse_imp(bound))
        return lhs

    def parse_or(self, bound: frozenset[str]) -> Formula:
        lhs = self.parse_and(bound)
        if self.at("|"):
            self.next()
            return Or(lhs, self.parse_or(bound))
        return lhs

    def parse_and(self, bound: frozenset[str]) -> Formula:
        lhs = self.parse_unary(bound)
        if self.at("&"):
            self.next()
            return And(lhs, self.parse_and(bound))
        return lhs

    def parse_unary(self, bound: frozenset[str]) -> Formula:
        if self.at("~"):
            self.next()
            return Not(self.parse_unary(bound))
        if self.at("("):
            self.next()
            f = self.parse_imp(bound)
            self.expect(")")
            return f
        if self.peek().text in ("all", "ex"):
            raise self.err("quantifiers are only allowed as a top-level prefix")
        return self.parse_atom(bound)

    def parse_atom(self, bound: frozenset[str]) -> Formula:
        t = self.parse_term(bound)
        if self.at("="):
            self.next()
            return Eq(t, self.parse_term(bound))
        if isinstance(t, Var):
            raise self.err(
                f"bound variable {t.name!r} cannot stand alone as an atom"
            )
        return Atom(t.head, t.args)

    def parse_term(self, bound: frozenset[str]) -> Term:
        stack: list[tuple[str, list[Term]]] = []
        while True:
            t = self.peek()
            if t.kind != "IDENT":
                raise self.err(
                    f"expected a term, found {t.text or 'end of input'!r}"
                )
            name = self.next().text
            if self.at("("):
                if name in bound:
                    raise self.err(
                        f"quantified variable {name!r} used as a function symbol"
                    )
                self.next()
                stack.append((name, []))
                continue
            term: Term = Var(name) if name in bound else App(name, ())
            while stack:
                stack[-1][1].append(term)
                if self.at(","):
                    self.next()
                    break
                self.expect(")")
                head, args = stack.pop()
                term = App(head, tuple(args))
            if not stack:
                return term

    def parse_instlist(self) -> list[tuple[Term, ...]]:
        if self.at("."):
            return []
        tuples = [self.parse_tuple()]
        while self.at(";"):
            self.next()
            tuples.append(self.parse_tuple())
        return tuples

    def parse_tuple(self) -> tuple[Term, ...]:
        if self.at("("):
            self.next()
            ts = [self.parse_term(frozenset())]
            while self.at(","):
                self.next()
                ts.append(self.parse_term(frozenset()))
            self.expect(")")
            return tuple(ts)
        return (self.parse_term(frozenset()),)


def reference_parse_input(text: str) -> tuple[Sequent, HerbrandStructure]:
    """``parse_input`` as a per-token record tokenizer and a parser with
    one recursive function per precedence level (``->``, ``|``, ``&``,
    then ``~``, parentheses and atoms); it recurses once per nesting
    level of a formula."""
    ante, succ, insts = _ReferenceParser(text).parse_file()
    seq = Sequent(tuple(ante), tuple(succ))
    collected: list[set[tuple[Term, ...]]] = [set() for _ in range(seq.q)]
    for n, tuples, tok in insts:
        if not 1 <= n <= seq.q:
            raise InputError(
                f"inst refers to formula {n}, but there are only {seq.q}",
                tok.line,
                tok.col,
            )
        k = seq.k(n)
        if k == 0:
            raise InputError(
                f"formula {n} has no quantifier prefix, instances not allowed",
                tok.line,
                tok.col,
            )
        for tup in tuples:
            if len(tup) != k:
                raise InputError(
                    f"instance {render_tuple(tup)} for formula {n} has arity"
                    f" {len(tup)}, expected {k}",
                    tok.line,
                    tok.col,
                )
        collected[n - 1].update(tuples)
    structure = HerbrandStructure(tuple(frozenset(s) for s in collected))
    _check_signature(seq, structure)
    return seq, structure

"""Ground validity modulo equality.

Every question this module answers is one: is a set of ground clauses
unsatisfiable in all structures where the equations behave as a
congruence?  A sequent of quantifier-free formulas is valid iff its
clause form (``cnf.cnf_of_formulas``) is, so validity is that question
asked of the clause form.  The decision procedure is the classic lazy
loop: a DPLL search enumerates propositional models of the clauses, a
congruence closure checks each model, and a conflict core becomes a
blocking clause.  Free variables are treated as uninterpreted constants.

The internal oracle keeps one atom table per run, the one vocabulary
of a DPLL(T) solver (Nieuwenhuis, Oliveras and Tinelli, "Solving SAT
and SAT Modulo Theories", JACM 2006): each atom is a Boolean variable,
a positive int issued on first sight, and each clause is encoded once
per run, as a sorted int tuple or as a tautology.  A query looks up its
clauses' codes, drops the tautologies and joins its lemmas; it is not
simplified by subsumption.  The table also holds one term table and
closure, which interns each ground term once, at the first theory check
of a query that mentions it; checking a model resets the union-find and
merges the model's true equations.  Terms of earlier queries may join
classes, but congruence among a query's own terms, and so its verdict,
stays the same.  The oracle keeps one lemma store per run, in the
table's variables: every blocking clause is valid in every congruence,
so a later query whose variables include all of a lemma's starts with
it and need not rediscover it.  The closure records why it merged two
classes (an asserted equation, or the congruence of two applications) as
an edge of a proof forest, and the conflict core is read off the
forest's path between the clashing terms (Nieuwenhuis and Oliveras,
"Fast congruence closure and extensions", 2007).  The search is
iterative, with a trail and two watched literals per clause (Eén and
Sörensson, MiniSat, 2003): it keeps its assignments across blocking
clauses, which join the watched clauses, and resumes after backjumping
below the clause's highest decision level.

All entry points return a three-valued Verdict; a query past the
clause-form cap or the step cap (``limits.LimitReached``) is UNKNOWN,
never a silent "invalid", and a deadline that strikes passes through.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .cnf import CNF, Clause, cnf_of_formulas
from .formulas import Eq
from .limits import NO_DEADLINE, LimitReached
from .sequents import Sequent
from .terms import Term, Var


class Verdict(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


DEFAULT_STEP_CAP = 5_000_000


# ---------------------------------------------------------------------------
# congruence closure


class _Congruence:
    """Why two applications were merged: their arguments are equal."""

    __slots__ = ("app", "twin")

    def __init__(self, app: int, twin: int) -> None:
        self.app, self.twin = app, twin


class CongruenceClosure:
    """Union-find over interned ground terms with congruence propagation.

    Every merge also adds an edge to a proof forest, labelled with its
    reason: the caller's label for an asserted equation, or the
    congruence of two applications.  ``explain`` reads off that forest
    the labels of the asserted equations that entail an equality.
    ``reset`` forgets the merges but keeps the interned terms, so one
    closure serves every model of every query of a run.
    """

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._node: list[tuple[object, tuple[int, ...]]] = []
        self.reset()

    def intern(self, t: Term) -> int:
        """The id of t; its subterms are interned first."""
        ids, stack = self._ids, [t]
        while stack:
            x = stack.pop()
            if x in ids:
                continue
            # A free variable is its own head: a constant of its own,
            # never the constant that shares its name.
            head, args = (x, ()) if isinstance(x, Var) else (x.head, x.args)
            todo = [a for a in args if a not in ids]
            if todo:
                stack += [x, *todo]
                continue
            i = ids[x] = len(self._node)
            args = tuple([ids[a] for a in args])
            self._node.append((head, args))
            self._parent.append(i)
            self._size.append(1)
            self._use.append([])
            self._edge.append(-1)
            self._why.append(None)
            roots = tuple(self.find(a) for a in args)
            twin = self._sig.get((head, roots))
            if twin is None:
                self._sig[(head, roots)] = i
            for a in roots:
                self._use[a].append(i)
            if twin is not None and self.find(twin) != i:
                self.merge(i, twin, _Congruence(i, twin))
        return ids[t]

    def reset(self) -> None:
        """Forget every merge; the interned terms stay."""
        n = len(self._node)
        self._parent = list(range(n))
        self._size = [1] * n
        self._use = [[] for _ in range(n)]  # apps mentioning a representative
        self._sig = dict(zip(self._node, range(n)))
        self._edge = [-1] * n  # proof forest: neighbour towards the root
        self._why = [None] * n  # reason of the edge to that neighbour
        for i, (_, args) in enumerate(self._node):
            for a in args:
                self._use[a].append(i)

    def find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def merge(self, i: int, j: int, label: object) -> None:
        """Assert that the terms with ids i and j are equal."""
        queue = [(i, j, label)]
        while queue:
            a, b, why = queue.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            if self._size[ra] > self._size[rb]:
                a, b, ra, rb = b, a, rb, ra
            self._reroot(a)
            self._edge[a], self._why[a] = b, why
            self._parent[ra] = rb
            self._size[rb] += self._size[ra]
            for app in self._use[ra]:
                head, args = self._node[app]
                roots = tuple(self.find(x) for x in args)
                twin = self._sig.get((head, roots))
                if twin is None:
                    self._sig[(head, roots)] = app
                elif self.find(twin) != self.find(app):
                    queue.append((app, twin, _Congruence(app, twin)))
            self._use[rb].extend(self._use[ra])
            self._use[ra] = []

    def _reroot(self, i: int) -> None:
        """Reverse the forest edges from i to its root, making i the root."""
        edge, why = self._edge, self._why
        prev, prev_why = -1, None
        while i != -1:
            nxt, reason = edge[i], why[i]
            edge[i], why[i] = prev, prev_why
            prev, prev_why, i = i, reason, nxt

    def explain(self, i: int, j: int) -> list:
        """Labels of the asserted equations that entail i = j.

        The ids must be equal in the closure.  Each forest edge on the
        path between them is an asserted equation or the congruence of
        two applications, whose argument pairs are explained in turn.
        """
        labels: dict = {}
        done: set[int] = set()
        pending = [(i, j)]
        while pending:
            a, b = pending.pop()
            if a == b:
                continue
            for node in self._path(a, b):
                if node in done:
                    continue
                done.add(node)
                why = self._why[node]
                if isinstance(why, _Congruence):
                    pending.extend(
                        zip(self._node[why.app][1], self._node[why.twin][1])
                    )
                else:
                    labels[why] = None
        return list(labels)

    def _path(self, a: int, b: int) -> list[int]:
        """The nodes whose forest edges join a and b."""
        edge = self._edge
        up_a = [a]
        while edge[up_a[-1]] != -1:
            up_a.append(edge[up_a[-1]])
        on_a = {n: k for k, n in enumerate(up_a)}
        up_b = []
        while b not in on_a:
            up_b.append(b)
            b = edge[b]
        return up_a[: on_a[b]] + up_b


# ---------------------------------------------------------------------------
# DPLL over the propositional skeleton


class _Search:
    """Iterative DPLL with a trail and two watched literals per clause.

    Variables are among 1..n and a literal is ±v.  ``_val[l]`` is the
    truth of literal l (negative literals index from the end of the
    list).  The variables of the clauses are decided most frequent
    first, ties by number.  The first two literals of a clause are
    watched.  ``next_model`` returns
    a total assignment satisfying every clause, or None; ``block`` adds
    a clause that the last model falsifies, after which ``next_model``
    resumes from the assignments the clause leaves standing.

    A conflict clause is falsified at its highest decision level L.  If
    one literal sits at L, the search backjumps to the next level below
    and asserts that literal there.  Otherwise it backjumps to L and
    flips the deepest decision not yet flipped; a flipped decision
    stands for the exhausted branch below it.  ``steps`` is what is left
    of the query's ``cap``: a clause, watch visit or decision costs one.
    """

    __slots__ = ("cap", "steps", "_cancel", "_val", "_level", "_watches",
                 "_trail", "_head", "_starts", "_flipped", "_pos", "_order",
                 "_unsat")

    def __init__(
        self,
        clauses: Sequence[Sequence[int]],
        n_vars: int,
        cap: int,
        cancel: Callable[[], None],
    ) -> None:
        self.cap = self.steps = cap
        self._cancel = cancel
        self._val: list[Optional[bool]] = [None] * (2 * n_vars + 1)
        self._level = [0] * (n_vars + 1)
        # Only the literals of the clauses get a list, not all of 1..n.
        self._watches: defaultdict[int, list[list[int]]] = defaultdict(list)
        self._trail: list[int] = []
        self._head = 0  # trail literals before it are propagated
        self._starts: list[int] = []  # trail length when each level began
        self._flipped: list[bool] = []  # per level
        self._pos: list[int] = []  # per level: decision's place in _order
        count = Counter(map(abs, chain.from_iterable(clauses)))
        # A reversed sort is stable: equal counts keep increasing order.
        self._order = sorted(
            sorted(count), key=count.__getitem__, reverse=True
        )
        self._unsat = False
        self.charge(len(clauses))
        watches, val = self._watches, self._val
        for c in clauses:
            if len(c) > 1:
                c = list(c)  # the watches reorder it
                watches[c[0]].append(c)
                watches[c[1]].append(c)
            elif val[c[0]] is None:
                self._assign(c[0])
            elif val[c[0]] is False:
                self._unsat = True

    def charge(self, n: int) -> None:
        self.steps -= n
        if self.steps < 0:
            raise LimitReached("oracle_steps", self.cap)

    def _assign(self, lit: int) -> None:
        self._val[lit], self._val[-lit] = True, False
        self._level[abs(lit)] = len(self._starts)
        self._trail.append(lit)

    def _undo(self, level: int) -> None:
        """Drop every assignment above the given decision level."""
        if level >= len(self._starts):
            return
        start = self._starts[level]
        val = self._val
        for lit in self._trail[start:]:
            val[lit] = val[-lit] = None
        del self._trail[start:]
        del self._starts[level:], self._flipped[level:], self._pos[level:]
        self._head = start

    def _decide(self, lit: int, pos: int, flipped: bool) -> None:
        self._starts.append(len(self._trail))
        self._flipped.append(flipped)
        self._pos.append(pos)
        self._assign(lit)

    def _unit_propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a falsified clause, or None."""
        val, trail, watches = self._val, self._trail, self._watches
        while self._head < len(trail):
            false_lit = -trail[self._head]
            self._head += 1
            ws = watches[false_lit]
            kept = 0
            for n, c in enumerate(ws):
                self.steps -= 1
                if self.steps < 0:
                    self.charge(0)  # raises
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                other = c[0]
                if val[other] is not True:
                    for k in range(2, len(c)):
                        lit = c[k]
                        if val[lit] is not False:
                            c[1], c[k] = lit, false_lit
                            watches[lit].append(c)
                            break
                    else:
                        if val[other] is False:
                            ws[kept:] = ws[n:]
                            return c
                        self._assign(other)
                    if c[1] != false_lit:
                        continue
                ws[kept] = c
                kept += 1
            del ws[kept:]
        return None

    def _resolve(self, conflict: list[int]) -> None:
        """Undo enough of the trail that the conflict clause is not false."""
        level = self._level
        levels = sorted((level[abs(l)] for l in conflict), reverse=True)
        top = levels[0]
        if top == 0:
            self._unsat = True
            return
        if len(levels) == 1 or levels[1] < top:
            lit = next(l for l in conflict if level[abs(l)] == top)
            self._undo(levels[1] if len(levels) > 1 else 0)
            self._assign(lit)
            return
        self._undo(top)
        while self._flipped and self._flipped[-1]:
            self._undo(len(self._starts) - 1)
        if not self._starts:
            self._unsat = True
            return
        decision, pos = self._trail[self._starts[-1]], self._pos[-1]
        self._undo(len(self._starts) - 1)
        self._decide(-decision, pos, True)

    def block(self, clause: list[int]) -> None:
        """Add a clause falsified by the current total assignment."""
        level = self._level
        clause.sort(key=lambda l: -level[abs(l)])
        if len(clause) > 1:
            self._watches[clause[0]].append(clause)
            self._watches[clause[1]].append(clause)
        self._resolve(clause)

    def next_model(self) -> Optional[list[Optional[bool]]]:
        """The next total assignment (indexed by variable), or None."""
        order, val, cancel = self._order, self._val, self._cancel
        while not self._unsat:
            cancel()
            conflict = self._unit_propagate()
            if conflict is not None:
                self._resolve(conflict)
                continue
            pos = self._pos[-1] if self._pos else 0
            while pos < len(order) and val[order[pos]] is not None:
                pos += 1
            if pos == len(order):
                return val
            self.charge(1)
            self._decide(order[pos], pos, False)
        return None


def _theory_conflict(
    cc: CongruenceClosure,
    eqs: list[tuple[int, int, int]],
    preds: list[tuple[int, str, tuple[int, ...]]],
    val: list[Optional[bool]],
) -> Optional[list[int]]:
    """A clause that the total assignment falsifies modulo congruence.

    ``eqs`` holds (variable, lhs id, rhs id) for the equation atoms and
    ``preds`` holds (variable, predicate, argument ids) for the others.
    The clause negates the asserted equations that explain the clash
    together with the clashing literals; its one positive literal, the
    atom assigned false, comes last.  None means the assignment is a
    genuine countermodel.
    """
    cc.reset()
    for v, i, j in eqs:
        if val[v]:
            cc.merge(i, j, v)
    find = cc.find
    for v, i, j in eqs:
        if not val[v] and find(i) == find(j):
            return [-u for u in cc.explain(i, j)] + [v]
    holds: dict[tuple, tuple] = {}
    for v, pred, args in preds:
        if val[v]:
            holds.setdefault((pred, tuple(find(x) for x in args)), (v, args))
    for v, pred, args in preds:
        if val[v]:
            continue
        hit = holds.get((pred, tuple(find(x) for x in args)))
        if hit is not None:
            p, p_args = hit
            core: dict[int, None] = {}
            for x, y in zip(p_args, args):
                core.update(dict.fromkeys(cc.explain(x, y)))
            return [-u for u in core] + [-p, v]
    return None


class _AtomTable:
    """The run-wide Boolean variables of one InternalOracle.

    Each atom gets a positive int on first sight; the fresh atoms of one
    query are numbered in ``key`` order, so the numbering follows the
    sequence of queries and not set iteration order.  Each clause is
    encoded once, as its literals ±v sorted by variable, or None for a
    tautology.  An atom's closure ids are interned at the first theory
    check of a query that has it, in ``closure``.
    """

    def __init__(self) -> None:
        self.closure = CongruenceClosure()
        self._ids: dict = {}
        self.atoms: list = [None]  # by id; id 0 is no atom
        self._is_eq: list[bool] = [False]
        self._theory: list[Optional[tuple]] = [None]
        self._codes: dict = {}

    def __len__(self) -> int:
        return len(self.atoms) - 1

    def encode(self, clauses: CNF) -> set[tuple[int, ...]]:
        """The int tuples of the clauses that are not tautologies."""
        codes = self._codes
        fresh = [c for c in clauses if c not in codes]
        if fresh:
            self._add(fresh)
        out = {codes[c] for c in clauses}
        out.discard(None)
        return out

    def _add(self, clauses: list[Clause]) -> None:
        ids = self._ids
        new = {a for c in clauses for _, a in c if a not in ids}
        for atom in sorted(new, key=lambda a: a.key):
            ids[atom] = len(self.atoms)
            self.atoms.append(atom)
            self._is_eq.append(isinstance(atom, Eq))
            self._theory.append(None)
        for c in clauses:
            code = sorted([ids[a] if s else -ids[a] for s, a in c], key=abs)
            # A clause holds no literal twice, so a repeated variable
            # occurs with both signs.
            tautology = len({abs(u) for u in code}) < len(code)
            self._codes[c] = None if tautology else tuple(code)

    def theory_atoms(self, variables: Iterable[int]) -> tuple[list, list]:
        """The ``eqs`` and ``preds`` of ``_theory_conflict`` for the
        given variables, in increasing order."""
        eqs: list = []
        preds: list = []
        theory, intern = self._theory, self.closure.intern
        for v in sorted(variables):
            ids = theory[v]
            if ids is None:
                atom = self.atoms[v]
                if self._is_eq[v]:
                    ids = (v, intern(atom.lhs), intern(atom.rhs))
                else:
                    ids = (v, atom.pred, tuple([intern(t) for t in atom.args]))
                theory[v] = ids
            (eqs if self._is_eq[v] else preds).append(ids)
        return eqs, preds


@dataclass(eq=False)
class Oracle:
    """Decision backend for ground unsatisfiability modulo equality.

    The one question is ``refutation(clauses)``, cached under the clause
    set.  ``validity(seq)`` asks it of the sequent's clause form, so a
    sequent and a clause set with one clause form share a verdict; a
    clause form past ``DEFAULT_CNF_CAP`` literals is UNKNOWN and reaches
    no backend.  ``calls`` counts the clause sets that reached the
    backend, which implements only the uncached ``_decide``; a backend
    may keep state across them for the length of a run, as
    ``InternalOracle`` keeps one atom table and one lemma store.
    ``cancel``, the run's deadline poll, is called before each such
    clause set and while a sequent's clause form is simplified, and
    raises to abandon the run, so a deadline holds for every backend.
    """

    calls: int = field(default=0, kw_only=True)
    cancel: Callable[[], None] = field(default=NO_DEADLINE.poll, kw_only=True)
    _memo: dict = field(default_factory=dict, kw_only=True, repr=False)

    def validity(self, seq: Sequent) -> Verdict:
        try:
            clauses = cnf_of_formulas(seq.ante, seq.succ, cancel=self.cancel)
        except LimitReached as err:
            if err.meter != "clause_form_literals":
                raise
            return Verdict.UNKNOWN
        return self.refutation(clauses)

    def refutation(self, clauses: CNF) -> Verdict:
        """VALID iff the clause set is unsatisfiable modulo equality."""
        hit = self._memo.get(clauses)
        if hit is None:
            self.cancel()
            self.calls += 1
            hit = self._memo[clauses] = self._decide(clauses)
        return hit

    def _decide(self, clauses: CNF) -> Verdict:
        raise NotImplementedError


@dataclass
class InternalOracle(Oracle):
    """The loop of this module, with one atom table (and in it one term
    table and closure) and one lemma store per run; a query is not
    simplified by subsumption.

    The lemma store files each blocking clause, as an int tuple, under
    the variable of its one positive literal, with the variables it
    needs; a stored lemma joins a query when all of them occur in it, so
    it adds no variable.
    """

    _atoms: _AtomTable = field(
        default_factory=_AtomTable, init=False, repr=False
    )
    _lemmas: dict = field(default_factory=dict, init=False, repr=False)

    def _decide(self, clauses: CNF) -> Verdict:
        table, lemmas = self._atoms, self._lemmas
        cnf = table.encode(clauses)
        present = {abs(u) for c in cnf for u in c}
        for v in present:
            bucket = lemmas.get(v)
            if bucket:
                for lemma, needs in bucket.items():
                    if needs <= present:
                        cnf.add(lemma)
        ints = sorted(cnf)
        if ints and not ints[0]:
            return Verdict.VALID
        eqs = preds = None
        try:
            search = _Search(ints, len(table), DEFAULT_STEP_CAP, self.cancel)
            while (model := search.next_model()) is not None:
                if eqs is None:
                    eqs, preds = table.theory_atoms(present)
                blocking = _theory_conflict(table.closure, eqs, preds, model)
                if blocking is None:
                    return Verdict.INVALID
                lemmas.setdefault(blocking[-1], {})[
                    tuple(sorted(blocking, key=abs))
                ] = frozenset(map(abs, blocking))
                search.charge(len(blocking))
                search.block(blocking)
        except LimitReached as err:
            if err.meter != "oracle_steps":
                raise
            return Verdict.UNKNOWN
        return Verdict.VALID

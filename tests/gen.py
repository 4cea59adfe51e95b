"""Seeded random generators shared across the test suite.

Everything takes an explicit ``random.Random`` so failures reproduce
from the seed printed by the test.
"""

from __future__ import annotations

import random
from typing import Optional

from cutintro.formulas import (
    And,
    Atom,
    Eq,
    Formula,
    Imp,
    Not,
    Or,
    QuantBlock,
    conj,
    render_formula,
)
from cutintro.herbrand import HerbrandStructure
from cutintro.proofs import Inference
from cutintro.sequents import Sequent
from cutintro.terms import (
    App,
    Term,
    Var,
    alpha,
    render_term,
    render_tuple,
    subst_term,
    tag_head,
    term_key,
    tuple_key,
)

# ---------------------------------------------------------------------------
# ground terms and term sets


def random_ground_term(
    rng: random.Random,
    funcs: list[tuple[str, int]],
    consts: list[str],
    depth: int,
) -> Term:
    if depth <= 0 or not funcs or rng.random() < 0.35:
        return App(rng.choice(consts), ())
    name, arity = rng.choice(funcs)
    return App(
        name,
        tuple(
            random_ground_term(rng, funcs, consts, depth - 1)
            for _ in range(arity)
        ),
    )


def nested_input(depth: int) -> str:
    """A valid .cis input whose single instance f(f(...f(a)...)) nests
    ``depth`` applications deep; one instance cannot be compressed."""
    t = "f(" * depth + "a" + ")" * depth
    return f"ante all x: P(x).\nsucc P({t}).\ninst 1: {t}.\n"


def parenthesized_input(depth: int) -> str:
    """A valid .cis input whose succedent formula P(a) is wrapped in
    ``depth`` pairs of parentheses; the parentheses leave no trace in the
    parsed formula, so any depth parses and compresses like P(a)."""
    f = "(" * depth + "P(a)" + ")" * depth
    return f"ante all x: P(x).\nsucc {f}.\ninst 1: a.\n"


def negated_input(depth: int) -> str:
    """A .cis input whose succedent formula is P(a) under ``depth``
    negations (valid for an even depth).  It parses at any depth, but the
    formula walkers of later stages recurse once per negation, so a depth
    past the recursion limit ends in ``error``."""
    return f"ante all x: P(x).\nsucc {'~' * depth}P(a).\ninst 1: a.\n"


def _random_pattern(
    rng: random.Random,
    funcs: list[tuple[str, int]],
    consts: list[str],
    m: int,
    depth: int,
) -> Term:
    """A term over α₁..α_m (at least one variable occurrence)."""
    def go(d: int) -> Term:
        r = rng.random()
        if d <= 0 or r < 0.3:
            if rng.random() < 0.6:
                return alpha(rng.randint(1, m))
            return App(rng.choice(consts), ())
        name, arity = rng.choice(funcs)
        return App(name, tuple(go(d - 1) for _ in range(arity)))

    for _ in range(20):
        t = go(depth)
        if any(isinstance(s, Var) for s in subterms(t)):
            return t
    return alpha(1)


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def subterms(t: Term):
    """All subterms including t itself, pre-order."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def random_term_set(rng: random.Random, max_size: int = 8) -> frozenset:
    """Ground term set, ≤ 3 function symbols, depth ≤ 3.

    Half the draws expand random patterns over random vectors first, so
    compressible sets show up often; the rest is uniform noise.
    """
    all_funcs = [("f", 1), ("g", 2), ("h", 1)]
    funcs = all_funcs[: rng.randint(1, 3)]
    consts = ["a", "b"][: rng.randint(1, 2)]
    size = rng.randint(1, max_size)
    terms: set[Term] = set()
    if rng.random() < 0.5:
        m = rng.randint(1, 2)
        rows = [
            tuple(
                random_ground_term(rng, funcs, consts, 1) for _ in range(m)
            )
            for _ in range(rng.randint(1, 3))
        ]
        for _ in range(rng.randint(1, 3)):
            u = _random_pattern(rng, funcs, consts, m, 2)
            for row in rows:
                mapping = {alpha(i + 1).name: row[i] for i in range(m)}
                terms.add(subst_term(u, mapping))
    # The vocabulary may not admit `size` distinct depth-3 terms, so cap
    # the top-up attempts rather than insisting on the target size.
    for _ in range(200):
        if len(terms) >= size:
            break
        terms.add(random_ground_term(rng, funcs, consts, 3))
    while len(terms) > size:
        terms.discard(max(terms, key=term_key))
    return frozenset(terms)


def random_tagged_term_set(
    rng: random.Random, max_size: int = 9, max_width: int = 2
) -> frozenset:
    """An encoded term set over 2–3 formula tags: every term is
    #fᵢ(t₁, .., t_k) with ground arguments, k ∈ {1, .., max_width}
    fixed per tag.

    Half the draws instantiate a few tagged patterns with one shared set
    of vectors, as the term set of a compressible proof does; the rest is
    noise.  Every tag keeps at least one term.
    """
    funcs = [("f", 1), ("g", 2), ("h", 1)][: rng.randint(1, 3)]
    consts = ["a", "b"][: rng.randint(1, 2)]
    q = rng.randint(2, 3)
    width = [rng.randint(1, max_width) for _ in range(q)]
    size = rng.randint(q, max(q, max_size))

    def noise(i: int) -> Term:
        return App(
            tag_head(i + 1),
            tuple(
                random_ground_term(rng, funcs, consts, 2)
                for _ in range(width[i])
            ),
        )

    terms: set[Term] = {noise(i) for i in range(q)}
    if rng.random() < 0.5:
        m = rng.randint(1, 2)
        rows = [
            tuple(
                random_ground_term(rng, funcs, consts, 1) for _ in range(m)
            )
            for _ in range(rng.randint(1, 3))
        ]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(q)
            u = App(
                tag_head(i + 1),
                tuple(
                    _random_pattern(rng, funcs, consts, m, 2)
                    for _ in range(width[i])
                ),
            )
            for row in rows:
                mapping = {alpha(j + 1).name: row[j] for j in range(m)}
                terms.add(subst_term(u, mapping))
    for _ in range(200):
        if len(terms) >= size:
            break
        terms.add(noise(rng.randrange(q)))
    while len(terms) > size:
        # Drop the largest term of a tag that has more than one.
        per_tag: dict[str, int] = {}
        for t in terms:
            per_tag[t.head] = per_tag.get(t.head, 0) + 1
        terms.discard(
            max((t for t in terms if per_tag[t.head] > 1), key=term_key)
        )
    return frozenset(terms)


# ---------------------------------------------------------------------------
# ground sequents (for the validity oracle)


def random_ground_sequent(rng: random.Random) -> Sequent:
    """≤ 6 atoms, ≤ 4 constants, ≤ 2 unary functions, depth ≤ 3."""
    consts = ["a", "b", "c", "d"][: rng.randint(1, 4)]
    funcs = [("f", 1), ("g", 1)][: rng.randint(0, 2)]

    def t() -> Term:
        return random_ground_term(rng, funcs, consts, rng.randint(0, 3))

    atoms: list[Formula] = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            atoms.append(Eq(t(), t()))
        else:
            name, arity = rng.choice([("P", 1), ("Q", 2)])
            atoms.append(Atom(name, tuple(t() for _ in range(arity))))

    def form(depth: int) -> Formula:
        if depth <= 0 or rng.random() < 0.45:
            return rng.choice(atoms)
        r = rng.random()
        if r < 0.25:
            return Not(form(depth - 1))
        cls = rng.choice([And, Or, Imp])
        return cls(form(depth - 1), form(depth - 1))

    ante = tuple(form(rng.randint(0, 2)) for _ in range(rng.randint(0, 3)))
    succ = tuple(form(rng.randint(0, 2)) for _ in range(rng.randint(0, 2)))
    style = rng.random()
    if style < 0.2 and ante:
        succ = succ + (rng.choice(ante),)  # trivially valid direction
    elif style < 0.4:
        # an equation chain with a congruence goal at the end
        xs = [t() for _ in range(rng.randint(2, 4))]
        chain = tuple(Eq(xs[i], xs[i + 1]) for i in range(len(xs) - 1))
        wrap = rng.choice([lambda u: u, lambda u: App("f", (u,))])
        ante = ante + chain
        succ = succ + (Eq(wrap(xs[0]), wrap(xs[-1])),)
    if not ante and not succ:
        succ = (atoms[0],)
    return Sequent(ante, succ)


def random_ground_clauses(rng: random.Random) -> frozenset:
    """A ground clause set over 10–30 atoms, each used at least once:
    equations and predicates on terms built from four constants, unary f
    and binary g, depth ≤ 2."""
    funcs = [("f", 1), ("g", 2)]
    terms = list(
        {random_ground_term(rng, funcs, ["a", "b", "c", "d"], 2) for _ in range(12)}
    )
    terms.sort(key=term_key)
    n_atoms = rng.randint(10, 30)
    atoms: list[Formula] = []
    for _ in range(20 * n_atoms):
        if len(atoms) == n_atoms:
            break
        if rng.random() < 0.6:
            atom: Formula = Eq(rng.choice(terms), rng.choice(terms))
        else:
            name, arity = rng.choice([("P", 1), ("Q", 2)])
            atom = Atom(name, tuple(rng.choice(terms) for _ in range(arity)))
        if atom not in atoms:
            atoms.append(atom)
    clauses = [
        {
            (rng.random() < 0.5, rng.choice(atoms))
            for _ in range(rng.choice([1, 2, 2, 3, 3, 4]))
        }
        for _ in range(rng.randint(len(atoms) // 2, 3 * len(atoms) // 2))
    ]
    used = {atom for clause in clauses for _, atom in clause}
    for atom in atoms:
        if atom not in used:
            rng.choice(clauses).add((rng.random() < 0.5, atom))
    return frozenset(frozenset(clause) for clause in clauses)


# ---------------------------------------------------------------------------
# solvable instances (sequent + witnessing instance lists)


def _iterate(f, t: Term, n: int) -> Term:
    for _ in range(n):
        t = f(t)
    return t


def validate_structure(h: HerbrandStructure, seq: Sequent) -> None:
    """Raise ValueError unless h gives each formula of seq ground tuples
    of its prefix length."""
    if len(h.instances) != seq.q:
        raise ValueError(
            f"structure has {len(h.instances)} components,"
            f" sequent has {seq.q} formulas"
        )
    for i in range(1, seq.q + 1):
        k = seq.k(i)
        for tup in h.instances[i - 1]:
            if k == 0:
                raise ValueError(f"formula {i} admits no instances")
            if len(tup) != k:
                raise ValueError(
                    f"formula {i}: instance arity {len(tup)} != {k}"
                )
            if not all(is_ground(t) for t in tup):
                raise ValueError(f"formula {i}: non-ground instance")


def random_solvable_instance(
    rng: random.Random,
) -> tuple[Sequent, HerbrandStructure]:
    """A valid instantiated sequent drawn from four scalable families."""
    pred = rng.choice(["P", "Q", "R"])
    fn = rng.choice(["f", "g", "h"])
    cn = rng.choice(["a", "b", "c"])
    c = App(cn, ())

    def f(t: Term) -> Term:
        return App(fn, (t,))

    family = rng.randint(1, 4)
    if family == 1:
        # induction chain: N(c), ∀x (N(x) → N(f x)) ⊢ N(f^n c)
        n = rng.randint(3, 8)
        x = Var("x")
        seq = Sequent(
            ante=(
                Atom(pred, (c,)),
                QuantBlock(
                    "all", ("x",), Imp(Atom(pred, (x,)), Atom(pred, (f(x),)))
                ),
            ),
            succ=(Atom(pred, (_iterate(f, c, n),)),),
        )
        h = HerbrandStructure(
            (
                frozenset(),
                frozenset((_iterate(f, c, i),) for i in range(n)),
                frozenset(),
            )
        )
    elif family == 2:
        # doubling: P(h^m c, c), ∀x h(x)=s²(x), ∀xy (P(s x, y) → P(x, s y))
        sn = "s" if fn != "s" else "t"

        def s(t: Term) -> Term:
            return App(sn, (t,))

        m = rng.choice([2, 4])
        x, y = Var("x"), Var("y")
        hm = _iterate(f, c, m)
        seq = Sequent(
            ante=(
                Atom(pred, (hm, c)),
                QuantBlock("all", ("x",), Eq(f(x), s(s(x)))),
                QuantBlock(
                    "all",
                    ("x", "y"),
                    Imp(
                        Atom(pred, (s(x), y)),
                        Atom(pred, (x, s(y))),
                    ),
                ),
            ),
            succ=(Atom(pred, (c, hm)),),
        )
        steps = 2 * m
        h = HerbrandStructure(
            (
                frozenset(),
                frozenset((_iterate(f, c, i),) for i in range(m)),
                frozenset(
                    (_iterate(s, c, steps - 1 - i), _iterate(s, c, i))
                    for i in range(steps)
                ),
                frozenset(),
            )
        )
    elif family == 3:
        # instance spread: ∀x Q(x), ∀x (Q(x) → R(x)) ⊢ R(t₁) ∧ .. ∧ R(t_r)
        q2 = "S" if pred == "R" else "R"
        terms = []
        while len(terms) < rng.randint(2, 4):
            t = random_ground_term(rng, [(fn, 1)], [cn], 2)
            if t not in terms:
                terms.append(t)
        x = Var("x")
        seq = Sequent(
            ante=(
                QuantBlock("all", ("x",), Atom(pred, (x,))),
                QuantBlock(
                    "all", ("x",), Imp(Atom(pred, (x,)), Atom(q2, (x,)))
                ),
            ),
            succ=(conj([Atom(q2, (t,)) for t in terms]),),
        )
        tuples = frozenset((t,) for t in terms)
        h = HerbrandStructure((tuples, tuples, frozenset()))
    else:
        # collapsing function: ∀x k(x)=x, P(c) ⊢ P(k^r c)
        r = rng.randint(3, 6)
        x = Var("x")
        seq = Sequent(
            ante=(
                QuantBlock("all", ("x",), Eq(f(x), x)),
                Atom(pred, (c,)),
            ),
            succ=(Atom(pred, (_iterate(f, c, r),)),),
        )
        h = HerbrandStructure(
            (
                frozenset((_iterate(f, c, i),) for i in range(r)),
                frozenset(),
                frozenset(),
            )
        )
    validate_structure(h, seq)
    return seq, h


# ---------------------------------------------------------------------------
# .cis texts of fixed inputs


def _nest(f: str, t: str, n: int) -> str:
    for _ in range(n):
        t = f"{f}({t})"
    return t


def lemma_input(r: int, side_chains: int) -> str:
    """The running example with f(x) = sʳ(x), plus ground side hypotheses
    d_j0 = d_j1 = d_j2 = d_j3 for each j below ``side_chains``; r = 2
    without side chains is the bundled file."""
    f4a, ffa, half = _nest("f", "a", 4), _nest("f", "a", 2), 2 * r
    lines = [
        f"ante P({f4a}, a).",
        f"ante all x: f(x) = {_nest('s', 'x', r)}.",
        "ante all x y: P(s(x), y) -> P(x, s(y)).",
    ]
    for j in range(side_chains):
        eqs = (f"d{j}x{i} = d{j}x{i + 1}" for i in range(3))
        lines.append("ante " + " & ".join(eqs) + ".")
    lines.append(f"succ P(a, {f4a}).")
    lines.append(
        "inst 2: " + "; ".join(_nest("f", "a", i) for i in range(4)) + "."
    )
    # f⁴a = s²ʳ(f²a) and f²a = s²ʳ(a): walk P across each half in 2r steps.
    steps = [
        f"({_nest('s', x, half - 1 - i)}, {_nest('s', y, i)})"
        for x, y in ((ffa, "a"), ("a", ffa))
        for i in range(half)
    ]
    lines.append("inst 3: " + "; ".join(steps) + ".")
    return "\n".join(lines) + "\n"


def chain_input(n: int) -> str:
    """P(c), ∀x (P(x) → P(f x)) ⊢ P(fⁿc), with the instances c .. fⁿ⁻¹c:
    n terms of one tag, the smallest decompositions of size about 2√n."""
    inst = "; ".join(_nest("f", "c", i) for i in range(n))
    return (
        "ante P(c).\nante all x: P(x) -> P(f(x)).\n"
        f"succ P({_nest('f', 'c', n)}).\ninst 2: {inst}.\n"
    )


def constants_input(n: int) -> str:
    """∀x P(x) ⊢ P(c0) ∧ … ∧ P(cₙ₋₁): n terms that do not compress.  The
    only key whose covers cover the term set is the whole set, so no
    bound stops its subset table short of all n terms."""
    cs = [f"c{i}" for i in range(n)]
    succ = " & ".join(f"P({x})" for x in cs)
    return f"ante all x: P(x).\nsucc {succ}.\ninst 1: {'; '.join(cs)}.\n"


def deep_pair_input(depth: int) -> str:
    """∀x y P(x, y) ⊢ the conjunction of P over {f^depth(a), b} × {c, d}:
    a compressible input whose proof holds a term ``depth`` deep."""
    deep = _nest("f", "a", depth)
    pairs = [(x, y) for x in (deep, "b") for y in "cd"]
    succ = " & ".join(f"P({x}, {y})" for x, y in pairs)
    inst = "; ".join(f"({x}, {y})" for x, y in pairs)
    return f"ante all x y: P(x, y).\nsucc {succ}.\ninst 1: {inst}.\n"


def wide_disjunction_input(width: int = 6) -> str:
    """∀x y D(x, y) ⊢ ⋀ D(s, t) over all pairs s, t of {a, b, c}, where D
    is a disjunction of ``width`` two-atom conjunctions.  The negated
    succedent's clause form multiplies out to width⁹ clauses."""

    def d(x: str, y: str) -> str:
        return " | ".join(
            f"(P{i}({x}, {y}) & Q{i}({x}, {y}))" for i in range(width)
        )

    pairs = [(s, t) for s in "abc" for t in "abc"]
    succ = " & ".join(f"({d(s, t)})" for s, t in pairs)
    inst = "; ".join(f"({s}, {t})" for s, t in pairs)
    return f"ante all x y: {d('x', 'y')}.\nsucc {succ}.\ninst 1: {inst}.\n"


def render_input(seq: Sequent, structure: HerbrandStructure) -> str:
    """Input text for a sequent and its instance lists: the inverse of
    ``parse_input``, up to declaration order and whitespace."""
    lines: list[str] = []
    for f in seq.ante:
        lines.append(f"ante {render_formula(f)}.")
    for f in seq.succ:
        lines.append(f"succ {render_formula(f)}.")
    for i in range(1, seq.q + 1):
        h = structure.instances[i - 1]
        if not h:
            continue
        rendered = []
        for tup in sorted(h, key=tuple_key):
            if len(tup) == 1:
                rendered.append(render_term(tup[0]))
            else:
                rendered.append(render_tuple(tup))
        lines.append(f"inst {i}: {'; '.join(rendered)}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hand-made proofs


def unsound_forall_r() -> tuple:
    """∀ right from the leaf P(α1) ⊢ P(α1) to P(α1) ⊢ ∀x P(x): the
    eigenvariable α1 stays free in the conclusion, so the step is unsound."""
    p = Atom("P", (alpha(1),))
    leaf = Inference("oracle", Sequent((p,), (p,)))
    q = QuantBlock("all", ("x",), Atom("P", (Var("x"),)))
    step = Inference("forall_r", Sequent((p,), (q,)), (0,), q, (alpha(1),))
    return leaf, step


def weakening_chain(seq: Sequent, n: int) -> tuple:
    """The leaf seq under n weakenings that add nothing: n + 1 steps."""
    steps = [Inference("oracle", seq)]
    steps += (Inference("weaken", seq, (i,)) for i in range(n))
    return tuple(steps)


def splice_out(proof: tuple, i: int) -> tuple:
    """The proof with step i, a step of one premise, left out: the step
    that named it names its premise instead."""
    (above,) = proof[i].premises

    def renumber(j: int) -> int:
        return above if j == i else j - (j > i)

    return tuple(
        step._replace(premises=tuple(map(renumber, step.premises)))
        for k, step in enumerate(proof)
        if k != i
    )

"""Seeded input generators for the four benchmark workloads.

Every workload is a fixed list of *structures*, each written as `.cis`
text over natural names (P, f, a, x, ...) and identified by a base id
that keys its pinned expected output in ``pins.json``.  A run never
feeds the natural text to the program: each round renames every
identifier with an order-preserving map onto fresh names of one fixed
length, drawn from the run's seed.  The program orders terms and breaks
ties by comparing names and rendered strings, and such a map preserves
every one of those comparisons, so a renamed input must produce exactly
the pinned output with the names mapped back.  Distinct rounds and seeds
give distinct texts, so no input repeats within a process and a cache
that outlives one input cannot serve a repeat.

This module imports nothing from the program: editing the program or
its tests cannot change a workload.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

WORKLOADS = ("chain", "spread", "lemma", "batch")

# Fixed seed of the random structures in `spread`; the pins depend on it.
GEN_SEED = 20140211

KEYWORDS = frozenset({"ante", "succ", "inst", "all", "ex"})
IDENT = re.compile(r"[^\W\d]\w*'*")
# Fresh names: a letter, three letters or digits, and a digit.  One fixed
# length keeps comparisons of rendered strings order-preserving; the final
# digit keeps a name from matching a keyword or a word of a message.
NAME_LEN = 5


@dataclass(frozen=True)
class Structure:
    base: str  # key into pins.json
    text: str  # .cis text over natural names


@dataclass(frozen=True)
class Input:
    base: str
    name: str  # file stem, unique within a run
    text: str  # renamed .cis text
    inverse: dict  # renamed identifier -> natural identifier


# ---------------------------------------------------------------------------
# term helpers (terms are plain strings)


def app(f: str, *args: str) -> str:
    return f"{f}({', '.join(args)})" if args else f


def iterate(f: str, t: str, n: int) -> str:
    for _ in range(n):
        t = app(f, t)
    return t


def tup(ts) -> str:
    ts = list(ts)
    return ts[0] if len(ts) == 1 else "(" + ", ".join(ts) + ")"


def inst(i: int, tuples) -> str:
    return f"inst {i}: " + "; ".join(tup(t) for t in tuples) + "."


# ---------------------------------------------------------------------------
# chain: P(c), ∀x P(x) → P(f x) ⊢ P(fⁿ c)

# n = 14 alone takes 8-10 s: too long to repeat within one run, and a
# single sample of it moved by more than a quarter between runs.  An odd
# number of sizes puts the median input inside one size (chain10), not
# between the extremes of two.
CHAIN_NS = range(7, 14)


def chain(n: int) -> Structure:
    lines = [
        "ante P(c).",
        "ante all x: P(x) -> P(f(x)).",
        f"succ P({iterate('f', 'c', n)}).",
        inst(2, [(iterate("f", "c", i),) for i in range(n)]),
    ]
    return Structure(f"chain{n}", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# lemma: the running example with f(x) = sʳ(x) and ground side hypotheses

# (r, side chains).  At r = 2 only the bundled file: with four or more
# chains its canonical check exceeds the CNF cap and the run ends in
# `error`, and each chain adds about 0.5 s to a round.
LEMMA_CASES = [(1, 0), (1, 2), (1, 4), (1, 6), (2, 0)]


def _side_chain(j: int) -> str:
    """Ground equations d_j0 = d_j1 = d_j2 = d_j3 over fresh constants."""
    cs = [f"d{j}x{i}" for i in range(4)]
    return " & ".join(f"{cs[i]} = {cs[i + 1]}" for i in range(3))


def lemma(r: int, extras: int) -> Structure:
    """r = 2, extras = 0 is the bundled running example."""
    f4a = iterate("f", "a", 4)
    lines = [
        f"ante P({f4a}, a).",
        f"ante all x: f(x) = {iterate('s', 'x', r)}.",
        "ante all x y: P(s(x), y) -> P(x, s(y)).",
    ]
    lines += [f"ante {_side_chain(j)}." for j in range(extras)]
    lines.append(f"succ P(a, {f4a}).")
    lines.append(inst(2, [(iterate("f", "a", i),) for i in range(4)]))
    # f⁴a = s²ʳ(f²a) and f²a = s²ʳ(a): walk P across each half in 2r steps.
    ffa, half = iterate("f", "a", 2), 2 * r
    steps = [
        (iterate("s", x, half - 1 - i), iterate("s", y, i))
        for x, y in ((ffa, "a"), ("a", ffa))
        for i in range(half)
    ]
    lines.append(inst(3, steps))
    return Structure(f"lemma-r{r}-h{extras}", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# spread: random instance lists wrapped in ∀x̄ Pᵢ(x̄) ⊢ ⋀ Pᵢ(t̄)

SPREAD_SIZES = (8, 9, 10, 11, 12)
SPREAD_FUNCS = (("f", 1), ("g", 2), ("h", 1))
SPREAD_CONSTS = ("a", "b")


def _ground(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(SPREAD_CONSTS)
    f, k = rng.choice(SPREAD_FUNCS)
    return app(f, *(_ground(rng, depth - 1) for _ in range(k)))


def _pattern(rng: random.Random, m: int, depth: int) -> str:
    """A term over the placeholders @1..@m with at least one of them."""
    while True:
        def go(d: int) -> str:
            if d <= 0 or rng.random() < 0.3:
                if rng.random() < 0.7:
                    return f"@{rng.randint(1, m)}"
                return rng.choice(SPREAD_CONSTS)
            f, k = rng.choice(SPREAD_FUNCS)
            return app(f, *(go(d - 1) for _ in range(k)))

        t = go(depth)
        if "@" in t:
            return t


def _plug(pattern: str, row) -> str:
    return re.sub(r"@(\d+)", lambda m: row[int(m.group(1)) - 1], pattern)


def _wrap(arities, tuples_per_formula) -> str:
    """∀x̄ Pᵢ(x̄) for each formula, succedent ⋀ Pᵢ(t̄) over all instances."""
    xs = ("x", "y")
    lines = []
    for i, k in enumerate(arities):
        v = xs[:k]
        lines.append(f"ante all {' '.join(v)}: P{i + 1}({', '.join(v)}).")
    goal = [
        app(f"P{i + 1}", *t)
        for i, ts in enumerate(tuples_per_formula)
        for t in ts
    ]
    lines.append("succ " + " & ".join(goal) + ".")
    for i, ts in enumerate(tuples_per_formula):
        if ts:
            lines.append(inst(i + 1, ts))
    return "\n".join(lines) + "\n"


def _spread_one(rng: random.Random, size: int, compressible: bool) -> str:
    q = rng.choice((2, 3))
    arities = [rng.choice((1, 2)) for _ in range(q)]
    arities[rng.randrange(q)] = 2
    while True:
        per: list[set] = [set() for _ in range(q)]
        if compressible:
            m = rng.choice((1, 2))
            n_rows = rng.choice([d for d in (2, 3, 4) if size % d == 0])
            rows: set = set()
            while len(rows) < n_rows:
                rows.add(tuple(_ground(rng, 1) for _ in range(m)))
            rows_l = sorted(rows)
            for _ in range(size // n_rows):
                i = rng.randrange(q)
                pat = tuple(_pattern(rng, m, 2) for _ in range(arities[i]))
                for row in rows_l:
                    per[i].add(tuple(_plug(p, row) for p in pat))
        else:
            while sum(len(s) for s in per) < size:
                i = rng.randrange(q)
                per[i].add(tuple(_ground(rng, 3) for _ in range(arities[i])))
        if sum(len(s) for s in per) == size and all(per):
            return _wrap(arities, [sorted(s) for s in per])


def spread_structures() -> list[Structure]:
    """One structure per size and kind, drawn in a fixed order."""
    rng = random.Random(GEN_SEED)
    out = []
    for size in SPREAD_SIZES:
        for kind in ("pat", "noise"):
            if kind == "pat" and size == 11:  # no |U|·|W| split with |W| ≤ 4
                continue
            text = _spread_one(rng, size, kind == "pat")
            out.append(Structure(f"spread-{kind}{size}", text))
    return out


# ---------------------------------------------------------------------------
# batch: the four small families, 3–9 terms each


def _doubling(m: int) -> str:
    hm = iterate("f", "c", m)
    steps = [
        (iterate("s", "c", 2 * m - 1 - i), iterate("s", "c", i))
        for i in range(2 * m)
    ]
    lines = [
        f"ante P({hm}, c).",
        "ante all x: f(x) = s(s(x)).",
        "ante all x y: P(s(x), y) -> P(x, s(y)).",
        f"succ P(c, {hm}).",
        inst(2, [(iterate("f", "c", i),) for i in range(m)]),
        inst(3, steps),
    ]
    return "\n".join(lines) + "\n"


def _instance_spread(depths) -> str:
    ts = [iterate("f", "c", d) for d in depths]
    lines = [
        "ante all x: P(x).",
        "ante all x: P(x) -> R(x).",
        "succ " + " & ".join(f"R({t})" for t in ts) + ".",
        inst(1, [(t,) for t in ts]),
        inst(2, [(t,) for t in ts]),
    ]
    return "\n".join(lines) + "\n"


def _collapse(r: int) -> str:
    lines = [
        "ante all x: f(x) = x.",
        "ante P(c).",
        f"succ P({iterate('f', 'c', r)}).",
        inst(1, [(iterate("f", "c", i),) for i in range(r)]),
    ]
    return "\n".join(lines) + "\n"


def batch_structures() -> list[Structure]:
    out = [Structure(f"induction{n}", chain(n).text) for n in range(3, 10)]
    out += [Structure(f"doubling{m}", _doubling(m)) for m in (1, 2, 3)]
    out += [
        Structure("spread" + "".join(map(str, ds)), _instance_spread(ds))
        for ds in ((0, 1), (0, 2), (1, 2), (0, 1, 2))
    ]
    out += [Structure(f"collapse{r}", _collapse(r)) for r in range(3, 7)]
    return out


BATCH_FILES = 200


def structures(workload: str) -> list[Structure]:
    """The distinct structures a workload draws on."""
    if workload == "chain":
        return [chain(n) for n in CHAIN_NS]
    if workload == "lemma":
        return [lemma(r, k) for r, k in LEMMA_CASES]
    if workload == "spread":
        return spread_structures()
    if workload == "batch":
        return batch_structures()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# renaming and rounds


def rename(text: str, rng: random.Random) -> tuple[str, dict]:
    """Order-preserving renaming onto fresh names of length NAME_LEN."""
    idents = sorted(
        {m.group() for m in IDENT.finditer(text) if m.group() not in KEYWORDS}
    )
    inner = string.ascii_lowercase + string.digits
    fresh: set[str] = set()
    while len(fresh) < len(idents):
        fresh.add(
            rng.choice(string.ascii_lowercase)
            + "".join(rng.choices(inner, k=NAME_LEN - 2))
            + rng.choice(string.digits)
        )
    forward = dict(zip(idents, sorted(fresh)))
    renamed = IDENT.sub(lambda m: forward.get(m.group(), m.group()), text)
    return renamed, {v: k for k, v in forward.items()}


def unrename(s: str, inverse: dict) -> str:
    return IDENT.sub(lambda m: inverse.get(m.group(), m.group()), s)


def round_inputs(workload: str, seed: int, round_no: int) -> list[Input]:
    """One round: every structure of the workload once (for `batch`,
    BATCH_FILES files spread evenly over the structures), each under a
    fresh renaming, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    pool = structures(workload)
    if workload == "batch":
        pool = [pool[i % len(pool)] for i in range(BATCH_FILES)]
    out = []
    for i, s in enumerate(pool):
        text, inverse = rename(s.text, rng)
        out.append(Input(s.base, f"r{round_no}-{i:03d}-{s.base}", text, inverse))
    rng.shuffle(out)
    return out

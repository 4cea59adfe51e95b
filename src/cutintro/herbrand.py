"""Herbrand structures, instance sequents, and the term-set encoding.

A Herbrand structure assigns each formula of the input sequent, a
``Sequent`` of prenex formulas, a set of ground instantiation tuples
(empty for formulas without a prefix); an instance is the formula's
matrix (``sequents.prefix``) under one tuple.  The structure is
flattened into a single set of ground terms by wrapping each tuple of H_i
in a reserved head symbol tagging the formula position i; those heads
cannot appear in input files, so they never collide with user symbols.

A decomposition's patterns are tagged the same way, over the variables
α₁..α_m instead of ground terms, so ``decode_termset`` splits them into
a structure too, and ``herbrand_sequent`` of that structure is the
schematic sequent of ``cutformula``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Formula, apply_subst
from .sequents import Sequent, prefix
from .terms import (
    App,
    Term,
    is_tag_head,
    render_term,
    tag_head,
    tag_index,
    tuple_key,
)


@dataclass(frozen=True)
class HerbrandStructure:
    """instances[i-1] is the set of ground tuples for formula i (1-based)."""

    instances: tuple[frozenset[tuple[Term, ...]], ...]


@dataclass(frozen=True)
class TermSet:
    """The flattened form: every term is tag-headed; q is the number of
    formula positions (needed to reconstruct empty components)."""

    terms: frozenset[App]
    q: int

    def __len__(self) -> int:
        return len(self.terms)


def encode_termset(h: HerbrandStructure) -> TermSet:
    terms = frozenset(
        App(tag_head(i + 1), tup)
        for i, component in enumerate(h.instances)
        for tup in component
    )
    return TermSet(terms, len(h.instances))


def decode_termset(ts: TermSet) -> HerbrandStructure:
    """Split tagged terms back into per-formula tuple sets.  The terms may
    mention variables below the tag (a decomposition's patterns do)."""
    out: list[set[tuple[Term, ...]]] = [set() for _ in range(ts.q)]
    for t in ts.terms:
        if t.__class__ is not App or not is_tag_head(t.head):
            raise ValueError(
                f"term {render_term(t)} is not a tagged formula instance"
            )
        i = tag_index(t.head)
        if not 1 <= i <= ts.q:
            raise ValueError(
                f"term {render_term(t)} tags formula {i}, "
                f"but the sequent has {ts.q}"
            )
        out[i - 1].add(t.args)
    return HerbrandStructure(tuple(frozenset(s) for s in out))


def instance_formulas(
    seq: Sequent, h: HerbrandStructure, i: int
) -> tuple[Formula, ...]:
    """The instances of formula i: the matrix under each tuple of H_i if the
    formula is quantified, else the matrix itself.  Deterministic order."""
    names, matrix = prefix(seq.formula(i))
    if not names:
        return (matrix,)
    tuples = sorted(h.instances[i - 1], key=tuple_key)
    return tuple(apply_subst(matrix, dict(zip(names, tup))) for tup in tuples)


def herbrand_sequent(seq: Sequent, h: HerbrandStructure) -> Sequent:
    """The quantifier-free instance sequent: each formula's instances in
    ``instance_formulas`` order, antecedents before succedents."""
    ante: list[Formula] = []
    succ: list[Formula] = []
    for i in range(1, seq.q + 1):
        target = ante if i <= seq.p else succ
        target.extend(instance_formulas(seq, h, i))
    return Sequent(tuple(ante), tuple(succ))

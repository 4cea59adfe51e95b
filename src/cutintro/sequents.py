"""Sequents: the quantified input form and plain quantifier-free sequents.

The input form has universally prenexed antecedent formulas and
existentially prenexed succedent formulas, all matrices quantifier-free
(no strong quantifiers anywhere).  Formulas are numbered 1..q in
antecedent-then-succedent order; k_i is the prefix length of formula i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    Formula,
    QuantBlock,
    formula_vars,
    is_quantifier_free,
    render_formula,
)


@dataclass(frozen=True)
class PrenexFormula:
    """A quantifier prefix (possibly empty) over a quantifier-free matrix.
    The quantifier kind is determined by which side of the sequent the
    formula sits on: universal in the antecedent, existential in the
    succedent."""

    vars: tuple[str, ...]
    matrix: Formula

    @property
    def k(self) -> int:
        return len(self.vars)

    def to_formula(self, kind: str) -> Formula:
        if not self.vars:
            return self.matrix
        return QuantBlock(kind, self.vars, self.matrix)


@dataclass(frozen=True)
class Sigma1Sequent:
    ante: tuple[PrenexFormula, ...]
    succ: tuple[PrenexFormula, ...]

    @property
    def p(self) -> int:
        return len(self.ante)

    @property
    def q(self) -> int:
        return len(self.ante) + len(self.succ)

    def formula(self, i: int) -> PrenexFormula:
        """1-based, antecedent first."""
        if not 1 <= i <= self.q:
            raise IndexError(f"formula index {i} out of range 1..{self.q}")
        if i <= self.p:
            return self.ante[i - 1]
        return self.succ[i - self.p - 1]

    def k(self, i: int) -> int:
        return self.formula(i).k

    def validate(self) -> None:
        for i in range(1, self.q + 1):
            pf = self.formula(i)
            if not is_quantifier_free(pf.matrix):
                raise ValueError(f"formula {i}: matrix is not quantifier-free")
            if len(set(pf.vars)) != len(pf.vars):
                raise ValueError(f"formula {i}: repeated bound variable")
            free = formula_vars(pf.matrix) - set(pf.vars)
            if free:
                raise ValueError(
                    f"formula {i}: unbound variables {sorted(free)}"
                )


@dataclass(frozen=True)
class Sequent:
    """A quantifier-free sequent ante ⊢ succ."""

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    def render(self) -> str:
        left = ", ".join(render_formula(f) for f in self.ante)
        right = ", ".join(render_formula(f) for f in self.succ)
        return f"{left} |- {right}"

"""Sequents ante ⊢ succ, the one sequent type.

The input sequent holds prenex formulas: each antecedent formula is a
``QuantBlock("all", …)`` or a quantifier-free matrix, each succedent
formula a ``QuantBlock("ex", …)`` or a matrix (no strong quantifiers
anywhere).  Formulas are numbered 1..q in antecedent-then-succedent
order; k_i is the prefix length of formula i.  The same type holds
the quantifier-free instance sequents and the conclusions of a proof's
inferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formulas import Formula, QuantBlock, render_formula


def prefix(f: Formula) -> tuple[tuple[str, ...], Formula]:
    """The bound names and matrix of a prenex formula; a quantifier-free
    formula binds nothing and is its own matrix."""
    if isinstance(f, QuantBlock):
        return f.vars, f.body
    return (), f


@dataclass(frozen=True)
class Sequent:
    """A sequent ante ⊢ succ, its formulas numbered as above."""

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    @property
    def p(self) -> int:
        return len(self.ante)

    @property
    def q(self) -> int:
        return len(self.ante) + len(self.succ)

    def formula(self, i: int) -> Formula:
        """1-based, antecedent first."""
        if not 1 <= i <= self.q:
            raise IndexError(f"formula index {i} out of range 1..{self.q}")
        if i <= self.p:
            return self.ante[i - 1]
        return self.succ[i - self.p - 1]

    def k(self, i: int) -> int:
        return len(prefix(self.formula(i))[0])

    def render(self, show: Callable[[Formula], str] = render_formula) -> str:
        left = ", ".join(map(show, self.ante))
        right = ", ".join(map(show, self.succ))
        return f"{left} |- {right}"

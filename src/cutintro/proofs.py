"""Sequent proofs with one quantified cut.

Proof trees are built from a handful of node kinds: oracle-certified
quantifier-free leaves, weak quantifier blocks (∀ left / ∃ right on a
whole prefix at once), a strong ∀-right block with eigenvariables, cut,
contraction, and weakening.  ``build_proof_with_cut`` assembles the
standard two-branch shape around a solution of a schematic extended
Herbrand sequent; ``check_proof`` re-verifies every inference from
scratch, consulting the validity oracle only at the leaves.

Sides of a sequent are compared as multisets throughout: the inference
rules never depend on formula order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Union

from .cutformula import SchematicEHS, _subst_for_row
from .euf import Oracle, Verdict
from .formulas import (
    Formula,
    QuantBlock,
    apply_subst,
    formula_vars,
    is_quantifier_free,
    render_formula,
    symbols,
)
from .sequents import Sequent
from .serialize import (
    formula_from_json,
    formula_to_json,
    sequent_from_json,
    sequent_to_json,
    term_from_json,
    term_to_json,
)
from .terms import Var, alpha, render_term, tuple_key


class ProofBuildError(Exception):
    """The solution cannot be assembled into a checkable proof."""


class ProofCheckError(Exception):
    """An inference failed; the message locates the first failure."""


@dataclass(frozen=True)
class OracleLeaf:
    conclusion: Sequent


@dataclass(frozen=True)
class ForallLeftBlock:
    premise: "Proof"
    conclusion: Sequent
    quantified: Formula  # the ∀-block formula appearing in the conclusion
    terms: tuple  # instantiation, one term per prefix variable


@dataclass(frozen=True)
class ExistsRightBlock:
    premise: "Proof"
    conclusion: Sequent
    quantified: Formula
    terms: tuple


@dataclass(frozen=True)
class ForallRightBlock:
    premise: "Proof"
    conclusion: Sequent
    quantified: Formula
    eigen: tuple  # variable names, fresh for the conclusion


@dataclass(frozen=True)
class CutNode:
    left: "Proof"
    right: "Proof"
    conclusion: Sequent
    cut_formula: Formula


@dataclass(frozen=True)
class ContractNode:
    premise: "Proof"
    conclusion: Sequent


@dataclass(frozen=True)
class WeakenNode:
    premise: "Proof"
    conclusion: Sequent


Proof = Union[
    OracleLeaf,
    ForallLeftBlock,
    ExistsRightBlock,
    ForallRightBlock,
    CutNode,
    ContractNode,
    WeakenNode,
]


# ---------------------------------------------------------------------------
# construction


def _fresh_bound_names(m: int, taken: set) -> tuple:
    for base in ("x", "y", "z", "v", "u"):
        names = tuple(f"{base}{i}" for i in range(1, m + 1))
        if not taken.intersection(names):
            return names
    suffix = "'"
    while True:
        names = tuple(f"x{i}{suffix}" for i in range(1, m + 1))
        if not taken.intersection(names):
            return names
        suffix += "'"


def _used_names(e: SchematicEHS, a: Formula) -> set:
    s = e.base
    quantified = (s.formula(i).to_formula("all") for i in range(1, s.q + 1))
    return {name for _, name, _ in symbols((a, *quantified))}


def build_proof_with_cut(
    e: SchematicEHS, a: Formula, oracle: Oracle
) -> Proof:
    """Assemble the proof of the base sequent with cut formula ∀x̄.A.

    Left branch: certify Γ' ⊢ Δ', A(ᾱ), fold every instantiated formula
    back onto its quantified original, then introduce the cut formula by
    a strong ∀ block on the schema variables.  Right branch: certify
    A(w̄₁), .., A(w̄_k) plus the prefix-free matrices, instantiate the
    cut formula once per vector, contract.  Cut and a final contraction
    yield the input sequent.  Both leaves are oracle-checked here; a
    failure raises ProofBuildError rather than returning an unsound
    tree.
    """
    s = e.base
    k = len(e.w)
    m = e.arity
    if k == 0:
        raise ProofBuildError("decomposition has no instantiation vectors")
    names = _fresh_bound_names(m, _used_names(e, a))
    cut_formula = QuantBlock(
        "all",
        names,
        apply_subst(a, {alpha(i + 1).name: Var(names[i]) for i in range(m)}),
    )
    base_ante = tuple(s.formula(i).to_formula("all") for i in range(1, s.p + 1))
    base_succ = tuple(
        s.formula(i).to_formula("ex") for i in range(s.p + 1, s.q + 1)
    )

    # ---- left branch -----------------------------------------------------
    left_leaf_seq = Sequent(e.gamma, e.delta + (a,))
    verdict = oracle.validity(left_leaf_seq)
    if verdict is not Verdict.VALID:
        raise ProofBuildError(
            f"left leaf is not certified ({verdict.value}): "
            f"{left_leaf_seq.render()}"
        )
    proof: Proof = OracleLeaf(left_leaf_seq)
    ante = list(e.gamma)
    succ = list(e.delta) + [a]

    pos = 0
    for i in range(1, s.q + 1):
        pf = s.formula(i)
        side, block = (
            (ante, ForallLeftBlock) if i <= s.p else (succ, ExistsRightBlock)
        )
        if i == s.p + 1:
            pos = 0
        if pf.k == 0:
            pos += 1
            continue
        quantified = pf.to_formula("all" if i <= s.p else "ex")
        for tup in sorted(e.u.instances[i - 1], key=tuple_key):
            side[pos] = quantified
            conclusion = Sequent(tuple(ante), tuple(succ))
            proof = block(
                premise=proof,
                conclusion=conclusion,
                quantified=quantified,
                terms=tup,
            )
            pos += 1

    succ[-1] = cut_formula
    proof = ForallRightBlock(
        premise=proof,
        conclusion=Sequent(tuple(ante), tuple(succ)),
        quantified=cut_formula,
        eigen=tuple(alpha(i + 1).name for i in range(m)),
    )
    missing_ante = [
        f for f in base_ante if f not in ante
    ]
    missing_succ = [f for f in base_succ if f not in succ]
    if missing_ante or missing_succ:
        ante += missing_ante
        succ = succ[:-1] + missing_succ + [cut_formula]
        proof = WeakenNode(
            premise=proof, conclusion=Sequent(tuple(ante), tuple(succ))
        )
    left = proof

    # ---- right branch ----------------------------------------------------
    steps = [apply_subst(a, _subst_for_row(row)) for row in e.w]
    zero_ante = [
        s.formula(i).matrix for i in range(1, s.p + 1) if s.k(i) == 0
    ]
    zero_succ = [
        s.formula(i).matrix
        for i in range(s.p + 1, s.q + 1)
        if s.k(i) == 0
    ]
    right_leaf_seq = Sequent(tuple(steps) + tuple(zero_ante), tuple(zero_succ))
    verdict = oracle.validity(right_leaf_seq)
    if verdict is not Verdict.VALID:
        raise ProofBuildError(
            f"right leaf is not certified ({verdict.value}) — the solution "
            f"does not support the instantiated cut: {right_leaf_seq.render()}"
        )
    proof = OracleLeaf(right_leaf_seq)
    ante = list(steps) + list(zero_ante)
    succ = list(zero_succ)
    for j, row in enumerate(e.w):
        ante[j] = cut_formula
        proof = ForallLeftBlock(
            premise=proof,
            conclusion=Sequent(tuple(ante), tuple(succ)),
            quantified=cut_formula,
            terms=tuple(row),
        )
    if k > 1:
        ante = [cut_formula] + ante[k:]
        proof = ContractNode(
            premise=proof, conclusion=Sequent(tuple(ante), tuple(succ))
        )
    weak_ante = [f for f in base_ante if f not in ante]
    weak_succ = [f for f in base_succ if f not in succ]
    if weak_ante or weak_succ:
        ante += weak_ante
        succ += weak_succ
        proof = WeakenNode(
            premise=proof, conclusion=Sequent(tuple(ante), tuple(succ))
        )
    right = proof

    # ---- cut and final contraction ---------------------------------------
    l_ante = list(left.conclusion.ante)
    l_succ = list(left.conclusion.succ)
    r_ante = list(right.conclusion.ante)
    r_succ = list(right.conclusion.succ)
    l_succ.remove(cut_formula)
    r_ante.remove(cut_formula)
    cut = CutNode(
        left=left,
        right=right,
        conclusion=Sequent(tuple(l_ante + r_ante), tuple(l_succ + r_succ)),
        cut_formula=cut_formula,
    )
    return ContractNode(
        premise=cut, conclusion=Sequent(base_ante, base_succ)
    )


# ---------------------------------------------------------------------------
# checking


def _check(node: Proof, oracle: Oracle, path: str) -> None:
    if isinstance(node, OracleLeaf):
        for f in tuple(node.conclusion.ante) + tuple(node.conclusion.succ):
            if not is_quantifier_free(f):
                raise ProofCheckError(
                    f"{path}: leaf contains a quantifier: {render_formula(f)}"
                )
        v = oracle.validity(node.conclusion)
        if v is Verdict.INVALID:
            raise ProofCheckError(
                f"{path}: leaf is not valid: {node.conclusion.render()}"
            )
        if v is Verdict.UNKNOWN:
            raise ProofCheckError(
                f"{path}: leaf could not be certified: "
                f"{node.conclusion.render()}"
            )
        return

    if isinstance(node, (ForallLeftBlock, ExistsRightBlock)):
        _check(node.premise, oracle, path + ".premise")
        q = node.quantified
        want_kind = "all" if isinstance(node, ForallLeftBlock) else "ex"
        if not isinstance(q, QuantBlock) or q.kind != want_kind:
            raise ProofCheckError(
                f"{path}: {render_formula(q)} is not a "
                f"{'∀' if want_kind == 'all' else '∃'} block"
            )
        if len(q.vars) != len(node.terms):
            raise ProofCheckError(
                f"{path}: block instantiates {len(q.vars)} variables "
                f"with {len(node.terms)} terms"
            )
        instance = apply_subst(q.body, dict(zip(q.vars, node.terms)))
        p, c = node.premise.conclusion, node.conclusion
        if isinstance(node, ForallLeftBlock):
            changed, same = (p.ante, c.ante), (p.succ, c.succ)
        else:
            changed, same = (p.succ, c.succ), (p.ante, c.ante)
        if Counter(same[0]) != Counter(same[1]):
            raise ProofCheckError(f"{path}: passive side changed")
        before, after = Counter(changed[0]), Counter(changed[1])
        if before[instance] < 1:
            raise ProofCheckError(
                f"{path}: premise lacks instance {render_formula(instance)}"
            )
        before[instance] -= 1
        before[q] += 1
        if before != after:
            raise ProofCheckError(
                f"{path}: conclusion does not replace the instance by "
                f"{render_formula(q)}"
            )
        return

    if isinstance(node, ForallRightBlock):
        _check(node.premise, oracle, path + ".premise")
        q = node.quantified
        if not isinstance(q, QuantBlock) or q.kind != "all":
            raise ProofCheckError(
                f"{path}: {render_formula(q)} is not a ∀ block"
            )
        if len(set(node.eigen)) != len(node.eigen) or len(node.eigen) != len(
            q.vars
        ):
            raise ProofCheckError(f"{path}: malformed eigenvariable list")
        for f in tuple(node.conclusion.ante) + tuple(node.conclusion.succ):
            free = {v.name for v in formula_vars(f)}
            stale = free.intersection(node.eigen)
            if stale:
                raise ProofCheckError(
                    f"{path}: eigenvariable {sorted(stale)[0]} occurs in "
                    f"the conclusion"
                )
        instance = apply_subst(
            q.body, {x: Var(y) for x, y in zip(q.vars, node.eigen)}
        )
        p, c = node.premise.conclusion, node.conclusion
        if Counter(p.ante) != Counter(c.ante):
            raise ProofCheckError(f"{path}: antecedent changed")
        before, after = Counter(p.succ), Counter(c.succ)
        if before[instance] < 1:
            raise ProofCheckError(
                f"{path}: premise lacks instance {render_formula(instance)}"
            )
        before[instance] -= 1
        before[q] += 1
        if before != after:
            raise ProofCheckError(
                f"{path}: conclusion does not generalize the instance"
            )
        return

    if isinstance(node, CutNode):
        _check(node.left, oracle, path + ".left")
        _check(node.right, oracle, path + ".right")
        cf = node.cut_formula
        l, r, c = node.left.conclusion, node.right.conclusion, node.conclusion
        ls, ra = Counter(l.succ), Counter(r.ante)
        if ls[cf] < 1:
            raise ProofCheckError(
                f"{path}: cut formula missing from the left succedent"
            )
        if ra[cf] < 1:
            raise ProofCheckError(
                f"{path}: cut formula missing from the right antecedent"
            )
        ls[cf] -= 1
        ra[cf] -= 1
        if Counter(c.ante) != Counter(l.ante) + ra:
            raise ProofCheckError(f"{path}: antecedents do not join")
        if Counter(c.succ) != ls + Counter(r.succ):
            raise ProofCheckError(f"{path}: succedents do not join")
        return

    if isinstance(node, ContractNode):
        _check(node.premise, oracle, path + ".premise")
        p, c = node.premise.conclusion, node.conclusion
        for pside, cside, label in (
            (p.ante, c.ante, "antecedent"),
            (p.succ, c.succ, "succedent"),
        ):
            pc, cc = Counter(pside), Counter(cside)
            if set(pc) != set(cc):
                raise ProofCheckError(
                    f"{path}: contraction changes the {label} support"
                )
            if any(cc[f] > pc[f] for f in cc):
                raise ProofCheckError(
                    f"{path}: contraction increases a {label} count"
                )
        return

    if isinstance(node, WeakenNode):
        _check(node.premise, oracle, path + ".premise")
        p, c = node.premise.conclusion, node.conclusion
        for pside, cside, label in (
            (p.ante, c.ante, "antecedent"),
            (p.succ, c.succ, "succedent"),
        ):
            pc, cc = Counter(pside), Counter(cside)
            if any(pc[f] > cc[f] for f in pc):
                raise ProofCheckError(
                    f"{path}: weakening drops a {label} formula"
                )
        return

    raise ProofCheckError(f"{path}: unknown node {type(node).__name__}")


def check_proof(p: Proof, oracle: Oracle) -> bool:
    ok, _ = check_proof_report(p, oracle)
    return ok


def check_proof_report(p: Proof, oracle: Oracle) -> tuple[bool, str]:
    """(True, "ok") or (False, message locating the first bad inference)."""
    try:
        _check(p, oracle, "root")
    except ProofCheckError as err:
        return False, str(err)
    return True, "ok"


def metrics(p: Proof) -> dict:
    """Proof length (inference count) and quantifier complexity.

    ``comq`` counts the weak quantifier-block inferences (∀ left and
    ∃ right); it is the standard size measure for proofs with cut.
    """
    length = 0
    comq = 0
    stack = [p]
    while stack:
        node = stack.pop()
        length += 1
        if isinstance(node, (ForallLeftBlock, ExistsRightBlock)):
            comq += 1
        if isinstance(node, CutNode):
            stack.append(node.left)
            stack.append(node.right)
        elif not isinstance(node, OracleLeaf):
            stack.append(node.premise)
    return {"length": length, "comq": comq}


# ---------------------------------------------------------------------------
# rendering and serialization


_RULE_NAMES = {
    OracleLeaf: "oracle",
    ForallLeftBlock: "forall_l",
    ExistsRightBlock: "exists_r",
    ForallRightBlock: "forall_r",
    CutNode: "cut",
    ContractNode: "contract",
    WeakenNode: "weaken",
}


def render_proof(p: Proof) -> str:
    lines: list[str] = []

    def go(node: Proof, depth: int) -> None:
        pad = "  " * depth
        name = _RULE_NAMES[type(node)]
        extra = ""
        if isinstance(node, (ForallLeftBlock, ExistsRightBlock)):
            extra = " [" + ", ".join(render_term(t) for t in node.terms) + "]"
        elif isinstance(node, ForallRightBlock):
            extra = " [" + ", ".join(node.eigen) + "]"
        elif isinstance(node, CutNode):
            extra = " on " + render_formula(node.cut_formula)
        lines.append(f"{pad}{name}{extra}: {node.conclusion.render()}")
        if isinstance(node, CutNode):
            go(node.left, depth + 1)
            go(node.right, depth + 1)
        elif not isinstance(node, OracleLeaf):
            go(node.premise, depth + 1)

    go(p, 0)
    return "\n".join(lines)


def proof_to_json(p: Proof) -> Any:
    """The proof as plain dicts and lists, as ``proof.json`` holds it.

    Each distinct formula object becomes one dict, shared wherever the
    formula occurs (a node's conclusion mostly repeats its premise's
    formulas), so the result is read-only: mutating one formula's dict
    changes every place it appears.
    """
    # id -> (formula, dict): holding the formula keeps its id unique
    # for the length of the call.
    memo: dict[int, tuple[Formula, Any]] = {}

    def formula(f: Formula) -> Any:
        hit = memo.get(id(f))
        if hit is None:
            hit = memo[id(f)] = (f, formula_to_json(f))
        return hit[1]

    def node(p: Proof) -> dict:
        d: dict = {
            "rule": _RULE_NAMES[type(p)],
            "conclusion": sequent_to_json(p.conclusion, formula),
        }
        if isinstance(p, (ForallLeftBlock, ExistsRightBlock)):
            d["quantified"] = formula(p.quantified)
            d["terms"] = [term_to_json(t) for t in p.terms]
            d["premise"] = node(p.premise)
        elif isinstance(p, ForallRightBlock):
            d["quantified"] = formula(p.quantified)
            d["eigen"] = list(p.eigen)
            d["premise"] = node(p.premise)
        elif isinstance(p, CutNode):
            d["cut_formula"] = formula(p.cut_formula)
            d["left"] = node(p.left)
            d["right"] = node(p.right)
        elif isinstance(p, (ContractNode, WeakenNode)):
            d["premise"] = node(p.premise)
        return d

    return node(p)


def proof_from_json(d: Any) -> Proof:
    if not isinstance(d, dict) or "rule" not in d:
        raise ValueError(f"bad proof encoding: {d!r}")
    rule = d["rule"]
    conclusion = sequent_from_json(d["conclusion"])
    if rule == "oracle":
        return OracleLeaf(conclusion)
    if rule in ("forall_l", "exists_r"):
        cls = ForallLeftBlock if rule == "forall_l" else ExistsRightBlock
        return cls(
            premise=proof_from_json(d["premise"]),
            conclusion=conclusion,
            quantified=formula_from_json(d["quantified"]),
            terms=tuple(term_from_json(t) for t in d["terms"]),
        )
    if rule == "forall_r":
        return ForallRightBlock(
            premise=proof_from_json(d["premise"]),
            conclusion=conclusion,
            quantified=formula_from_json(d["quantified"]),
            eigen=tuple(d["eigen"]),
        )
    if rule == "cut":
        return CutNode(
            left=proof_from_json(d["left"]),
            right=proof_from_json(d["right"]),
            conclusion=conclusion,
            cut_formula=formula_from_json(d["cut_formula"]),
        )
    if rule == "contract":
        return ContractNode(proof_from_json(d["premise"]), conclusion)
    if rule == "weaken":
        return WeakenNode(proof_from_json(d["premise"]), conclusion)
    raise ValueError(f"unknown proof rule: {rule!r}")

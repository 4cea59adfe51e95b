"""Sequent proofs with one quantified cut.

A proof is a tree of ``Inference`` records, one record type for every
rule: the rule's name, its conclusion, its premises, the formula it
introduces and a quantifier block's terms.  ``_RULES`` states each rule
once: the names of its premises, and for the three quantifier-block
rules the quantifier and the sequent side the block acts on.  A block
replaces one instance of its quantified formula by the formula itself:
∀ left and ∃ right instantiate a whole prefix with terms (the weak
blocks, whose count is ``comq``), ∀ right with eigenvariables, which
must not occur free in its conclusion.  The other rules are the
oracle-certified quantifier-free leaf, cut, contraction and weakening.

``build_proof_with_cut`` assembles the standard two-branch shape around
a solution of a schematic extended Herbrand sequent;
``check_proof_report`` re-verifies every inference from scratch,
consulting the validity oracle only at the leaves, and names the first
bad inference.  ``proof_to_json`` writes ``proof.json``, a flat table,
and ``proof_from_json`` reads it.  Writing, reading and checking keep
their own stacks, so a proof may have any number of steps.

Sides of a sequent are compared as multisets throughout: the inference
rules never depend on formula order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from typing import Any, NamedTuple, Optional

from .cutformula import SchematicEHS
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
from .sequents import Sequent, prefix
from .serialize import (
    entries_from_json,
    index_from_json,
    names_from_json,
    node_from_json,
    node_to_json,
    slot_from_json,
    slots_from_json,
    tree_size,
)
from .terms import Var, alpha, alpha_subst, render_term, tuple_key


class ProofBuildError(Exception):
    """The solution cannot be assembled into a checkable proof."""


class ProofCheckError(Exception):
    """An inference failed; the message locates the first failure."""


class _Rule(NamedTuple):
    premises: tuple  # premise names: proof.json keys and check-path steps
    formula: str = ""  # proof.json key of the introduced formula, if any
    kind: str = ""  # a block's quantifier, "all" or "ex"
    side: str = ""  # the Sequent field a block acts on, "ante" or "succ"


_RULES = {
    "oracle": _Rule(()),
    "forall_l": _Rule(("premise",), "quantified", "all", "ante"),
    "exists_r": _Rule(("premise",), "quantified", "ex", "succ"),
    "forall_r": _Rule(("premise",), "quantified", "all", "succ"),
    "cut": _Rule(("left", "right"), "cut_formula"),
    "contract": _Rule(("premise",)),
    "weaken": _Rule(("premise",)),
}


@dataclass(frozen=True)
class Inference:
    """One inference and, through its premises, the proof above it."""

    rule: str  # a key of _RULES, as proof.json names it
    conclusion: Sequent
    premises: tuple = ()  # one per name of the rule's premises, in order
    formula: Optional[Formula] = None  # a block's formula, or the cut formula
    terms: tuple = ()  # a block's terms; for forall_r its eigenvariables (Var)


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
    return {name for _, name, _ in symbols((a, *e.base.ante, *e.base.succ))}


def _leaf(seq: Sequent, oracle: Oracle, failure: str) -> Inference:
    """An oracle leaf; ``failure`` formats the verdict and the sequent."""
    verdict = oracle.validity(seq)
    if verdict is not Verdict.VALID:
        raise ProofBuildError(failure.format(verdict.value, seq.render()))
    return Inference("oracle", seq)


def _block(
    premise: Inference, rule: str, formula: Formula, terms: tuple, pos: int
) -> Inference:
    """The block rule replacing the instance at ``pos`` of its side of the
    premise's conclusion by ``formula``."""
    side = _RULES[rule].side
    formulas = list(getattr(premise.conclusion, side))
    formulas[pos] = formula
    conclusion = replace(premise.conclusion, **{side: tuple(formulas)})
    return Inference(rule, conclusion, (premise,), formula, tuple(terms))


def _weaken(
    p: Inference, ante: tuple, succ: tuple, keep_last: int = 0
) -> Inference:
    """Weaken by the formulas of ante ⊢ succ that p's conclusion lacks,
    appended to each side; the last ``keep_last`` succedent formulas stay
    last."""
    c = p.conclusion
    more_ante = tuple(f for f in ante if f not in c.ante)
    more_succ = tuple(f for f in succ if f not in c.succ)
    if not more_ante and not more_succ:
        return p
    at = len(c.succ) - keep_last
    return Inference(
        "weaken",
        Sequent(c.ante + more_ante, c.succ[:at] + more_succ + c.succ[at:]),
        (p,),
    )


def build_proof_with_cut(
    e: SchematicEHS, a: Formula, oracle: Oracle
) -> Inference:
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
        "all", names, apply_subst(a, alpha_subst([Var(x) for x in names]))
    )

    # ---- left branch -----------------------------------------------------
    proof = _leaf(
        Sequent(e.gamma, e.delta + (a,)),
        oracle,
        "left leaf is not certified ({}): {}",
    )
    pos = 0
    for i in range(1, s.q + 1):
        if i == s.p + 1:
            pos = 0
        if s.k(i) == 0:
            pos += 1
            continue
        rule = "forall_l" if i <= s.p else "exists_r"
        for tup in sorted(e.u.instances[i - 1], key=tuple_key):
            proof = _block(proof, rule, s.formula(i), tup, pos)
            pos += 1
    eigen = tuple(alpha(i + 1) for i in range(m))
    proof = _block(proof, "forall_r", cut_formula, eigen, len(e.delta))
    left = _weaken(proof, s.ante, s.succ, keep_last=1)

    # ---- right branch ----------------------------------------------------
    steps = tuple(apply_subst(a, alpha_subst(row)) for row in e.w)
    zero_ante = tuple(f for f in s.ante if not prefix(f)[0])
    zero_succ = tuple(f for f in s.succ if not prefix(f)[0])
    proof = _leaf(
        Sequent(steps + zero_ante, zero_succ),
        oracle,
        "right leaf is not certified ({}) — the solution does not support "
        "the instantiated cut: {}",
    )
    for j, row in enumerate(e.w):
        proof = _block(proof, "forall_l", cut_formula, row, j)
    if k > 1:
        c = proof.conclusion
        proof = Inference(
            "contract", Sequent((cut_formula,) + c.ante[k:], c.succ), (proof,)
        )
    right = _weaken(proof, s.ante, s.succ)

    # ---- cut and final contraction ---------------------------------------
    l_succ = list(left.conclusion.succ)
    r_ante = list(right.conclusion.ante)
    l_succ.remove(cut_formula)
    r_ante.remove(cut_formula)
    cut = Inference(
        "cut",
        Sequent(
            left.conclusion.ante + tuple(r_ante),
            tuple(l_succ) + right.conclusion.succ,
        ),
        (left, right),
        cut_formula,
    )
    return Inference("contract", s, (cut,))


# ---------------------------------------------------------------------------
# checking


def _check(root: Inference, oracle: Oracle) -> None:
    """Check every inference, each after its premises in rule order; the
    first failure raises, located by its path from the root."""
    # (inference, its premise name, premises checked?): the checked ones
    # on the stack are the ancestors of the inference at hand.
    stack: list = [(root, "root", False)]
    while stack:
        node, name, ready = stack.pop()
        try:
            if ready:
                _check_inference(node, oracle)
                continue
            rule = _RULES.get(node.rule)
            if rule is None:
                raise ProofCheckError(f"unknown rule {node.rule!r}")
            if len(node.premises) != len(rule.premises):
                raise ProofCheckError(
                    f"{node.rule} takes {len(rule.premises)} premises, "
                    f"not {len(node.premises)}"
                )
        except ProofCheckError as err:
            path = [n for _, n, up in stack if up] + [name]
            raise ProofCheckError(f"{'.'.join(path)}: {err}") from None
        stack.append((node, name, True))
        named = tuple(zip(rule.premises, node.premises))
        stack.extend((q, n, False) for n, q in reversed(named))


def _check_inference(node: Inference, oracle: Oracle) -> None:
    """Check one inference whose premises are well formed."""
    rule = _RULES[node.rule]
    c = node.conclusion

    if node.rule == "oracle":
        for f in tuple(c.ante) + tuple(c.succ):
            if not is_quantifier_free(f):
                raise ProofCheckError(
                    f"leaf contains a quantifier: {render_formula(f)}"
                )
        v = oracle.validity(c)
        if v is Verdict.INVALID:
            raise ProofCheckError(f"leaf is not valid: {c.render()}")
        if v is Verdict.UNKNOWN:
            raise ProofCheckError(f"leaf could not be certified: {c.render()}")
        return

    if rule.kind:
        q = node.formula
        if not isinstance(q, QuantBlock) or q.kind != rule.kind:
            block = f"{'∀' if rule.kind == 'all' else '∃'} block"
            if q is None:
                raise ProofCheckError(f"{node.rule} names no {block}")
            raise ProofCheckError(
                f"{node.rule}: {render_formula(q)} is not a {block}"
            )
        if len(q.vars) != len(node.terms):
            raise ProofCheckError(
                f"block instantiates {len(q.vars)} variables "
                f"with {len(node.terms)} terms"
            )
        if node.rule == "forall_r":
            eigen = {t.name for t in node.terms if isinstance(t, Var)}
            if len(eigen) != len(node.terms):
                raise ProofCheckError("malformed eigenvariable list")
            for f in tuple(c.ante) + tuple(c.succ):
                stale = formula_vars(f) & eigen
                if stale:
                    raise ProofCheckError(
                        f"eigenvariable {min(stale)} occurs in the conclusion"
                    )
        try:
            instance = apply_subst(q.body, dict(zip(q.vars, node.terms)))
        except ValueError as err:  # a term would be captured
            raise ProofCheckError(str(err)) from None
        p = node.premises[0].conclusion
        passive = "succ" if rule.side == "ante" else "ante"
        if Counter(getattr(p, passive)) != Counter(getattr(c, passive)):
            raise ProofCheckError("passive side changed")
        before = Counter(getattr(p, rule.side))
        if before[instance] < 1:
            raise ProofCheckError(
                f"premise lacks instance {render_formula(instance)}"
            )
        before[instance] -= 1
        before[q] += 1
        if before != Counter(getattr(c, rule.side)):
            raise ProofCheckError(
                "conclusion does not replace the instance by "
                f"{render_formula(q)}"
            )
        return

    if node.rule == "cut":
        cf = node.formula
        l, r = node.premises[0].conclusion, node.premises[1].conclusion
        ls, ra = Counter(l.succ), Counter(r.ante)
        if ls[cf] < 1:
            raise ProofCheckError(
                "cut formula missing from the left succedent"
            )
        if ra[cf] < 1:
            raise ProofCheckError(
                "cut formula missing from the right antecedent"
            )
        ls[cf] -= 1
        ra[cf] -= 1
        if Counter(c.ante) != Counter(l.ante) + ra:
            raise ProofCheckError("antecedents do not join")
        if Counter(c.succ) != ls + Counter(r.succ):
            raise ProofCheckError("succedents do not join")
        return

    p = node.premises[0].conclusion
    for pside, cside, label in (
        (p.ante, c.ante, "antecedent"),
        (p.succ, c.succ, "succedent"),
    ):
        pc, cc = Counter(pside), Counter(cside)
        if node.rule == "weaken":
            if any(pc[f] > cc[f] for f in pc):
                raise ProofCheckError(f"weakening drops a {label} formula")
        elif set(pc) != set(cc):
            raise ProofCheckError(f"contraction changes the {label} support")
        elif any(cc[f] > pc[f] for f in cc):
            raise ProofCheckError(f"contraction increases a {label} count")


def check_proof_report(p: Inference, oracle: Oracle) -> tuple[bool, str]:
    """(True, "ok") or (False, message locating the first bad inference)."""
    try:
        _check(p, oracle)
    except ProofCheckError as err:
        return False, str(err)
    return True, "ok"


def metrics(p: Inference) -> dict:
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
        if node.rule in ("forall_l", "exists_r"):
            comq += 1
        stack.extend(node.premises)
    return {"length": length, "comq": comq}


# ---------------------------------------------------------------------------
# rendering and serialization


def render_proof(p: Inference) -> str:
    """One line per step in pre-order, indented two spaces per level.

    Each distinct formula is rendered once per call: formulas are
    hash-consed, and consecutive steps share most of theirs."""
    text = cache(render_formula)
    lines: list[str] = []
    stack = [(p, 0)]
    while stack:
        node, depth = stack.pop()
        extra = ""
        if _RULES[node.rule].kind:
            extra = " [" + ", ".join(render_term(t) for t in node.terms) + "]"
        elif node.rule == "cut":
            extra = " on " + text(node.formula)
        lines.append(
            f"{'  ' * depth}{node.rule}{extra}: {node.conclusion.render(text)}"
        )
        stack.extend((q, depth + 1) for q in reversed(node.premises))
    return "\n".join(lines)


def proof_to_json(p: Inference) -> Any:
    """The proof as ``proof.json`` holds it: ``nodes``, the node table of
    its formulas and terms (``serialize``), and ``proof``, its steps in
    post-order, so the root is last.  A step has the keys that name the
    rule and its parts in ``_RULES``, with node indexes for formulas and
    terms and the indexes of earlier steps for premises."""
    order, stack = [], [p]  # the steps in reverse post-order
    while stack:
        order.append(stack.pop())
        stack.extend(order[-1].premises)
    index: dict = {}
    nodes: list = []
    steps: list = []
    done: list = []  # the indexes of the steps no step names yet
    for inf in reversed(order):
        rule = _RULES[inf.rule]
        ante, succ = (
            [node_to_json(f, index, nodes) for f in side]
            for side in (inf.conclusion.ante, inf.conclusion.succ)
        )
        d = {"rule": inf.rule, "conclusion": {"ante": ante, "succ": succ}}
        if rule.formula:
            d[rule.formula] = node_to_json(inf.formula, index, nodes)
        if inf.rule == "forall_r":
            d["eigen"] = [t.name for t in inf.terms]
        elif rule.kind:
            d["terms"] = [node_to_json(t, index, nodes) for t in inf.terms]
        if rule.premises:
            n = len(rule.premises)
            d.update(zip(rule.premises, done[-n:]))
            del done[-n:]
        done.append(len(steps))
        steps.append(d)
    return {"nodes": nodes, "proof": steps}


# The most term and formula nodes a proof.json may hold once each step's
# formulas and terms are written out as trees, as the nested format of
# earlier versions wrote them.  The checker walks those trees, and a
# table of n entries, each naming the one before twice, holds a formula
# of 2^n nodes.
MAX_TREE_NODES = 10**7


def proof_from_json(d: Any) -> Inference:
    """The proof a ``proof.json`` holds: the table ``proof_to_json``
    writes, or the nested object of earlier versions, read as one inline
    root step.  Each step of a table but the root must be the premise of
    exactly one later step."""
    if not isinstance(d, dict):
        raise ValueError(f"bad proof encoding: {type(d).__name__}")
    if "rule" in d:
        return _StepReader([]).step(d, [])
    reader = _StepReader(
        entries_from_json(d.get("nodes"), "nodes", node_from_json)
    )
    steps = entries_from_json(d.get("proof"), "proof", reader.step)
    if not steps:
        raise ValueError("the proof has no steps")
    for i in range(len(steps) - 1):
        if i not in reader.used:
            raise ValueError(f"proof[{i}]: a premise of no later step")
    return steps[-1]


class _StepReader:
    """Reads the steps of one ``proof.json`` over its node table.  The
    state is on the reader, not in a closure, so reading leaves no
    reference cycle behind."""

    def __init__(self, nodes: list) -> None:
        self.nodes = nodes
        self.used: set = set()  # the steps already named as premises
        self.sizes: dict = {}
        self.total = 0

    def step(self, e: Any, steps: list) -> Inference:
        """One step or inline step, over the steps read so far."""
        if not isinstance(e, dict):
            raise ValueError(f"bad proof step: {type(e).__name__}")
        name = e.get("rule")
        rule = _RULES.get(name) if isinstance(name, str) else None
        if rule is None:
            raise ValueError(f"unknown proof rule: {name!r}")
        nodes, used = self.nodes, self.used
        c = e["conclusion"]
        ante = slots_from_json(c["ante"], nodes, False)
        succ = slots_from_json(c["succ"], nodes, False)
        premises = []
        for key in rule.premises:
            x = e[key]
            if isinstance(x, dict):
                premises.append(self.step(x, steps))
                continue
            i = index_from_json(x, len(steps))
            if i in used:
                raise ValueError(f"step {i} is a premise twice")
            used.add(i)
            premises.append(steps[i])
        formula = None
        if rule.formula:
            formula = slot_from_json(e[rule.formula], nodes, False)
        if name == "forall_r":
            terms = tuple(Var(x) for x in names_from_json(e["eigen"]))
        elif rule.kind:
            terms = slots_from_json(e["terms"], nodes, True)
        else:
            terms = ()
        for f in (*ante, *succ, *terms, formula):
            if f is not None:
                self.total += tree_size(f, self.sizes)
        if self.total > MAX_TREE_NODES:
            raise ValueError(
                f"the formulas and terms written out as trees pass "
                f"{MAX_TREE_NODES} nodes"
            )
        conclusion = Sequent(ante, succ)
        return Inference(name, conclusion, tuple(premises), formula, terms)

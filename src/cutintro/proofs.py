"""Sequent proofs with one quantified cut.

A proof is the tuple of its steps in post-order, root last, as the
``proof`` table of ``proof.json`` lists them.  A step is an
``Inference``, one record type for every rule: the rule's name, its
conclusion, its premises (indexes of earlier steps), the formula it
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
``check_proof_report`` re-verifies every step from scratch, consulting
the validity oracle only at the leaves, and names the first bad one.
``proof_to_json`` writes ``proof.json`` and ``proof_from_json`` reads
it.  Each is a loop over the steps, so a proof may have any number.

Sides of a sequent are compared as multisets throughout: the inference
rules never depend on formula order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import cache
from typing import Any, NamedTuple, Optional

from .cutformula import SchematicEHS
from .euf import Oracle, Verdict
from .formulas import (
    Formula,
    QuantBlock,
    apply_subst,
    formula_vars,
    render_formula,
    symbols,
)
from .herbrand import instance_tuples
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
from .terms import Var, alpha, alpha_subst, render_term


class ProofBuildError(Exception):
    """The solution cannot be assembled into a checkable proof."""


class ProofCheckError(Exception):
    """An inference failed; the message locates the first failure."""


# A failure message renders a formula or sequent only while it has at
# most this many term and formula nodes written out as a tree: a table
# of n entries, each naming the one before twice, holds a formula of
# 2^n nodes, whose rendering no message should carry.
_SHOWN_NODES = 100


def _shown(x) -> str:
    """``x``, a sequent or a formula, as a failure message gives it: its
    rendering while it is small, else its node count.  ``tree_size``
    visits each node once, so a large ``x`` is never walked as a tree."""
    seq = isinstance(x, Sequent)
    sizes: dict = {}
    n = sum(tree_size(f, sizes) for f in ((*x.ante, *x.succ) if seq else (x,)))
    if n > _SHOWN_NODES:
        return f"a {'sequent' if seq else 'formula'} of {n} nodes"
    return x.render() if seq else render_formula(x)


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


class Inference(NamedTuple):
    """One step of a proof."""

    rule: str  # a key of _RULES, as proof.json names it
    conclusion: Sequent
    premises: tuple = ()  # indexes of earlier steps, in _RULES order
    formula: Optional[Formula] = None  # a block's formula, or the cut formula
    terms: tuple = ()  # a block's terms; for forall_r its eigenvariables (Var)


def _rule(name: Any) -> _Rule:
    rule = _RULES.get(name) if isinstance(name, str) else None
    if rule is None:
        raise ValueError(f"unknown proof rule: {name!r}")
    return rule


def _shape(proof: tuple) -> None:
    """Raise ValueError, naming the first bad step as ``proof[i]``,
    unless the steps form one tree in post-order: each rule is known and
    has its number of premises, each premise is an earlier step that no
    other step names, and every step but the last is named."""
    if not proof:
        raise ValueError("the proof has no steps")
    named: set = set()
    for i, step in enumerate(proof):
        try:
            rule = _rule(step.rule)
            if len(step.premises) != len(rule.premises):
                raise ValueError(
                    f"{step.rule} takes {len(rule.premises)} premises, "
                    f"not {len(step.premises)}"
                )
            for j in step.premises:
                if index_from_json(j, i) in named:
                    raise ValueError(f"step {j} is a premise twice")
                named.add(j)
        except ValueError as err:
            raise ValueError(f"proof[{i}]: {err}") from None
    for i in range(len(proof) - 1):
        if i not in named:
            raise ValueError(f"proof[{i}]: a premise of no later step")


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


def _leaf(steps: list, seq: Sequent, oracle: Oracle, failure: str) -> None:
    """Append an oracle leaf; ``failure`` formats verdict and sequent."""
    verdict = oracle.validity(seq)
    if verdict is not Verdict.VALID:
        raise ProofBuildError(failure.format(verdict.value, _shown(seq)))
    steps.append(Inference("oracle", seq))


def _over_last(steps: list, rule: str, conclusion: Sequent, *parts) -> None:
    """Append a one-premise step whose premise is the last step."""
    steps.append(Inference(rule, conclusion, (len(steps) - 1,), *parts))


def _block(
    steps: list, rule: str, formula: Formula, terms: tuple, pos: int
) -> None:
    """Append the block rule replacing the instance at ``pos`` of its side
    of the last step's conclusion by ``formula``."""
    side = _RULES[rule].side
    c = steps[-1].conclusion
    formulas = list(getattr(c, side))
    formulas[pos] = formula
    conclusion = replace(c, **{side: tuple(formulas)})
    _over_last(steps, rule, conclusion, formula, tuple(terms))


def _weaken(steps: list, ante: tuple, succ: tuple, keep_last: int = 0) -> int:
    """Weaken the last step by the formulas of ante ⊢ succ its conclusion
    lacks, appended to each side; the last ``keep_last`` succedent
    formulas stay last.  Returns the index of the last step."""
    c = steps[-1].conclusion
    more_ante = tuple(f for f in ante if f not in c.ante)
    more_succ = tuple(f for f in succ if f not in c.succ)
    if more_ante or more_succ:
        at = len(c.succ) - keep_last
        succ = c.succ[:at] + more_succ + c.succ[at:]
        _over_last(steps, "weaken", Sequent(c.ante + more_ante, succ))
    return len(steps) - 1


def build_proof_with_cut(e: SchematicEHS, a: Formula, oracle: Oracle) -> tuple:
    """Assemble the proof of the base sequent with cut formula ∀x̄.A.

    Left branch: certify Γ' ⊢ Δ', A(ᾱ), fold every instantiated formula
    back onto its quantified original, then introduce the cut formula by
    a strong ∀ block on the schema variables.  Right branch: certify
    A(w̄₁), .., A(w̄_k) plus the prefix-free matrices, instantiate the
    cut formula once per vector, contract.  Cut and a final contraction
    yield the input sequent.  Both leaves are oracle-checked here; a
    failure raises ProofBuildError rather than returning an unsound
    proof.
    """
    s = e.base
    k = len(e.w)
    if k == 0:
        raise ProofBuildError("decomposition has no instantiation vectors")
    names = _fresh_bound_names(e.arity, _used_names(e, a))
    cut_formula = QuantBlock(
        "all", names, apply_subst(a, alpha_subst([Var(x) for x in names]))
    )
    steps: list = []

    # ---- left branch -----------------------------------------------------
    leaf = Sequent(e.gamma, e.delta + (a,))
    _leaf(steps, leaf, oracle, "left leaf is not certified ({}): {}")
    for rule, side in (
        ("forall_l", range(1, s.p + 1)),
        ("exists_r", range(s.p + 1, s.q + 1)),
    ):
        # Γ' and Δ' list each formula's instances in this order.
        slots = [(i, tup) for i in side for tup in instance_tuples(s, e.u, i)]
        for pos, (i, tup) in enumerate(slots):
            if tup:  # not the matrix of a formula without prefix
                _block(steps, rule, s.formula(i), tup, pos)
    eigen = tuple(alpha(i + 1) for i in range(e.arity))
    _block(steps, "forall_r", cut_formula, eigen, len(e.delta))
    left = _weaken(steps, s.ante, s.succ, keep_last=1)

    # ---- right branch ----------------------------------------------------
    instances = tuple(apply_subst(a, alpha_subst(row)) for row in e.w)
    zero_ante = tuple(f for f in s.ante if not prefix(f)[0])
    zero_succ = tuple(f for f in s.succ if not prefix(f)[0])
    _leaf(
        steps,
        Sequent(instances + zero_ante, zero_succ),
        oracle,
        "right leaf is not certified ({}) — the solution does not support "
        "the instantiated cut: {}",
    )
    for j, row in enumerate(e.w):
        _block(steps, "forall_l", cut_formula, row, j)
    if k > 1:
        c = steps[-1].conclusion
        contracted = Sequent((cut_formula,) + c.ante[k:], c.succ)
        _over_last(steps, "contract", contracted)
    right = _weaken(steps, s.ante, s.succ)

    # ---- cut and final contraction ---------------------------------------
    lc, rc = steps[left].conclusion, steps[right].conclusion
    l_succ, r_ante = list(lc.succ), list(rc.ante)
    l_succ.remove(cut_formula)
    r_ante.remove(cut_formula)
    cut = Sequent(lc.ante + tuple(r_ante), tuple(l_succ) + rc.succ)
    steps.append(Inference("cut", cut, (left, right), cut_formula))
    _over_last(steps, "contract", s)
    return tuple(steps)


# ---------------------------------------------------------------------------
# checking


def check_proof_report(proof: tuple, oracle: Oracle) -> tuple[bool, str]:
    """(True, "ok") or (False, message locating the first bad step); the
    steps are checked in table order, so each after its premises."""
    try:
        _shape(proof)
    except ValueError as err:
        return False, str(err)
    for i, step in enumerate(proof):
        try:
            _check_inference(proof, step, oracle)
        except ProofCheckError as err:
            return False, f"{_path(proof, i)}: {err}"
    return True, "ok"


def _path(proof: tuple, i: int) -> str:
    """Step i's path from the root, as ``root.left.premise``: one scan,
    as each step's ancestors follow it in the table."""
    names = []
    for k in range(i + 1, len(proof)):
        if i in proof[k].premises:
            rule = _RULES[proof[k].rule]
            names.append(rule.premises[proof[k].premises.index(i)])
            i = k
    return ".".join(["root", *reversed(names)])


def _check_inference(proof: tuple, node: Inference, oracle: Oracle) -> None:
    """Check one step of a proof of good shape."""
    rule = _RULES[node.rule]
    c = node.conclusion

    if node.rule == "oracle":
        try:
            v = oracle.validity(c)
        except ValueError as err:  # the clause form met a quantifier
            raise ProofCheckError(
                f"leaf contains a quantifier: {err}"
            ) from None
        if v is Verdict.INVALID:
            raise ProofCheckError(f"leaf is not valid: {_shown(c)}")
        if v is Verdict.UNKNOWN:
            raise ProofCheckError(f"leaf could not be certified: {_shown(c)}")
        return

    if rule.kind:
        q = node.formula
        if not isinstance(q, QuantBlock) or q.kind != rule.kind:
            block = f"{'∀' if rule.kind == 'all' else '∃'} block"
            if q is None:
                raise ProofCheckError(f"{node.rule} names no {block}")
            raise ProofCheckError(
                f"{node.rule}: {_shown(q)} is not a {block}"
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
        p = proof[node.premises[0]].conclusion
        passive = "succ" if rule.side == "ante" else "ante"
        if Counter(getattr(p, passive)) != Counter(getattr(c, passive)):
            raise ProofCheckError("passive side changed")
        before = Counter(getattr(p, rule.side))
        if before[instance] < 1:
            raise ProofCheckError(
                f"premise lacks instance {_shown(instance)}"
            )
        before[instance] -= 1
        before[q] += 1
        if before != Counter(getattr(c, rule.side)):
            raise ProofCheckError(
                "conclusion does not replace the instance by "
                f"{_shown(q)}"
            )
        return

    if node.rule == "cut":
        cf = node.formula
        l, r = (proof[j].conclusion for j in node.premises)
        ls, ra = Counter(l.succ), Counter(r.ante)
        for side, where in ((ls, "left succedent"), (ra, "right antecedent")):
            if side[cf] < 1:
                raise ProofCheckError(f"cut formula missing from the {where}")
        ls[cf] -= 1
        ra[cf] -= 1
        if Counter(c.ante) != Counter(l.ante) + ra:
            raise ProofCheckError("antecedents do not join")
        if Counter(c.succ) != ls + Counter(r.succ):
            raise ProofCheckError("succedents do not join")
        return

    p = proof[node.premises[0]].conclusion
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


def metrics(proof: tuple) -> dict:
    """Proof length (step count) and quantifier complexity.

    ``comq`` counts the weak quantifier-block inferences (∀ left and
    ∃ right); it is the standard size measure for proofs with cut.
    """
    comq = sum(step.rule in ("forall_l", "exists_r") for step in proof)
    return {"length": len(proof), "comq": comq}


# ---------------------------------------------------------------------------
# rendering and serialization


def render_proof(proof: tuple) -> str:
    """One line per step in pre-order from the root, indented two spaces
    per level.

    Each distinct formula is rendered once per call: formulas are
    hash-consed, and consecutive steps share most of theirs."""
    text = cache(render_formula)
    lines: list[str] = []
    stack = [(len(proof) - 1, 0)]
    while stack:
        i, depth = stack.pop()
        node = proof[i]
        extra = ""
        if _RULES[node.rule].kind:
            extra = " [" + ", ".join(render_term(t) for t in node.terms) + "]"
        elif node.rule == "cut":
            extra = " on " + text(node.formula)
        lines.append(
            f"{'  ' * depth}{node.rule}{extra}: {node.conclusion.render(text)}"
        )
        stack.extend((j, depth + 1) for j in reversed(node.premises))
    return "\n".join(lines)


def proof_to_json(proof: tuple) -> Any:
    """The proof as ``proof.json`` holds it: ``nodes``, the node table of
    its formulas and terms (``serialize``), and ``proof``, its steps.  A
    step has the keys that name the rule and its parts in ``_RULES``,
    with node indexes for formulas and terms and step indexes for
    premises."""
    index: dict = {}
    nodes: list = []
    steps: list = []
    for inf in proof:
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
        d.update(zip(rule.premises, inf.premises))
        steps.append(d)
    return {"nodes": nodes, "proof": steps}


# The most term and formula nodes a proof.json may hold once each step's
# formulas and terms are written out as trees, as the nested format of
# earlier versions wrote them.  The checker walks those trees, and a
# table of n entries, each naming the one before twice, holds a formula
# of 2^n nodes.
MAX_TREE_NODES = 10**7


def proof_from_json(d: Any) -> tuple:
    """The proof a ``proof.json`` holds: the table ``proof_to_json``
    writes, or the nested object of earlier versions, read as one inline
    root step.  An inline step is read, with the inline steps above it,
    before the step that names it.  The steps must form one tree, root
    last (``_shape``)."""
    if not isinstance(d, dict):
        raise ValueError(f"bad proof encoding: {type(d).__name__}")
    if "rule" in d:
        reader = _StepReader([])
        reader.step(d, [])
    else:
        reader = _StepReader(
            entries_from_json(d.get("nodes"), "nodes", node_from_json)
        )
        entries_from_json(d.get("proof"), "proof", reader.step)
    proof = tuple(reader.steps)
    _shape(proof)
    return proof


class _StepReader:
    """Reads the steps of one ``proof.json`` over its node table.  The
    state is on the reader, not in a closure, so reading leaves no
    reference cycle behind."""

    def __init__(self, nodes: list) -> None:
        self.nodes = nodes
        self.steps: list = []
        self.sizes: dict = {}
        self.total = 0

    def step(self, e: Any, entries: list) -> int:
        """Append step ``e`` after its inline premises and return its
        index; ``entries`` holds the step index of each table entry read
        so far."""
        if not isinstance(e, dict):
            raise ValueError(f"bad proof step: {type(e).__name__}")
        name = e.get("rule")
        rule = _rule(name)
        nodes = self.nodes
        c = e["conclusion"]
        ante = slots_from_json(c["ante"], nodes, False)
        succ = slots_from_json(c["succ"], nodes, False)
        premises = tuple(
            self.step(x, entries)
            if isinstance(x, dict)
            else entries[index_from_json(x, len(entries))]
            for x in (e[key] for key in rule.premises)
        )
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
        step = Inference(name, conclusion, premises, formula, terms)
        self.steps.append(step)
        return len(self.steps) - 1

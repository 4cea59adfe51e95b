"""Acceptance gate: seven checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines;
each check asserts, so a plain pytest run fails loudly too.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import shutil
import time

from cutintro.corpus import emit_stats, run_corpus, write_corpus_outputs
from cutintro.cutformula import (
    SolutionCandidate,
    build_schematic_ehs,
    canonical_solution,
    check_solution,
    sf_improve,
)
from cutintro.decomposition import build_delta_table, fold_delta_table
from cutintro.euf import InternalOracle, Verdict
from cutintro.formulas import And, Atom, Eq, Not, Or, render_formula
from cutintro.herbrand import TermSet, decode_termset, encode_termset
from cutintro.limits import LimitReached
from cutintro.pipeline import RunConfig, run_pipeline
from cutintro.proofs import (
    build_proof_with_cut,
    check_proof_report,
    metrics,
)
from cutintro.sequents import Sequent
from cutintro.smt import CommandOracle
from cutintro.terms import App, alpha, const, render_term, subst_term

import gen
import oracles
from gen import render_input
from oracles import decide_validity


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] {name}{tail}"
    print(line, flush=True)
    assert ok, line


def _iterate(fn, t, n):
    for _ in range(n):
        t = fn(t)
    return t


# ---------------------------------------------------------------------------
# 1. bundled running example, end to end


def test_criterion_1_golden_end_to_end(golden, golden_oracle):
    seq, hs = golden
    failures: list[str] = []

    ts = encode_termset(hs)
    if len(ts.terms) != 12:
        failures.append(f"term-set size {len(ts.terms)} != 12")

    t0 = time.monotonic()
    decs = fold_delta_table(build_delta_table(ts), ts)
    search_time = time.monotonic() - t0
    if search_time >= 10.0:
        failures.append(f"decomposition search took {search_time:.1f}s >= 10s")
    if len(decs) != 1 or decs[0].size != 10:
        failures.append(f"expected one minimal decomposition of size 10, got "
                        f"{[d.size for d in decs]}")
    d = decs[0]
    split = decode_termset(TermSet(d.u, seq.q))
    u_sizes = [len(x) for x in split.instances]
    if u_sizes != [0, 4, 4, 0] or len(d.w) != 2:
        failures.append(
            f"expected |U1|=4, |U2|=4, |W|=2; got u={u_sizes} w={len(d.w)}"
        )
    a = const("a")
    f = lambda t: App("f", (t,))
    s = lambda t: App("s", (t,))
    ffa = f(f(a))
    if d.w != frozenset({(a, ffa), (ffa, a)}):
        failures.append("witness rows differ from {(a, f2a), (f2a, a)}")
    want_u = {
        "#f2(α1)", "#f2(α2)", "#f2(f(α1))", "#f2(f(α2))",
        "#f3(α1, s(s(s(α2))))", "#f3(s(α1), s(s(α2)))",
        "#f3(s(s(α1)), s(α2))", "#f3(s(s(s(α1))), α2)",
    }
    if {render_term(u) for u in d.u} != want_u:
        failures.append("pattern set differs from the expected one")

    e = build_schematic_ehs(seq, split, d.w)
    e_size = sum(map(len, e.u.instances)) + len(e.w)
    if e_size != 10:
        failures.append(f"schematic sequent size {e_size} != 10")

    can = canonical_solution(e)
    if not check_solution(e, can.formula, golden_oracle):
        failures.append("canonical solution rejected")

    res = sf_improve(e, can, golden_oracle)
    bad = [
        c for c in res.candidates
        if not check_solution(e, c.formula, golden_oracle)
    ]
    if bad:
        failures.append(f"{len(bad)} improvement outputs rejected")

    a1, a2 = alpha(1), alpha(2)
    target = And(
        And(
            Eq(f(f(a1)), _iterate(s, a1, 4)),
            Eq(f(f(a2)), _iterate(s, a2, 4)),
        ),
        Or(
            Not(Atom("P", (_iterate(s, a1, 4), a2))),
            Atom("P", (a1, _iterate(s, a2, 4))),
        ),
    )
    equivalent = None
    for cand in res.candidates:
        fwd = golden_oracle.validity(Sequent((target,), (cand.formula,)))
        if fwd is not Verdict.VALID:
            continue
        back = golden_oracle.validity(Sequent((cand.formula,), (target,)))
        if back is Verdict.VALID:
            equivalent = cand
            break
    if equivalent is None:
        failures.append(
            "no improvement output is equivalent to the expected "
            "two-step formula"
        )

    best = min(res.candidates, key=SolutionCandidate.sort_key)
    proof = build_proof_with_cut(e, best.formula, golden_oracle)
    if not check_proof_report(proof, golden_oracle)[0]:
        failures.append("constructed proof rejected by the checker")
    m = metrics(proof)
    if m["comq"] != 10:
        failures.append(f"comq {m['comq']} != 10")

    _verdict(
        "criterion 1: bundled example end to end",
        not failures,
        "; ".join(failures)
        or f"termset 12, decomposition 10 in {search_time:.2f}s, "
        f"sequent 10, cut formula {render_formula(best.formula)!r}, comq 10",
    )


# ---------------------------------------------------------------------------
# 2. fold equals exhaustive minimum on 200 random term sets


def test_criterion_2_decomposition_minimality():
    failures: list[str] = []
    t0 = time.monotonic()
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        ts = gen.random_term_set(rng)
        decs = fold_delta_table(build_delta_table(ts), ts)
        got = decs[0].size if decs else None
        want, best = oracles.brute_min_decompositions(ts)
        if got != want:
            failures.append(f"seed {seed}: fold {got} vs exhaustive {want}")
        elif decs and {(d.u, d.w) for d in decs} != set(best):
            failures.append(f"seed {seed}: minima differ as sets")
        if len(failures) >= 5:
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        failures.append(f"sweep took {elapsed:.0f}s >= 5 min")
    _verdict(
        "criterion 2: fold minimum == exhaustive minimum on 200 term sets",
        not failures,
        "; ".join(failures) or f"tolerance 0, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. soundness fuzz: anti-unification and decomposition validation


def test_criterion_3_soundness_fuzz(anti_unify):
    failures: list[str] = []
    for seed in range(1000):
        rng = random.Random(20_000 + seed)
        n = rng.randint(2, 6)
        terms = [
            gen.random_ground_term(
                rng, [("f", 1), ("g", 2), ("h", 1)], ["a", "b"], 3
            )
            for _ in range(n)
        ]
        u, rows = anti_unify(terms)
        for t, row in zip(terms, rows):
            mapping = {alpha(i + 1).name: row[i] for i in range(len(row))}
            if subst_term(u, mapping) != t:
                failures.append(f"anti-unification seed {seed} broken")
                break
        if len(failures) >= 5:
            break

    validated = 0
    seed = 0
    while validated < 1000 and seed < 5000 and len(failures) < 5:
        rng = random.Random(30_000 + seed)
        seed += 1
        ts = gen.random_term_set(rng)
        for d in fold_delta_table(build_delta_table(ts), ts):
            if not oracles.validate_decomposition(d, ts):
                failures.append(f"set seed {seed}: returned decomposition invalid")
                break
            validated += 1
            if validated >= 1000:
                break
    if validated < 1000:
        failures.append(f"only {validated} decompositions reached")
    _verdict(
        "criterion 3: 1000 anti-unifications reproduce input, "
        "1000 returned decompositions validate",
        not failures,
        "; ".join(failures) or "zero failures",
    )


# ---------------------------------------------------------------------------
# 4. solution space on 100 random solvable instances


def test_criterion_4_solution_space():
    failures: list[str] = []
    used = 0
    seed = 0
    while used < 100 and seed < 500:
        rng = random.Random(seed)
        seed += 1
        s, h = gen.random_solvable_instance(rng)
        ts = encode_termset(h)
        try:
            decs = fold_delta_table(build_delta_table(ts), ts)
        except LimitReached:
            continue
        if not decs:
            continue
        u = decode_termset(TermSet(decs[0].u, s.q))
        e = build_schematic_ehs(s, u, decs[0].w)
        oracle = InternalOracle()
        can = canonical_solution(e)
        if not check_solution(e, can.formula, oracle):
            failures.append(f"seed {seed - 1}: canonical rejected")
        res = sf_improve(e, can, oracle, node_cap=400)
        for cand in res.candidates:
            if not check_solution(e, cand.formula, oracle):
                failures.append(f"seed {seed - 1}: improvement output rejected")
                break
            entailed = oracle.validity(
                Sequent((can.formula,), (cand.formula,))
            )
            if entailed is not Verdict.VALID:
                failures.append(
                    f"seed {seed - 1}: canonical does not entail an output"
                )
                break
        used += 1
        if len(failures) >= 5:
            break
    if used < 100:
        failures.append(f"only {used} instances decomposed")
    _verdict(
        "criterion 4: canonical accepted, improvements accepted and "
        "entailed, on 100 instances",
        not failures,
        "; ".join(failures) or "zero failures",
    )


# ---------------------------------------------------------------------------
# 5. ground validity oracle


SOLVERS = ["z3 -smt2 {file}", "cvc5 --lang smt2 {file}", "cvc4 --lang smt2 {file}"]


def test_criterion_5_equality_oracle():
    failures: list[str] = []

    a = const("a")
    f = lambda t: App("f", (t,))
    s = lambda t: App("s", (t,))
    ante = tuple(
        Eq(f(_iterate(f, a, i)), s(s(_iterate(f, a, i)))) for i in range(4)
    )
    chain = Sequent(ante, (Eq(_iterate(f, a, 4), _iterate(s, a, 8)),))
    if decide_validity(chain) is not Verdict.VALID:
        failures.append("four-step function chain not decided valid")

    for seedbase in range(300):
        rng = random.Random(40_000 + seedbase)
        seq = gen.random_ground_sequent(rng)
        got = decide_validity(seq)
        if got is Verdict.UNKNOWN:
            failures.append(f"seed {seedbase}: unknown on a small sequent")
        elif (got is Verdict.VALID) != oracles.naive_evalid(seq):
            failures.append(f"seed {seedbase}: disagrees with saturation oracle")
        if len(failures) >= 5:
            break

    template = next(
        (t for t in SOLVERS if shutil.which(t.split()[0])), None
    )
    if template is None:
        external_note = "external solver check skipped (none installed)"
    else:
        external = CommandOracle(template)
        mismatches = 0
        for seedbase in range(20):
            rng = random.Random(40_000 + seedbase)
            seq = gen.random_ground_sequent(rng)
            got = external.validity(seq)
            if got is Verdict.UNKNOWN:
                continue
            if got is not decide_validity(seq):
                mismatches += 1
        if mismatches:
            failures.append(f"{mismatches} external-solver disagreements")
        external_note = f"20 exports agree with {template.split()[0]}"

    _verdict(
        "criterion 5: equality oracle (chain entailment, 300 random "
        "sequents, SMT export)",
        not failures,
        "; ".join(failures) or f"zero disagreements; {external_note}",
    )


# ---------------------------------------------------------------------------
# 6. mutated proofs are rejected


def _splice_out_block(proof, rng):
    blocks = _collect(proof, "forall_l")
    victim = rng.choice(blocks)
    return _swap(proof, victim, victim.premises[0])


def _corrupt_eigen(proof, rng):
    strong = _collect(proof, "forall_r")
    victim = rng.choice(strong)
    names = list(victim.terms)
    if len(names) > 1 and rng.random() < 0.5:
        names[0], names[1] = names[1], names[0]
    elif len(names) > 1:
        names[1] = names[0]
    else:
        names[0] = alpha(99)
    return _swap(proof, victim, dataclasses.replace(victim, terms=tuple(names)))


def _corrupt_leaf(proof, rng):
    leaves = _collect(proof, "oracle")
    victim = rng.choice(leaves)
    conc = victim.conclusion
    choice = rng.randrange(3)
    if choice == 0 and conc.ante:
        drop = rng.randrange(len(conc.ante))
        new = dataclasses.replace(
            conc, ante=conc.ante[:drop] + conc.ante[drop + 1:]
        )
    elif choice == 1 and conc.succ:
        drop = rng.randrange(len(conc.succ))
        new = dataclasses.replace(
            conc, succ=conc.succ[:drop] + conc.succ[drop + 1:]
        )
    else:
        new = dataclasses.replace(conc, ante=conc.succ, succ=conc.ante)
    return _swap(proof, victim, dataclasses.replace(victim, conclusion=new))


def _collect(proof, rule):
    out = []

    def walk(n):
        if n.rule == rule:
            out.append(n)
        for child in n.premises:
            walk(child)

    walk(proof)
    return out


def _swap(proof, old, new):
    if proof is old:
        return new
    premises = tuple(_swap(child, old, new) for child in proof.premises)
    if all(x is y for x, y in zip(premises, proof.premises)):
        return proof
    return dataclasses.replace(proof, premises=premises)


def test_criterion_6_mutations_rejected(golden_ehs, golden_sf, golden_oracle):
    best = min(golden_sf.candidates, key=SolutionCandidate.sort_key)
    proof = build_proof_with_cut(golden_ehs, best.formula, golden_oracle)
    assert check_proof_report(proof, golden_oracle)[0]

    operators = itertools.cycle(
        [_splice_out_block, _corrupt_eigen, _corrupt_leaf]
    )
    accepted = 0
    for seed in range(100):
        rng = random.Random(seed)
        mutant = next(operators)(proof, rng)
        assert mutant != proof
        if check_proof_report(mutant, golden_oracle)[0]:
            accepted += 1
    _verdict(
        "criterion 6: 100 mutated proofs all rejected",
        accepted == 0,
        f"{accepted} mutants accepted" if accepted else "zero accepted",
    )


# ---------------------------------------------------------------------------
# 7. one-variable vs unrestricted search; corpus output schema


def test_criterion_7_modes_and_corpus(tmp_path, golden_text):
    failures: list[str] = []

    src = tmp_path / "golden.cis"
    src.write_text(golden_text)
    star = run_pipeline(src, RunConfig())
    narrow = run_pipeline(src, RunConfig(mode="ci1"))
    if star.status != "compressed":
        failures.append(f"unrestricted mode gave {star.status}")
    if narrow.status != "uncompressible":
        failures.append(f"one-variable mode gave {narrow.status}")

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for seed in range(20):
        rng = random.Random(50_000 + seed)
        s, h = gen.random_solvable_instance(rng)
        (corpus_dir / f"case_{seed:02}.cis").write_text(render_input(s, h))
    reports = run_corpus(corpus_dir, RunConfig(timeout=30), workers=4)
    stats = emit_stats(reports)
    out = tmp_path / "summary"
    summary = write_corpus_outputs(reports, out)

    if stats["runs"] != 20 or len(reports) != 20:
        failures.append(f"expected 20 corpus runs, got {stats['runs']}")
    if sum(stats["by_status"].values()) != 20:
        failures.append("status counts do not sum to the run count")
    allowed = {"compressed", "uncompressible", "too_large", "timeout", "error"}
    if not set(stats["by_status"]) <= allowed:
        failures.append(f"unexpected statuses {set(stats['by_status']) - allowed}")
    for bucket in stats["buckets"]:
        if set(bucket) != {
            "termset_size",
            "runs",
            "statuses",
            "mean_wall_time",
            "mean_comq",
        }:
            failures.append("bucket schema mismatch")
            break
    if not all(
        len(point) == 2 and all(isinstance(v, int) for v in point)
        for point in stats["scatter"]
    ):
        failures.append("scatter points are not [termset, size] integer pairs")
    if summary != stats:
        failures.append("written stats differ from computed stats")
    if not (out / "stats.json").exists() or not (out / "runs.csv").exists():
        failures.append("summary files missing")
    else:
        import csv

        with (out / "runs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 20:
            failures.append(f"csv has {len(rows)} rows, expected 20")
        want_cols = {
            "input",
            "status",
            "termset_size",
            "decomposition_size",
            "u_sizes",
            "w_size",
            "canonical_size",
            "improved_size",
            "comq",
            "wall_time",
        }
        if rows and set(rows[0]) != want_cols:
            failures.append(f"csv columns {sorted(rows[0])} unexpected")

    _verdict(
        "criterion 7: one-variable search refuses what the full search "
        "compresses; corpus outputs validate",
        not failures,
        "; ".join(failures)
        or f"golden: cistar compressed / ci1 uncompressible; corpus "
        f"statuses {stats['by_status']}",
    )

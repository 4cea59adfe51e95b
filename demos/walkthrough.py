"""Stage-by-stage walkthrough of the bundled running example.

The input is a valid sequent about a chain of successor steps, plus the
term lists a cut-free proof uses to instantiate its two quantified
formulas.  Twelve instances are needed without a cut; this script walks
the pipeline that finds a two-variable cut formula bringing the
quantifier work down to ten, and prints what each stage produces.

Run with:  python3 demos/walkthrough.py
"""

from importlib.resources import files

from cutintro import (
    InternalOracle,
    SolutionCandidate,
    TermSet,
    build_delta_table,
    build_proof_with_cut,
    build_schematic_ehs,
    canonical_solution,
    check_proof_report,
    check_solution,
    decode_termset,
    encode_termset,
    fold_delta_table,
    metrics,
    parse_input,
    render_formula,
    render_proof,
    render_term,
    sf_improve,
)
from cutintro.terms import term_key


def banner(title: str) -> None:
    print()
    print(f"--- {title} " + "-" * max(0, 66 - len(title)))


text = files("cutintro").joinpath("data/running_example.cis").read_text()

banner("input file")
print(text.strip())

# ---------------------------------------------------------------------
banner("1. parse")
seq, hs = parse_input(text)
print(f"{seq.p} antecedent formulas, {seq.q - seq.p} succedent formula(s)")
for i in range(1, seq.q + 1):
    role = "ante" if i <= seq.p else "succ"
    print(f"  {role} {i}: {render_formula(seq.formula(i))}")

# ---------------------------------------------------------------------
banner("2. one term set for all formulas")
# Each instance vector for formula i becomes a single term under a
# reserved head #f<i>, so one set covers every quantified formula at
# once and the tags can never be confused with input function symbols.
ts = encode_termset(hs)
print(f"{len(ts)} tagged terms, one per instantiation vector:")
for t in sorted(ts.terms, key=term_key):
    print(f"  {render_term(t)}")

# ---------------------------------------------------------------------
banner("3. decomposition search")
# Anti-unify the subsets of the term set, index the resulting patterns
# by their witness rows, then search for the cheapest family of rows
# whose patterns jointly regenerate the whole set.  A subset whose rows
# would mention a formula tag is dropped, with all of its supersets.
table = build_delta_table(ts)
print(f"table holds {len(table.pairs)} distinct clean witness keys")
decs = fold_delta_table(table, ts)
print(f"{len(decs)} minimal decomposition(s), size {decs[0].size} "
      f"(vs {len(ts.terms)} terms uncompressed)")
print("  " + decs[0].render())

# ---------------------------------------------------------------------
banner("4. schematic sequent")
# The decomposition fixes the shape of a proof with one quantified cut;
# what is still unknown is the cut formula itself.  Its patterns split
# by tag, as the term set does, into instance tuples over α1, α2, and
# the schematic sequent is their Herbrand sequent: the instances the
# candidate must satisfy.
u = decode_termset(TermSet(decs[0].u, seq.q))
e = build_schematic_ehs(seq, u, decs[0].w)
print(f"cut formula arity: {e.arity}   sequent size: {decs[0].size}")
print(f"known side: {len(e.gamma)} antecedent / {len(e.delta)} succedent "
      f"instance formulas")
print("witness vectors the cut formula must step through:")
for row in e.w:
    print("  (" + ", ".join(render_term(x) for x in row) + ")")

# ---------------------------------------------------------------------
banner("5. canonical solution")
oracle = InternalOracle()
can = canonical_solution(e)
print(f"size {can.size}: {render_formula(can.formula)}")
print(f"accepted by the solution check: {check_solution(e, can.formula, oracle)}")

# ---------------------------------------------------------------------
banner("6. improvement by forgetful inference")
# Starting from the canonical solution's clause form, repeatedly replace
# a clause pair by a resolvent or paramodulant as long as the result
# still solves the schema, and keep the smallest survivors.
res = sf_improve(e, can, oracle)
best = min(res.candidates, key=SolutionCandidate.sort_key)
print(f"visited {res.visited} clause-set nodes, "
      f"kept {len(res.candidates)} solutions")
print(f"best size {best.size}: {render_formula(best.formula)}")
print("derivation: " + " ; ".join(best.provenance))

# ---------------------------------------------------------------------
banner("7. proof with cut")
proof = build_proof_with_cut(e, best.formula, oracle)
print(render_proof(proof))
m = metrics(proof)
ok, msg = check_proof_report(proof, oracle)
print(f"checker verdict: {'valid' if ok else msg}")
print(f"proof length {m['length']}, quantifier-block complexity {m['comq']} "
      f"(cut-free baseline: {len(ts)})")

"""End-to-end cut introduction on one input file.

The stages: parse the sequent and its instance lists, encode the term
set, search for a minimal decomposition, synthesize the canonical cut
formula, improve it by forgetful inference, and assemble and recheck the
proof with cut.  Every stage polls the run's ``limits.Deadline``; the
report carries one of five statuses:

- ``compressed``      a decomposition no larger than the term set was
                      found and turned into a checked proof
- ``uncompressible``  the search found nothing that small
- ``too_large``       the term set exceeds the subset-table limit, or
                      the subset table would enumerate more subsets
                      than its cap
- ``timeout``         the deadline struck mid-search
- ``error``           bad input (including terms nested too deeply to
                      process), no certifiable solution, or outputs
                      that cannot be written
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .cutformula import (
    DEFAULT_SF_CAP,
    build_schematic_ehs,
    candidates_by_sort_key,
    canonical_solution,
    check_solution,
    sf_improve,
)
from .decomposition import (
    DEFAULT_TERMSET_LIMIT,
    Decomposition,
    build_delta_table,
    fold_delta_table,
)
from .euf import InternalOracle, Oracle, Verdict
from .formulas import formula_size, render_formula
from .herbrand import (
    TermSet,
    decode_termset,
    encode_termset,
    herbrand_sequent,
    instance_tuples,
)
from .limits import Deadline, LimitReached
from .parser import InputError, parse_input, read_input
from .proofs import (
    ProofBuildError,
    build_proof_with_cut,
    check_proof_report,
    metrics,
    proof_to_json,
    render_proof,
)
from .serialize import node_to_json


@dataclass
class RunConfig:
    mode: str = "cistar"  # "cistar": any arity; "ci1": one variable
    timeout: Optional[float] = 60.0
    max_subset: Optional[int] = None
    termset_limit: int = DEFAULT_TERMSET_LIMIT
    sf_cap: int = DEFAULT_SF_CAP
    oracle_spec: str = "internal"  # or "cmd:<template with {file}>"
    out_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in ("cistar", "ci1"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.timeout is not None and not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be positive (or None for no limit)")
        if self.max_subset is not None and self.max_subset < 1:
            raise ValueError(
                "max_subset must be at least 1 (or None for no limit)"
            )
        for name in ("termset_limit", "sf_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.oracle_spec == "internal":
            return
        if not self.oracle_spec.startswith("cmd:"):
            raise ValueError(f"unknown oracle {self.oracle_spec!r}")
        if not self.oracle_spec[len("cmd:"):].split():
            raise ValueError(f"oracle {self.oracle_spec!r} names no command")


@dataclass
class RunReport:
    input: str
    mode: str
    status: str
    termset_size: Optional[int] = None
    decomposition: Optional[dict] = None
    canonical_size: Optional[int] = None
    improved_size: Optional[int] = None
    comq: Optional[int] = None
    wall_time: float = 0.0
    strictly_compressed: bool = False
    cut_formula: Optional[str] = None
    sf_visited: Optional[int] = None
    sf_capped: bool = False
    messages: list = field(default_factory=list)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _make_oracle(cfg: RunConfig, cancel) -> Oracle:
    if cfg.oracle_spec == "internal":
        return InternalOracle(cancel=cancel)
    from .smt import CommandOracle

    return CommandOracle(template=cfg.oracle_spec[len("cmd:"):], cancel=cancel)


def run_pipeline(path: str | Path, cfg: Optional[RunConfig] = None) -> RunReport:
    cfg = cfg or RunConfig()
    start = time.monotonic()
    poll = Deadline(cfg.timeout).poll
    report = RunReport(input=str(path), mode=cfg.mode, status="error")
    oracle = _make_oracle(cfg, poll)
    files = {}
    try:
        found = _run(path, cfg, oracle, poll, report)
        if found and cfg.out_dir:
            files = _artifact_files(*found)
    except LimitReached as err:
        report.status = "timeout" if err.meter == "deadline" else "too_large"
        report.messages.append(str(err))
    except (InputError, OSError) as err:
        report.status = "error"
        report.messages.append(str(err))
    except RecursionError:
        # Parsing, term equality and the node table take no frame per
        # nesting level, but some later stages do: the formula walkers
        # (rendering included) and the comparison of the nested sort
        # keys of deep terms.
        report.status = "error"
        report.messages.append(
            "input nested too deeply: a recursive stage exceeded the "
            f"Python recursion limit ({sys.getrecursionlimit()})"
        )
    report.wall_time = time.monotonic() - start
    if cfg.out_dir:
        _write_outputs(Path(cfg.out_dir), files, report, start)
    return report


def _run(path, cfg: RunConfig, oracle: Oracle, cancel, report: RunReport):
    """Fill in ``report``; a compressed run also returns its schematic
    sequent, canonical and selected solutions, proof and sf search."""
    seq, hs = parse_input(read_input(path))

    hseq = herbrand_sequent(seq, hs)
    verdict = oracle.validity(hseq)
    if verdict is Verdict.INVALID:
        raise InputError(
            "the instance lists do not witness the sequent: the "
            "instantiated sequent is falsifiable"
        )
    if verdict is Verdict.UNKNOWN:
        report.messages.append(
            "could not certify the instantiated sequent (resource cap); "
            "continuing"
        )

    termset = encode_termset(hs)
    report.termset_size = len(termset)

    def build():
        return build_delta_table(
            termset,
            max_subset=cfg.max_subset,
            limit=cfg.termset_limit,
            cancel=cancel,
        )

    ci1 = cfg.mode == "ci1"
    table = build()
    # The minimal decompositions of the least |W|, one class.
    decs = fold_delta_table(table, cancel=cancel, ci1=ci1)
    # Free the table, with the subsets it grows from, before the proof
    # search: only a fallback to the next class reads it again.
    del table
    if not decs:
        report.status = "uncompressible"
        report.messages.append(
            "no single-variable decomposition exists for this term set"
            if ci1
            else "no decomposition exists for this term set"
        )
        return
    report.decomposition = _decomposition_json(decs[0], seq.q)
    if decs[0].size > len(termset):
        report.status = "uncompressible"
        report.messages.append(
            f"minimal decomposition has size {decs[0].size} > "
            f"{len(termset)} instances"
        )
        return

    failures: list[str] = []
    for dec in _by_class(decs, build, cancel, ci1):
        cancel()
        outcome = _try_decomposition(dec, seq, cfg, oracle, cancel, failures)
        if outcome is None:
            continue
        ehs, canonical, best, proof, sf = outcome
        ok, msg = check_proof_report(proof, oracle)
        if not ok:
            failures.append(f"constructed proof failed its recheck: {msg}")
            continue
        report.decomposition = _decomposition_json(dec, seq.q)
        report.canonical_size = formula_size(canonical)
        report.improved_size = best.size
        report.comq = metrics(proof)["comq"]
        report.cut_formula = render_formula(best.formula)
        report.sf_visited = sf.visited
        report.sf_capped = sf.capped
        report.status = "compressed"
        report.strictly_compressed = dec.size < len(termset)
        return ehs, canonical, best, proof, sf
    report.status = "error"
    report.messages.extend(
        failures or ["no decomposition yielded a certifiable proof"]
    )


def _by_class(decs: list, build, cancel, ci1: bool):
    """The decompositions of ``decs``, the fold's first |W| class, then
    of each next class in the same mode (``ci1``), folded only once the
    one before is used up, on a table that ``build()`` makes anew for the
    first of them."""
    table = None
    while decs:
        yield from decs
        if table is None:
            table = build()
        decs = fold_delta_table(
            table, cancel=cancel, after=decs[-1], ci1=ci1
        )


def _try_decomposition(
    dec: Decomposition, seq, cfg: RunConfig, oracle, cancel, failures: list
):
    try:
        u = decode_termset(TermSet(dec.u, seq.q))
        ehs = build_schematic_ehs(seq, u, dec.w)
    except ValueError as err:
        failures.append(str(err))
        return None
    canonical = canonical_solution(ehs)
    try:
        ehs.side_clauses  # its clause form, built here to name the cap
    except LimitReached as err:  # clause_form_literals, as in check_solution
        failures.append(
            f"canonical solution for {dec.render()} passes the "
            f"clause-form cap: {err}"
        )
        return None
    if not check_solution(ehs, canonical, oracle):
        failures.append(
            "canonical solution could not be certified for "
            f"{dec.render()}"
        )
        return None
    sf = sf_improve(ehs, oracle, node_cap=cfg.sf_cap, cancel=cancel)
    for candidate in candidates_by_sort_key(sf.candidates):
        cancel()
        try:
            proof = build_proof_with_cut(ehs, candidate.formula, oracle)
        except ProofBuildError as err:
            failures.append(str(err))
            continue
        return ehs, canonical, candidate, proof, sf
    return None


def _decomposition_json(dec: Decomposition, q: int) -> dict:
    u = decode_termset(TermSet(dec.u, q))
    return {
        "u_sizes": [len(ui) for ui in u.instances],
        "w_size": len(dec.w),
        "size": dec.size,
        "arity": dec.arity,
        "rendered": dec.render(),
    }


def _artifact_files(ehs, canonical, best, proof, sf) -> dict:
    """A compressed run's artifacts, file name -> text, from what ``_run``
    returns.  ``decomposition.json`` gives W's rows and each Uᵢ's tuples
    (in ``instance_tuples`` order) as indexes into its node table."""
    lines = [
        "canonical solution:",
        "  " + render_formula(canonical),
        "",
        f"selected solution (of {len(sf.candidates)} found):",
        "  " + render_formula(best.formula),
        "",
        "derivation:",
    ]
    lines += [f"  {step}" for step in best.provenance]
    index, nodes = {}, []

    def row(ts) -> list:
        return [node_to_json(t, index, nodes) for t in ts]

    w = [row(r) for r in ehs.w]
    u = [  # a formula without prefix has no tuple, only its matrix's ()
        [row(r) for r in instance_tuples(ehs.base, ehs.u, i) if r]
        for i in range(1, ehs.base.q + 1)
    ]
    return {
        "solution.txt": "\n".join(lines) + "\n",
        "proof.txt": render_proof(proof) + "\n",
        "proof.json": json.dumps(proof_to_json(proof)) + "\n",
        "decomposition.json": json.dumps({"nodes": nodes, "w": w, "u": u})
        + "\n",
    }


def _write_outputs(out: Path, files: dict, report: RunReport, start) -> None:
    """Create ``out`` and write ``files`` into it, then ``report.json``.
    The wall time of a run with artifacts covers writing them.  A file
    that cannot be written ends the run ``error``."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
        if files:
            report.wall_time = time.monotonic() - start
        (out / "report.json").write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    except OSError as err:
        report.status = "error"
        report.messages.append(f"cannot write the outputs to {out}: {err}")

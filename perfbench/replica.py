"""Traced run of the pipeline, timed from outside the program.

``replay`` calls ``run_pipeline`` itself, with names in the
``cutintro.pipeline`` namespace replaced for the length of the call:
``_make_oracle`` wraps the program's own oracle in a TracingOracle, and
each function that ``pipeline._run`` calls into a layer gets a span:

    pipeline.input_s                 one run_pipeline call
      parser.parse_s                 parse_input
      herbrand.precheck_s            the oracle query made outside any
                                     stage: validity of the instance sequent
      decomposition.delta_s          build_delta_table
      decomposition.fold_s           fold_delta_table
      cutformula.canonical_check_s   check_solution on the canonical A
      cutformula.sf_s                sf_improve (forgetful inference)
      proofs.build_s                 build_proof_with_cut
      proofs.check_s                 check_proof_report
      serialize.proof_json_s         proof_to_json
        euf.oracle_s                 every oracle query, under its caller
    serialize.proof_json_s           proof_from_json of the written
                                     proof.json, after the run (what
                                     `cutintro check` does)

So the traced run executes exactly the program's code.  Spans are kept
in memory as (name, start, end, parent, input id) and written out when
the run ends.  ``terms`` (hashing, ``term_key``) cannot be timed from
outside; its cost is self time of the decomposition and euf spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import cutintro.pipeline as pipeline
from cutintro.euf import InternalOracle, Oracle, Verdict
from cutintro.formulas import formula_size
from cutintro.pipeline import RunConfig, RunReport
from cutintro.proofs import proof_from_json

ROOT = "pipeline.input_s"
PRECHECK = "herbrand.precheck_s"
# Name in the pipeline namespace -> span around each call of it.
STAGES = {
    "parse_input": "parser.parse_s",
    "build_delta_table": "decomposition.delta_s",
    "fold_delta_table": "decomposition.fold_s",
    "check_solution": "cutformula.canonical_check_s",
    "sf_improve": "cutformula.sf_s",
    "build_proof_with_cut": "proofs.build_s",
    "check_proof_report": "proofs.check_s",
    "proof_to_json": "serialize.proof_json_s",
}
SPANS = (ROOT, PRECHECK, *STAGES.values(), "euf.oracle_s")
# Counts that a traced run must reproduce exactly on any renaming.
DETERMINISTIC = (
    "delta_entries",
    "delta_pairs",
    "delta_polls",
    "fold_polls",
    "fold_decs",
    "canonical_size",
    "sf_visited",
    "sf_candidates",
    "oracle_queries",
    "oracle_solves",
    "unknown",
)
# The counts a run with a bare InternalOracle can report.
UNWRAPPED = DETERMINISTIC[:8] + ("oracle_solves",)


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, input]
        self._open: list[int] = []
        self.input_id = ""

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._parent(), self.input_id]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _parent(self):
        return self._open[-1] if self._open else None

    def current(self) -> str:
        return self.spans[self._open[-1]][0] if self._open else ""

    def totals(self) -> dict:
        """Per span name: summed duration and summed self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {name: [0.0, 0.0] for name in SPANS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start
            out[name][1] += end - start - child_time[i]
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, inp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "input": inp,
                        }
                    )
                    + "\n"
                )


class TracingOracle(Oracle):
    """Counts and times queries, forwarding each straight to the inner
    InternalOracle (never through the base class's formula round trip,
    which would issue different queries)."""

    def __init__(self, tracer: Tracer, inner: InternalOracle) -> None:
        self.tracer = tracer
        self.inner = inner
        self.queries = 0
        self.unknown = 0
        self.by_caller: Counter = Counter()  # "queries:<span>", "solves:<span>"

    def _forward(self, fn, arg) -> Verdict:
        caller = self.tracer.current()
        if caller != ROOT:
            return self._query(fn, arg, caller)
        # The one query pipeline._run makes outside every stage.
        with self.tracer.span(PRECHECK):
            return self._query(fn, arg, PRECHECK)

    def _query(self, fn, arg, caller: str) -> Verdict:
        solves = self.inner.calls
        self.queries += 1
        with self.tracer.span("euf.oracle_s"):
            verdict = fn(arg)
        self.by_caller["queries:" + caller] += 1
        self.by_caller["solves:" + caller] += self.inner.calls - solves
        if verdict is Verdict.UNKNOWN:
            self.unknown += 1
        return verdict

    def validity(self, seq) -> Verdict:
        return self._forward(self.inner.validity, seq)

    def refutation(self, clauses) -> Verdict:
        return self._forward(self.inner.refutation, clauses)


def _tally(counts: Counter, name: str, result, args) -> None:
    """Counts taken from one stage's arguments and result."""
    if name == "build_delta_table":
        counts["delta_entries"] += len(result.entries)
        counts["delta_pairs"] += sum(len(v) for v in result.entries.values())
    elif name == "fold_delta_table":
        counts["fold_decs"] += len(result)
    elif name == "check_solution":
        counts["canonical_size"] += formula_size(args[1])
    elif name == "sf_improve":
        counts["sf_visited"] += result.visited
        counts["sf_candidates"] += len(result.candidates)


@contextmanager
def _instrumented(tracer: Tracer, counts: Counter, oracles: list, wrap: bool):
    """Replace the pipeline's names for the length of one run."""
    originals = {name: getattr(pipeline, name) for name in (*STAGES, "_make_oracle")}

    def make_oracle(cfg, cancel):
        oracle = originals["_make_oracle"](cfg, cancel)
        if wrap:
            oracle = TracingOracle(tracer, oracle)
        oracles.append(oracle)
        return oracle

    def timed(name: str, span: str):
        fn = originals[name]

        def call(*args, **kw):
            if name in ("build_delta_table", "fold_delta_table"):
                # One poll per subset or injection tried, or per fold node.
                cancel = kw["cancel"]

                def counting_cancel() -> None:
                    counts["polls:" + span] += 1
                    cancel()

                kw["cancel"] = counting_cancel
            with tracer.span(span):
                result = fn(*args, **kw)
            _tally(counts, name, result, args)
            return result

        return call

    try:
        pipeline._make_oracle = make_oracle
        for name, span in STAGES.items():
            setattr(pipeline, name, timed(name, span))
        yield
    finally:
        for name, fn in originals.items():
            setattr(pipeline, name, fn)


def replay(
    path: Path, cfg: RunConfig, tracer: Tracer, wrap: bool = True
) -> tuple[RunReport, dict]:
    """Run one input through run_pipeline; return its report and counts.

    With ``wrap`` the oracle is a TracingOracle; without it the stages
    query the program's bare InternalOracle.
    """
    counts: Counter = Counter()
    oracles: list = []
    tracer.input_id = Path(path).stem
    with _instrumented(tracer, counts, oracles, wrap):
        with tracer.span(ROOT):
            report = pipeline.run_pipeline(path, cfg)
    if cfg.out_dir and report.status == "compressed":
        with tracer.span("serialize.proof_json_s"):
            text = (Path(cfg.out_dir) / "proof.json").read_text(encoding="utf-8")
            proof_from_json(json.loads(text))
    oracle = oracles[0]
    inner = oracle.inner if wrap else oracle
    out = {
        "delta_entries": counts["delta_entries"],
        "delta_pairs": counts["delta_pairs"],
        "delta_polls": counts["polls:decomposition.delta_s"],
        "fold_polls": counts["polls:decomposition.fold_s"],
        "fold_decs": counts["fold_decs"],
        "canonical_size": counts["canonical_size"],
        "sf_visited": counts["sf_visited"],
        "sf_candidates": counts["sf_candidates"],
        "oracle_solves": inner.calls,
    }
    if wrap:
        out["oracle_queries"] = oracle.queries
        out["unknown"] = oracle.unknown
        out["oracle_by_caller"] = dict(sorted(oracle.by_caller.items()))
    return report, out

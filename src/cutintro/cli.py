"""Command-line interface.

    cutintro run FILE        compress one proof, print the run report
    cutintro corpus DIR      batch-run a directory, print aggregate stats
    cutintro check PROOF     recheck a proof.json artifact

Exit codes for ``run``: 0 when the pipeline finished (compressed or
uncompressible), 2 on bad input, an invalid option value or a pipeline
error, 3 on timeout or a term set over the subset-table limit.
``corpus`` also exits 2 on an invalid option value or when it cannot
write its outputs.  ``check`` exits 0 for a valid proof, 1 for an
invalid one, 2 when the artifact cannot be read, nests too deeply to
check, or outlasts the default ``run`` deadline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import emit_stats, run_corpus, write_corpus_outputs
from .euf import InternalOracle
from .limits import Deadline, LimitReached
from .pipeline import RunConfig, run_pipeline
from .proofs import check_proof_report, proof_from_json

_EXIT_BY_STATUS = {
    "compressed": 0,
    "uncompressible": 0,
    "error": 2,
    "timeout": 3,
    "too_large": 3,
}


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=["cistar", "ci1"],
        default="cistar",
        help="decomposition search space: any arity (cistar) or a "
        "single variable (ci1)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=RunConfig.timeout,
        metavar="SECONDS",
        help="wall-clock budget per input (0 disables; default %(default)s)",
    )
    p.add_argument(
        "--max-subset",
        type=int,
        default=None,
        metavar="N",
        help="only anti-unify subsets up to this size",
    )
    p.add_argument(
        "--termset-limit",
        type=int,
        default=RunConfig.termset_limit,
        metavar="N",
        help="refuse term sets larger than this (default %(default)s)",
    )
    p.add_argument(
        "--sf-cap",
        type=int,
        default=RunConfig.sf_cap,
        metavar="N",
        help="node budget for the solution-improvement search "
        "(default %(default)s)",
    )
    p.add_argument(
        "--oracle",
        default="internal",
        metavar="SPEC",
        help="validity backend: 'internal' or 'cmd:<command with {file}>' "
        "for an external SMT solver",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write report and proof artifacts to this directory",
    )


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        mode=args.mode,
        timeout=args.timeout or None,
        max_subset=args.max_subset,
        termset_limit=args.termset_limit,
        sf_cap=args.sf_cap,
        oracle_spec=args.oracle,
        out_dir=args.out,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_pipeline(args.input, args.config)
    print(json.dumps(report.to_json(), indent=2))
    return _EXIT_BY_STATUS.get(report.status, 2)


def _cmd_corpus(args: argparse.Namespace) -> int:
    try:
        reports = run_corpus(args.directory, args.config, workers=args.workers)
        if args.out:
            stats = write_corpus_outputs(reports, args.out)
        else:
            stats = emit_stats(reports)
    except (OSError, ValueError) as err:
        print(f"cutintro corpus: error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(stats, indent=2))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    poll = Deadline(RunConfig.timeout).poll
    try:
        try:
            data = json.loads(Path(args.proof).read_text(encoding="utf-8"))
            proof = proof_from_json(data)
        except (OSError, ValueError, KeyError, TypeError) as err:
            print(f"error: cannot read proof: {err}", file=sys.stderr)
            return 2
        ok, msg = check_proof_report(proof, InternalOracle(cancel=poll))
    except (LimitReached, RecursionError) as err:
        why = str(err) if isinstance(err, LimitReached) else (
            "it nests deeper than the Python recursion limit "
            f"({sys.getrecursionlimit()}) allows"
        )
        print(f"error: cannot check proof: {why}", file=sys.stderr)
        return 2
    print("valid" if ok else f"invalid: {msg}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cutintro",
        description="Compress cut-free proofs by introducing one "
        "quantified cut.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compress one input file")
    p_run.add_argument("input", help="a .cis input file")
    _add_run_options(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_corpus = sub.add_parser("corpus", help="batch-run a directory")
    p_corpus.add_argument("directory", help="directory with .cis files")
    _add_run_options(p_corpus)
    p_corpus.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: one per CPU)",
    )
    p_corpus.set_defaults(fn=_cmd_corpus)

    p_check = sub.add_parser("check", help="recheck a proof artifact")
    p_check.add_argument("proof", help="a proof.json file")
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    if args.command in ("run", "corpus"):
        try:
            args.config = _config(args)
        except ValueError as err:
            print(f"cutintro {args.command}: error: {err}", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

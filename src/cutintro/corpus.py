"""Batch runs over a directory of input files.

Each ``*.cis`` file runs through ``run_pipeline`` in a pool of worker
processes, or in this process when there is one worker or one file.  An
exception that escapes one file's run becomes that file's ``error``
row.  Nothing survives a worker that dies (killed, or out of memory):
the pool breaks and ``run_corpus`` raises ``BrokenProcessPool`` with no
rows at all, and run in this process such a file ends the batch.

The aggregate groups runs into term-set-size buckets of width five and
records a scatter of term-set size against decomposition size for the
compressed runs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Optional, Sequence

from .pipeline import RunConfig, RunReport, run_pipeline

BUCKET_WIDTH = 5

_CSV_COLUMNS = [
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
]


def _run_one(args: tuple) -> RunReport:
    path, cfg = args
    try:
        return run_pipeline(path, cfg)
    except Exception as err:  # isolate worker crashes per file
        return RunReport(
            input=str(path),
            mode=cfg.mode,
            status="error",
            messages=[f"unexpected failure: {type(err).__name__}: {err}"],
        )


def run_corpus(
    directory: str | Path,
    cfg: Optional[RunConfig] = None,
    workers: Optional[int] = None,
) -> list[RunReport]:
    """Run the pipeline over every .cis file under a directory."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    cfg = cfg or RunConfig()
    root = Path(directory)
    files = sorted(root.rglob("*.cis"))
    if not files:
        raise FileNotFoundError(f"no .cis files under {root}")
    jobs = [(str(f), _job_config(cfg, f.relative_to(root))) for f in files]
    if workers == 1 or len(jobs) == 1:
        return [_run_one(job) for job in jobs]
    # Imported here: it costs tens of milliseconds of every start-up,
    # and only a corpus run with several workers uses it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


def _job_config(cfg: RunConfig, rel: Path) -> RunConfig:
    """Outputs go to ``<out>/<rel without its suffix>``, so that inputs
    of one name in two directories keep theirs apart."""
    if not cfg.out_dir:
        return cfg
    per_file = Path(cfg.out_dir) / rel.with_suffix("")
    return dataclasses.replace(cfg, out_dir=str(per_file))


def _bucket(size: Optional[int]) -> tuple[float, str]:
    """(sort key, label) of the bucket of a term-set size: "0", a range
    such as "6-10" keyed by its first size, or "unknown", last."""
    if size is None:
        return math.inf, "unknown"
    if size <= 0:
        return 0, "0"
    lo = ((size - 1) // BUCKET_WIDTH) * BUCKET_WIDTH + 1
    return lo, f"{lo}-{lo + BUCKET_WIDTH - 1}"


def emit_stats(reports: Sequence[RunReport]) -> dict:
    """Aggregate a batch into status counts, size buckets, and a scatter."""
    by_status: dict[str, int] = {}
    buckets: dict[tuple[float, str], dict] = {}
    scatter: list[list[int]] = []
    for r in reports:
        by_status[r.status] = by_status.get(r.status, 0) + 1
        b = buckets.setdefault(
            _bucket(r.termset_size),
            {"runs": 0, "statuses": {}, "wall_time": 0.0, "comqs": []},
        )
        b["runs"] += 1
        b["statuses"][r.status] = b["statuses"].get(r.status, 0) + 1
        b["wall_time"] += r.wall_time
        if r.comq is not None:
            b["comqs"].append(r.comq)
        if r.status == "compressed" and r.decomposition:
            scatter.append([r.termset_size, r.decomposition["size"]])

    bucket_rows = []
    for (_, label), b in sorted(buckets.items()):
        row = {
            "termset_size": label,
            "runs": b["runs"],
            "statuses": b["statuses"],
            "mean_wall_time": round(b["wall_time"] / b["runs"], 3),
            "mean_comq": (
                round(sum(b["comqs"]) / len(b["comqs"]), 2)
                if b["comqs"]
                else None
            ),
        }
        bucket_rows.append(row)

    return {
        "runs": len(reports),
        "by_status": dict(sorted(by_status.items())),
        "buckets": bucket_rows,
        "scatter": sorted(scatter),
    }


def _csv_row(r: RunReport) -> dict:
    dec = r.decomposition or {}
    return {
        "input": r.input,
        "status": r.status,
        "termset_size": r.termset_size,
        "decomposition_size": dec.get("size"),
        "u_sizes": " ".join(str(n) for n in dec.get("u_sizes", [])),
        "w_size": dec.get("w_size"),
        "canonical_size": r.canonical_size,
        "improved_size": r.improved_size,
        "comq": r.comq,
        "wall_time": round(r.wall_time, 3),
    }


def write_corpus_outputs(
    reports: Sequence[RunReport], out_dir: str | Path
) -> dict:
    """Write stats.json and runs.csv; returns the aggregate."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats = emit_stats(reports)
    (out / "stats.json").write_text(
        json.dumps(stats, indent=2) + "\n", encoding="utf-8"
    )
    with (out / "runs.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for r in reports:
            writer.writerow(_csv_row(r))
    return stats

"""Benchmark entry point for cutintro.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--workload all`` runs the four
workloads in turn, each as in its own run.  With ``--trace 0`` it prints every
end-to-end metric of the workload; with ``--trace 1`` it prints the
per-layer metrics of a traced run.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
full record (sample counts, src_loc, tracing overhead, per-input stage
times, failures) goes to .bench_out/<workload>-s<seed>-t<trace>/.

Exit codes: 0 when every output matched its pin, 1 when an output was
wrong or the run broke, 2 when the checkout has no program to measure.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DECIDED = ("compressed", "uncompressible")
PROBES = 9  # fresh processes timed for setup_s, besides the run's own
# A run may take --seconds plus this: the probes, a first round that
# alone outlasts --seconds, the output checks and the traced passes.
DEADLINE_MARGIN_S = 150.0


def median_round(rounds: list, key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def end_to_end(raw: dict, probes: list) -> tuple[dict, dict]:
    """End-to-end metrics; every time is scaled to reference speed."""
    rows = raw["rows"]
    times = sorted(row["input_s"] for row in rows)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    setups = probes + [{k: raw[k] for k in ("setup_s", "setup_wall_s")}]
    metrics = {
        "total_s": (median_round(raw["rounds"], "total_s"), "s"),
        "input_s.p50": (statistics.median(times), "s"),
        "input_s.p90": (p90, "s"),
        "decided_ratio": (
            sum(row["status"] in DECIDED for row in rows) / len(rows),
            "share",
        ),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
    }
    extra = {
        "input_s.samples": len(times),
        "input_s.beyond_p90": sum(t > p90 for t in times),
        "rounds": len(raw["rounds"]),
        "round_total_s": [r["total_s"] for r in raw["rounds"]],
        "round_wall_s": [r["wall_s"] for r in raw["rounds"]],
        "round_scale": [r["scale"] for r in raw["rounds"]],
        "speed_samples": raw["samples"],
        "wall.total_s": median_round(raw["rounds"], "wall_s"),
        "wall.input_s.p50": statistics.median(row["wall_time"] for row in rows),
        "wall.setup_s": statistics.median(p["setup_wall_s"] for p in setups),
        "setup_s.samples": sorted(p["setup_s"] for p in setups),
    }
    return metrics, extra


def per_layer(raw: dict) -> tuple[dict, dict]:
    tr = raw["trace"]
    metrics = {}
    for name, (total, own) in tr["spans"].items():
        metrics[name] = (total, "s")
        metrics[name + ".self"] = (own, "s")
    c = tr["counts"]
    for prefix, keys in (
        ("decomposition", ("delta_entries", "delta_pairs", "delta_polls", "fold_polls", "fold_decs")),
        ("cutformula", ("canonical_size", "sf_visited", "sf_candidates")),
        ("euf", ("oracle_queries", "oracle_solves", "unknown")),
    ):
        for k in keys:
            metrics[f"{prefix}.{k}"] = (c[k], "count")
    metrics["euf.memo_hit_ratio"] = (
        1.0 - c["oracle_solves"] / c["oracle_queries"] if c["oracle_queries"] else 0.0,
        "share",
    )
    rounds = raw["rounds"]
    walls = [sum(r["walls"]) for r in rounds]
    if "batch_s" in rounds[0]:
        batch_s = median_round(rounds, "batch_s")
        worker_s = statistics.median(walls)
        metrics["corpus.batch_s"] = (batch_s, "s")
        metrics["corpus.worker_s"] = (worker_s, "s")
        metrics["corpus.dispatch_s"] = (batch_s - worker_s / raw["batch_workers"], "s")
        metrics["corpus.stats_s"] = (median_round(rounds, "stats_s"), "s")
    else:
        for k in ("batch_s", "worker_s", "dispatch_s", "stats_s"):
            metrics["corpus." + k] = (0.0, "s")
    extra = {
        "trace.total_s": tr["total_s"],
        "untraced.input_sum_s": statistics.median(walls),
        "trace.overhead_s": tr["total_s"] - statistics.median(walls),
        "per_input": tr["per_input"],
    }
    return metrics, extra


def src_loc() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "cutintro").rglob("*.py"))
    )


def run_worker(args: list, deadline: float) -> dict:
    """Run worker.py in its own process group; kill the group on timeout
    so that no corpus worker outlives the run."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, write its result file, print its metrics."""
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    out = ROOT / ".bench_out" / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    probes = []
    if not trace:
        for i in range(PROBES):
            probes.append(run_worker(["probe", str(out / f"probe{i}")], deadline))
    raw = run_worker(
        ["measure", workload, str(seed), str(seconds), str(trace), str(out)],
        deadline,
    )

    failures = [f"{row['input']}: {e}" for row in raw["rows"] for e in row["errors"]]
    attempted = len(raw["rows"])
    failed = sum(bool(row["errors"]) for row in raw["rows"])
    if trace:
        metrics, extra = per_layer(raw)
        failures += raw["trace"]["errors"]
        attempted += raw["trace"]["attempted"]
        failed += len(raw["trace"]["errors"])
    else:
        metrics, extra = end_to_end(raw, probes)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src_loc": src_loc(),
        "start_method": raw["start_method"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "inputs": [
            {
                k: row[k]
                for k in ("input", "base", "status", "wall_time", "input_s")
                if k in row
            }
            for row in raw["rows"]
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"== {workload} (seed {seed}, trace {trace})")
    for line in failures[:20]:
        print("FAILED", line)
    for k, (v, u) in metrics.items():
        print(f"{k:36s} {v:14.6f} {u}")
    for k in (
        "input_s.samples",
        "input_s.beyond_p90",
        "rounds",
        "wall.total_s",
        "trace.overhead_s",
    ):
        if k in extra:
            print(f"{k:36s} {extra[k]}")
    print(f"{'failed_ratio':36s} {failed}/{attempted}")
    print(f"{'src_loc':36s} {record['src_loc']}")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cutintro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src' / 'cutintro'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:  # --workload all: one line for a human, keyed by workload
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

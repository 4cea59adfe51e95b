"""One workload run in a fresh process; started by run.py, not by hand.

    worker.py probe
        import cutintro and warm up; print {"setup_s": ...}
    worker.py measure WORKLOAD SEED SECONDS TRACE OUT_DIR
        run rounds of the workload, check every output, print one JSON
        object with the raw measurements

A fresh process per run keeps ``ru_maxrss`` (a process high-water mark)
specific to this workload.  Everything the program writes goes under
OUT_DIR.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import speed  # noqa: E402

BATCH_WORKERS = 2
# Corpus workers forked from this process end as its children, so that
# RUSAGE_CHILDREN sees them.  Under forkserver or spawn they would be
# children of another process (forkserver is the default from Python 3.14).
BATCH_START_METHOD = "fork"
# Host-speed samples taken right before and right after the timed setup.
SETUP_SAMPLES = 10
PINNED = ("status", "termset_size", "comq", "improved_size")
PINNED_DEC = ("size", "u_sizes", "w_size")


def setup(out: Path, sampler: speed.Sampler) -> tuple[float, float]:
    """Import the program and run one tiny input; return the seconds as
    measured and at reference speed."""
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    t0 = time.perf_counter()
    # Imported here, not at the top, so that the import is what is timed.
    global RunConfig, RunReport, run_pipeline
    from cutintro.pipeline import RunConfig, RunReport, run_pipeline

    warm = out / "warmup"
    warm.mkdir(parents=True, exist_ok=True)
    text, _ = gen.rename(gen.chain(4).text, random.Random("warmup"))
    (warm / "warmup.cis").write_text(text, encoding="utf-8")
    run_pipeline(warm / "warmup.cis", RunConfig(out_dir=str(warm / "out")))
    t1 = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    return t1 - t0, (t1 - t0) * sampler.scale(t0, t1)


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


def pinned_view(report: dict, inverse: dict) -> dict:
    """The fields of a report that the pins fix, names mapped back."""
    view = {k: report.get(k) for k in PINNED}
    dec = report.get("decomposition") or {}
    view.update({k: dec.get(k) for k in PINNED_DEC})
    cut = report.get("cut_formula")
    view["cut_formula"] = gen.unrename(cut, inverse) if cut else cut
    return view


def comparable(report: dict, inverse: dict) -> dict:
    """A whole report minus timing and path, names mapped back."""
    d = {k: v for k, v in report.items() if k not in ("wall_time", "input")}
    return json.loads(gen.unrename(json.dumps(d, sort_keys=True), inverse))


def proof_rechecks(out_dir: Path) -> bool:
    from cutintro.euf import InternalOracle
    from cutintro.proofs import check_proof_report, proof_from_json

    try:
        data = json.loads((out_dir / "proof.json").read_text(encoding="utf-8"))
        proof = proof_from_json(data)
    except (OSError, ValueError, KeyError, TypeError):
        return False
    ok, _ = check_proof_report(proof, InternalOracle())
    return ok


def write_inputs(inputs, in_dir: Path) -> dict:
    in_dir.mkdir(parents=True)
    paths = {}
    for inp in inputs:
        p = in_dir / f"{inp.name}.cis"
        p.write_text(inp.text, encoding="utf-8")
        paths[inp.name] = p
    return paths


def run_round(workload: str, inputs, rdir: Path) -> dict:
    """Time one round; returns the reports, the round's timings and the
    interval each input was timed in (for `batch`, the whole round)."""
    paths = write_inputs(inputs, rdir / "in")
    out = rdir / "out"
    if workload == "batch":
        from cutintro.corpus import run_corpus, write_corpus_outputs

        t0 = time.perf_counter()
        reports = run_corpus(
            rdir / "in",
            RunConfig(out_dir=str(out)),
            workers=BATCH_WORKERS,
        )
        t1 = time.perf_counter()
        write_corpus_outputs(reports, out)
        t2 = time.perf_counter()
        by_name = {Path(r.input).stem: r for r in reports}
        return {
            "wall_s": t2 - t0,
            "batch_s": t1 - t0,
            "stats_s": t2 - t1,
            "intervals": [(t0, t2)] * len(inputs),
            "reports": [by_name[inp.name] for inp in inputs],
        }
    reports = []
    intervals = []
    for inp in inputs:
        cfg = RunConfig(out_dir=str(out / inp.name))
        t0 = time.perf_counter()
        try:
            reports.append(run_pipeline(paths[inp.name], cfg))
        except Exception as err:  # counted as a failed input, like run_corpus
            reports.append(
                RunReport(
                    input=str(paths[inp.name]),
                    mode=cfg.mode,
                    status="error",
                    messages=[f"unexpected failure: {type(err).__name__}: {err}"],
                )
            )
        intervals.append((t0, time.perf_counter()))
    return {
        "wall_s": sum(t1 - t0 for t0, t1 in intervals),
        "intervals": intervals,
        "reports": reports,
    }


def check_round(inputs, reports, out: Path, pins: dict) -> list[dict]:
    """Compare each report with its pin and re-check its proof.json."""
    rows = []
    for inp, rep in zip(inputs, reports):
        d = rep.to_json()
        errors = []
        expect = pins.get(inp.base)
        if expect is None:
            errors.append("no pinned output")
        elif pinned_view(d, inp.inverse) != expect["pinned"]:
            errors.append(f"output differs from pin: {pinned_view(d, inp.inverse)}")
        if rep.status == "compressed" and not proof_rechecks(out / inp.name):
            errors.append("proof.json failed to re-check")
        rows.append(
            {
                "input": inp.name,
                "base": inp.base,
                "status": rep.status,
                "wall_time": rep.wall_time,
                "errors": errors,
                "comparable": comparable(d, inp.inverse),
            }
        )
    return rows


def traced_passes(workload: str, seed: int, out: Path, reference: dict) -> dict:
    """The traced run and its self-checks.

    Pass A is the traced run whose spans give the per-layer metrics.
    Pass B traces another renaming and must reproduce A's counts.
    Pass C runs the stages with a bare InternalOracle and must match A's
    counts and oracle solves, so the forwarding wrapper changes nothing
    the program does.  Every pass's reports must equal run_pipeline's
    (``reference``: base id -> comparable report).
    """
    from replica import DETERMINISTIC, UNWRAPPED, Tracer, replay

    passes = {}
    for label, round_no, wrap in (("A", 1000, True), ("B", 1001, True), ("C", 1002, False)):
        inputs = gen.round_inputs(workload, seed, round_no)
        rdir = out / f"trace{label}"
        paths = write_inputs(inputs, rdir / "in")
        tracer = Tracer()
        per_base = {}
        t0 = time.perf_counter()
        for inp in inputs:
            cfg = RunConfig(out_dir=str(rdir / "out" / inp.name))
            rep, counts = replay(paths[inp.name], cfg, tracer, wrap=wrap)
            per_base.setdefault(inp.base, []).append(
                (comparable(rep.to_json(), inp.inverse), counts)
            )
        passes[label] = (per_base, tracer, time.perf_counter() - t0)
        shutil.rmtree(rdir)

    per_base_a, tracer, total_s = passes["A"]
    errors = []
    for label, keys in (("A", ()), ("B", DETERMINISTIC), ("C", UNWRAPPED)):
        for base, entries in passes[label][0].items():
            first = per_base_a[base][0][1]
            for rep, counts in entries:
                if rep != reference[base]:
                    errors.append(f"{base}: traced pass {label} report differs from run_pipeline")
                if any(counts[k] != first[k] for k in keys):
                    errors.append(f"{base}: traced pass {label} counts differ from pass A")
    tracer.write(out / "spans.jsonl")
    return {
        "total_s": total_s,
        "spans": tracer.totals(),
        "counts": {
            k: sum(c[k] for entries in per_base_a.values() for _, c in entries)
            for k in DETERMINISTIC
        },
        "per_input": {
            base: {"spans": _input_spans(tracer, base), **entries[0][1]}
            for base, entries in sorted(per_base_a.items())
        },
        "attempted": sum(len(e) for p in passes.values() for e in p[0].values()),
        "errors": errors,
    }


def _input_spans(tracer, base: str) -> dict:
    """Mean seconds per span name over the inputs of one structure."""
    out: dict = {}
    inputs = set()
    for name, start, end, _, inp in tracer.spans:
        if inp.split("-", 2)[2] == base:
            out[name] = out.get(name, 0.0) + end - start
            inputs.add(inp)
    return {name: t / len(inputs) for name, t in out.items()}


def scale_to_reference(rounds: list, rows: list, sampler: speed.Sampler) -> None:
    """Add the times at reference speed: each input's ``input_s`` and each
    round's ``total_s``.  Done after the last round, as an input's scale
    also uses the samples taken after it."""
    sampler.sample()  # so that the last input has samples after it, too
    for row in rows:
        row["input_s"] = row["wall_time"] * sampler.scale(*row.pop("interval"))
    for r in rounds:
        # The distinct intervals: one per input, or one for a batch round.
        parts = dict.fromkeys(r.pop("intervals"))
        r["total_s"] = sum((t1 - t0) * sampler.scale(t0, t1) for t0, t1 in parts)
        r["scale"] = r["total_s"] / r["wall_s"]


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    if workload == "batch":
        multiprocessing.set_start_method(BATCH_START_METHOD)
    sampler = speed.Sampler()
    setup_wall_s, setup_s = setup(out, sampler)
    pins = load_pins()
    rounds = []
    rows = []
    # A traced run reports no end-to-end times; unsampled, its untraced
    # round is a clean baseline for the tracing overhead.
    if not trace:
        sampler.start()
    start = time.perf_counter()
    while True:
        round_no = len(rounds)
        inputs = gen.round_inputs(workload, seed, round_no)
        rdir = out / f"round{round_no}"
        r = run_round(workload, inputs, rdir)
        reports = r.pop("reports")
        r["walls"] = [rep.wall_time for rep in reports]
        for row, interval in zip(
            check_round(inputs, reports, rdir / "out", pins), r["intervals"]
        ):
            row["interval"] = interval
            rows.append(row)
        rounds.append(r)
        shutil.rmtree(rdir)
        elapsed = time.perf_counter() - start
        # A traced run needs one untraced round: the reference reports
        # and the baseline of the tracing overhead.
        if trace or elapsed + elapsed / len(rounds) > seconds:
            break
    sampler.stop()
    if not trace:
        scale_to_reference(rounds, rows, sampler)
    # RUSAGE_CHILDREN gives the largest single corpus worker, not their
    # sum, and a forked worker's figure includes the pages it shares
    # with this process, which are so counted twice.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "samples": len(sampler.durations),
        "rounds": rounds,
        "rows": rows,
        "peak_rss_mb": (own + workers) / 1024.0,
        "batch_workers": BATCH_WORKERS,
        "start_method": multiprocessing.get_start_method(),
    }
    if trace:
        reference = {}
        for row in rows:
            reference.setdefault(row["base"], row["comparable"])
        result["trace"] = traced_passes(workload, seed, out, reference)
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"]:
        wall, scaled = setup(Path(argv[1]), speed.Sampler())
        print(json.dumps({"setup_s": scaled, "setup_wall_s": wall}))
        return 0
    workload, seed, seconds, trace, out = argv[1:6]
    result = measure(workload, int(seed), float(seconds), trace == "1", Path(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

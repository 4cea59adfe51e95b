"""Regenerate pins.json, the expected output of every workload structure.

    python3 perfbench/pin.py

Each structure runs once, renamed as in a benchmark run, and its status,
decomposition size, |Uᵢ|, |W|, comq, improved size and cut formula are
recorded with the names mapped back.  Where the term set has at most
BRUTE_MAX terms, the decomposition size is cross-checked against the
brute-force minimizer in tests/oracles.py, and the script fails on a
mismatch.  The proof of every compressed structure must re-check with a
fresh InternalOracle.  Rerun it only when a workload's structures
change, never to make a failing benchmark run pass.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.append(str(HERE.parent / "tests"))

import gen  # noqa: E402
import worker  # noqa: E402
from cutintro.herbrand import encode_termset  # noqa: E402
from cutintro.parser import parse_input  # noqa: E402
from cutintro.pipeline import RunConfig, run_pipeline  # noqa: E402
from oracles import brute_min_decompositions  # noqa: E402

BRUTE_MAX = 10


def brute_size(text: str) -> tuple[bool, int | None]:
    """(checked, minimal size or None when no decomposition exists)."""
    _, hs = parse_input(text)
    termset = encode_termset(hs)
    if len(termset) > BRUTE_MAX:
        return False, None
    size, _ = brute_min_decompositions(termset.terms)
    return True, size


def main() -> int:
    rng = random.Random("pin")
    pins = {}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in gen.WORKLOADS:
            for s in gen.structures(workload):
                text, inverse = gen.rename(s.text, rng)
                path = Path(tmp) / f"{s.base}.cis"
                path.write_text(text, encoding="utf-8")
                out = Path(tmp) / s.base
                report = run_pipeline(path, RunConfig(out_dir=str(out))).to_json()
                view = worker.pinned_view(report, inverse)
                checked, brute = brute_size(text)
                if checked and brute != view["size"]:
                    bad.append(f"{s.base}: size {view['size']}, brute force {brute}")
                if view["status"] == "compressed" and not worker.proof_rechecks(out):
                    bad.append(f"{s.base}: proof.json does not re-check")
                pins[s.base] = {"pinned": view, "brute_checked": checked}
                print(s.base, json.dumps(view), "brute", brute, flush=True)
    for line in bad:
        print("MISMATCH", line, file=sys.stderr)
    if bad:
        return 1
    (HERE / "pins.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run ``sf_improve`` on the bundled example in a fresh process and print,
as one JSON object, what the hash-seed tests compare between processes:

- ``var_hash``: ``hash(Var('x'))``;
- ``visited``: the rendered candidates in visiting order;
- ``theory_checks``: the internal oracle's ``_theory_conflict`` calls;
- ``lemmas``: its lemma store, each lemma decoded through the atom table
  and rendered as a sorted list of literals.

Usage: ``PYTHONHASHSEED=0 PYTHONPATH=src python tests/bundled_search.py``,
or ``run(seed)`` from a test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.resources import files

import cutintro.euf as euf
from cutintro.cutformula import (
    build_schematic_ehs,
    sf_improve,
)
from cutintro.decomposition import build_delta_table, fold_delta_table
from cutintro.formulas import render_formula
from cutintro.herbrand import TermSet, decode_termset, encode_termset
from cutintro.parser import parse_input
from cutintro.terms import Var


def decoded_lemmas(oracle: euf.InternalOracle) -> list[tuple]:
    """The internal oracle's lemma store decoded through its atom table:
    (atom of the positive literal, the lemma as (sign, atom) pairs)."""
    atoms = oracle._atoms.atoms
    return [
        (atoms[v], frozenset((u > 0, atoms[abs(u)]) for u in lemma))
        for v, bucket in oracle._lemmas.items()
        for lemma in bucket
    ]


def main() -> None:
    text = files("cutintro").joinpath("data/running_example.cis").read_text()
    seq, hs = parse_input(text)
    ts = encode_termset(hs)
    dec = fold_delta_table(build_delta_table(ts))[0]
    e = build_schematic_ehs(seq, decode_termset(TermSet(dec.u, seq.q)), dec.w)
    checks = 0
    conflict = euf._theory_conflict

    def counting(*args):
        nonlocal checks
        checks += 1
        return conflict(*args)

    euf._theory_conflict = counting
    oracle = euf.InternalOracle()
    sf = sf_improve(e, oracle)
    lemmas = sorted(
        sorted(("" if s else "~") + render_formula(a) for s, a in clause)
        for _, clause in decoded_lemmas(oracle)
    )
    print(
        json.dumps(
            {
                "var_hash": hash(Var("x")),
                "visited": [render_formula(c.formula) for c in sf.candidates],
                "theory_checks": checks,
                "lemmas": lemmas,
            }
        )
    )


def run(seed: str) -> dict:
    """The printed object of a fresh interpreter at ``PYTHONHASHSEED=seed``."""
    done = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


if __name__ == "__main__":
    main()

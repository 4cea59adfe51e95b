"""Shared fixtures: the bundled running example at each pipeline stage."""

from __future__ import annotations

import gc
from importlib.resources import files

import pytest

from cutintro.cutformula import (
    build_schematic_ehs,
    canonical_solution,
    sf_improve,
)
from cutintro.decomposition import (
    _AntiUnifier,
    build_delta_table,
    fold_delta_table,
)
from cutintro.euf import InternalOracle
from cutintro.herbrand import TermSet, decode_termset, encode_termset
from cutintro.parser import parse_input


@pytest.fixture(scope="session")
def golden_text() -> str:
    return (
        files("cutintro").joinpath("data/running_example.cis").read_text()
    )


@pytest.fixture(scope="session")
def golden(golden_text):
    return parse_input(golden_text)


@pytest.fixture(scope="session")
def golden_termset(golden):
    _, hs = golden
    return encode_termset(hs)


@pytest.fixture(scope="session")
def golden_table(golden_termset):
    return build_delta_table(golden_termset)


@pytest.fixture(scope="session")
def golden_decompositions(golden_table, golden_termset):
    return fold_delta_table(golden_table, golden_termset)


@pytest.fixture(scope="session")
def golden_ehs(golden, golden_decompositions):
    seq, _ = golden
    dec = golden_decompositions[0]
    u = decode_termset(TermSet(dec.u, seq.q))
    return build_schematic_ehs(seq, u, dec.w)


@pytest.fixture(scope="session")
def golden_oracle():
    return InternalOracle()


@pytest.fixture(scope="session")
def golden_sf(golden_ehs, golden_oracle):
    return sf_improve(
        golden_ehs, canonical_solution(golden_ehs), golden_oracle
    )


@pytest.fixture
def oracle():
    return InternalOracle()


@pytest.fixture
def leaves_no_cycles():
    """A checker that calls a function with the cyclic garbage collector
    off, asserts that a collection afterwards finds no unreachable
    object, and returns the function's result: whatever the call
    allocated and dropped was freed by reference counting alone."""

    def check(call):
        gc.collect()
        gc.disable()
        try:
            result = call()
            assert gc.collect() == 0
        finally:
            gc.enable()
        return result

    return check


@pytest.fixture
def anti_unify():
    """The package's anti-unifier over a nonempty term list, one step
    per term: (pattern, rows) in the form of ``oracles.antiunify``, one
    row per term, or None when a column mentions a reserved formula-tag
    head."""

    def run(terms):
        au = _AntiUnifier()
        u = terms[0]
        for t in terms[1:]:
            step = au.step(u, t)
            if step is None:
                return None
            u = step[0]
        return u, au.rows(u, terms)

    return run

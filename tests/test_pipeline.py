"""End-to-end runs: statuses, artifacts, limits, and the corpus driver."""

from __future__ import annotations

import csv
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cutintro.cutformula as cutformula
import cutintro.decomposition as decomposition
import cutintro.pipeline as pipeline
from cutintro.corpus import emit_stats, run_corpus, write_corpus_outputs
from cutintro.cutformula import candidates_by_sort_key
from cutintro.euf import InternalOracle
from cutintro.formulas import render_formula
from cutintro.herbrand import encode_termset
from cutintro.parser import parse_input
from cutintro.pipeline import RunConfig, RunReport, run_pipeline
from cutintro.serialize import entries_from_json, node_from_json
from cutintro.terms import tuple_key

import gen
import oracles
from gen import render_input

GOLDEN_ARTIFACTS = Path(__file__).parent / "data" / "running_example"
DEEP_MESSAGE = (
    "input nested too deeply: a recursive stage exceeded the Python "
    f"recursion limit ({sys.getrecursionlimit()})"
)


@pytest.fixture()
def golden_file(tmp_path, golden_text) -> Path:
    p = tmp_path / "golden.cis"
    p.write_text(golden_text)
    return p


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.mode == "cistar"
        assert cfg.timeout == 60.0
        assert cfg.termset_limit == 22

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            RunConfig(mode="turbo")

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            RunConfig(timeout=0)

    def test_rejects_nan_timeout(self):
        # A NaN deadline is never passed: the run would have no limit.
        with pytest.raises(ValueError, match="timeout must be positive"):
            RunConfig(timeout=float("nan"))

    @pytest.mark.parametrize("max_subset", [0, -1])
    def test_rejects_max_subset_below_one(self, max_subset):
        # Subsets of no term give an empty table, which would report a
        # compressible input as uncompressible.
        with pytest.raises(ValueError, match="max_subset"):
            RunConfig(max_subset=max_subset)

    def test_accepts_max_subset_one(self):
        assert RunConfig(max_subset=1).max_subset == 1

    @pytest.mark.parametrize("cap", ["sf_cap"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_caps_below_one(self, cap, value):
        # A cap below one would silently cut its search off: --sf-cap -1
        # used to report a size-27 cut formula instead of size 4.
        with pytest.raises(ValueError, match=cap):
            RunConfig(**{cap: value})

    @pytest.mark.parametrize("cap", ["sf_cap"])
    def test_accepts_caps_of_one(self, cap):
        assert getattr(RunConfig(**{cap: 1}), cap) == 1

    def test_rejects_unknown_oracle_spec(self):
        with pytest.raises(ValueError):
            RunConfig(oracle_spec="magic")

    def test_accepts_command_oracle_spec(self):
        assert RunConfig(oracle_spec="cmd:z3 -smt2 {file}")

    @pytest.mark.parametrize("spec", ["cmd:", "cmd:  "])
    def test_rejects_command_oracle_spec_without_a_command(self, spec):
        with pytest.raises(ValueError, match="names no command"):
            RunConfig(oracle_spec=spec)


class TestGoldenRun:
    def test_compresses(self, golden_file):
        rep = run_pipeline(golden_file, RunConfig())
        assert rep.status == "compressed"
        assert rep.strictly_compressed
        assert rep.termset_size == 12
        assert rep.decomposition["size"] == 10
        assert rep.decomposition["u_sizes"] == [0, 4, 4, 0]
        assert rep.decomposition["w_size"] == 2
        assert rep.canonical_size == 28
        assert rep.improved_size == 4
        assert rep.comq == 10
        assert rep.cut_formula == "P(α1, f(f(α2))) | ~P(f(f(α1)), α2)"
        assert not rep.sf_capped
        assert rep.wall_time > 0

    def test_builds_formulas_only_for_candidates_it_reaches(
        self, golden_file, tmp_path, monkeypatch
    ):
        # A candidate's formula is built when the pipeline tries it, or
        # when candidates_by_sort_key renders its size tie, and for no
        # candidate past the one selected.
        built, found = [], []
        build, search = cutformula.formula_of_cnf, pipeline.sf_improve
        monkeypatch.setattr(
            cutformula,
            "formula_of_cnf",
            lambda cnf: built.append(cnf) or build(cnf),
        )
        monkeypatch.setattr(
            pipeline,
            "sf_improve",
            lambda *args, **kw: found.append(search(*args, **kw)) or found[0],
        )
        rep = run_pipeline(golden_file, RunConfig(out_dir=tmp_path / "out"))
        monkeypatch.undo()
        assert rep.status == "compressed" and len(found) == 1
        cands = found[0].candidates
        order = list(candidates_by_sort_key(cands))
        rendered = [render_formula(c.formula) for c in order]
        selected = order[rendered.index(rep.cut_formula)]
        ties = [c for c in cands if c.size == selected.size]
        reached = order[: order.index(selected) + 1]
        if len(ties) > 1:
            reached += [c for c in ties if c not in reached]
        assert len(built) == len(reached)
        assert set(built) == {c.clauses for c in reached}
        assert len(built) < len(cands) == 192

    def test_report_is_json_serializable(self, golden_file):
        rep = run_pipeline(golden_file, RunConfig())
        packed = json.dumps(rep.to_json())
        assert json.loads(packed)["status"] == "compressed"

    def test_artifacts_written(self, golden_file, tmp_path):
        out = tmp_path / "out"
        run_pipeline(golden_file, RunConfig(out_dir=out))
        names = {p.name for p in out.iterdir()}
        assert names == {
            "report.json",
            "solution.txt",
            "proof.txt",
            "proof.json",
            "decomposition.json",
        }
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "compressed"
        proof = json.loads((out / "proof.json").read_text())
        assert proof["proof"][-1]["rule"] == "contract"
        solution = (out / "solution.txt").read_text()
        assert "P(α1, f(f(α2))) | ~P(f(f(α1)), α2)" in solution
        assert "canonical" in solution

    def test_proof_json_artifact_rechecks(self, golden_file, tmp_path):
        from cutintro.euf import InternalOracle
        from cutintro.proofs import check_proof_report, proof_from_json

        out = tmp_path / "out"
        run_pipeline(golden_file, RunConfig(out_dir=out))
        p = proof_from_json(json.loads((out / "proof.json").read_text()))
        assert check_proof_report(p, InternalOracle())[0]

    def test_run_that_does_not_compress_writes_only_the_report(
        self, golden_file, tmp_path
    ):
        out = tmp_path / "out"
        rep = run_pipeline(golden_file, RunConfig(mode="ci1", out_dir=out))
        assert rep.status == "uncompressible"
        assert [p.name for p in out.iterdir()] == ["report.json"]
        assert json.loads((out / "report.json").read_text()) == rep.to_json()

    def test_unwritable_out_dir_is_an_error(self, golden_file, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out"
        rep = run_pipeline(golden_file, RunConfig(out_dir=out))
        assert rep.status == "error"
        assert rep.messages[-1].startswith(
            f"cannot write the outputs to {out}: "
        )
        assert rep.wall_time > 0

    def test_artifact_too_deep_to_render_is_an_error(
        self, golden_file, tmp_path, monkeypatch
    ):
        def too_deep(proof):
            raise RecursionError

        monkeypatch.setattr(pipeline, "render_proof", too_deep)
        out = tmp_path / "out"
        rep = run_pipeline(golden_file, RunConfig(out_dir=out))
        assert rep.status == "error"
        assert rep.messages == [DEEP_MESSAGE]
        assert [p.name for p in out.iterdir()] == ["report.json"]
        assert json.loads((out / "report.json").read_text())["status"] == (
            "error"
        )

    def test_single_variable_mode_finds_nothing(self, golden_file):
        rep = run_pipeline(golden_file, RunConfig(mode="ci1"))
        assert rep.status == "uncompressible"
        assert any("single-variable" in m for m in rep.messages)


class TestSingleVariableMode:
    @pytest.mark.parametrize("n, size", [(9, 6), (12, 7), (16, 8)])
    def test_chain_compresses_as_in_the_unrestricted_mode(
        self, tmp_path, n, size
    ):
        # One tag and one variable: the minimal decompositions of a chain
        # have arity one, so both modes find the same.
        p = tmp_path / f"chain{n}.cis"
        p.write_text(gen.chain_input(n))
        cistar = run_pipeline(p, RunConfig())
        ci1 = run_pipeline(p, RunConfig(mode="ci1"))
        for rep in (cistar, ci1):
            assert rep.status == "compressed", rep.messages
            assert rep.decomposition["size"] == size
            assert rep.decomposition["arity"] == 1
        assert ci1.cut_formula == cistar.cut_formula


class TestGoldenArtifacts:
    """The bundled example's artifacts, byte for byte as committed under
    tests/data/running_example (the report without its wall time)."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory, golden_text):
        root = tmp_path_factory.mktemp("golden")
        (root / "running_example.cis").write_text(golden_text)
        with pytest.MonkeyPatch.context() as mp:
            # A relative input path keeps the report's "input" fixed.
            mp.chdir(root)
            run_pipeline("running_example.cis", RunConfig(out_dir="out"))
        return root / "out"

    @pytest.mark.parametrize(
        "name",
        ["proof.json", "proof.txt", "decomposition.json", "solution.txt"],
    )
    def test_artifact_matches(self, out, name):
        assert (out / name).read_bytes() == (
            GOLDEN_ARTIFACTS / name
        ).read_bytes()

    def test_decomposition_reads_back_to_the_runs_w_and_u(self, golden_file):
        report = RunReport(input=str(golden_file), mode="cistar", status="")
        ehs = pipeline._run(
            golden_file, RunConfig(), InternalOracle(), lambda: None, report
        )[0]
        data = json.loads((GOLDEN_ARTIFACTS / "decomposition.json").read_text())
        nodes = entries_from_json(data["nodes"], "nodes", node_from_json)

        def row(indexes) -> tuple:
            return tuple(nodes[i] for i in indexes)

        assert [row(r) for r in data["w"]] == list(ehs.w)
        assert [[row(r) for r in ui] for ui in data["u"]] == [
            sorted(ui, key=tuple_key) for ui in ehs.u.instances
        ]

    def test_report_matches_apart_from_wall_time(self, out):
        text = (out / "report.json").read_text(encoding="utf-8")
        text, n = re.subn(r'(?m)^  "wall_time": .*\n', "", text)
        assert n == 1
        assert text == (GOLDEN_ARTIFACTS / "report.json").read_text(
            encoding="utf-8"
        )


class TestFailureStatuses:
    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.cis"
        p.write_text("bogus line")
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "error"
        assert rep.messages

    def test_missing_file(self, tmp_path):
        rep = run_pipeline(tmp_path / "ghost.cis", RunConfig())
        assert rep.status == "error"

    def test_unwitnessed_sequent(self, tmp_path):
        p = tmp_path / "inv.cis"
        p.write_text("ante all x: P(x).\nsucc Q(a).\ninst 1: a.")
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "error"
        assert any("falsifiable" in m for m in rep.messages)

    def test_timeout(self, golden_file):
        rep = run_pipeline(golden_file, RunConfig(timeout=1e-6))
        assert rep.status == "timeout"
        assert rep.messages == ["deadline of 1e-06s struck during the search"]

    def test_termset_limit(self, golden_file):
        rep = run_pipeline(golden_file, RunConfig(termset_limit=5))
        assert rep.status == "too_large"
        assert rep.termset_size == 12

    def test_subset_table_past_its_cap_is_too_large(
        self, tmp_path, monkeypatch
    ):
        # A chain of eight terms: no size is spent, and the table is
        # built to its 8 + 28 + 56 = 92 subsets of at most 3 terms.
        monkeypatch.setattr(decomposition, "DELTA_ENTRIES_CAP", 91)
        p = tmp_path / "chain.cis"
        p.write_text(gen.chain_input(8))
        rep = run_pipeline(p, RunConfig(out_dir=tmp_path / "out"))
        assert rep.status == "too_large"
        assert rep.termset_size == 8
        assert rep.messages[0].startswith(
            "delta_entries passed its cap of 91:"
        )
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        assert written["messages"] == rep.messages
        monkeypatch.setattr(decomposition, "DELTA_ENTRIES_CAP", 92)
        assert run_pipeline(p, RunConfig()).status == "compressed"

    def test_uncompressible_set(self, tmp_path):
        # Two unrelated instances: every decomposition costs at least as
        # much as the two terms it replaces.
        p = tmp_path / "flat.cis"
        p.write_text(
            "ante all x: P(x).\nsucc P(a) & P(f(a)).\ninst 1: a; f(a)."
        )
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "uncompressible"

    # No stage recurses once per term nesting level on this input.
    @pytest.mark.parametrize("depth", [300, 340, 600, 10_000])
    def test_term_nested_deep_is_processed(self, tmp_path, depth):
        p = tmp_path / "deep.cis"
        p.write_text(gen.nested_input(depth))
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "uncompressible"
        assert rep.termset_size == 1

    # Writing the artifacts renders a term 330 deep, a third of the
    # recursion limit: the status must not depend on whether they are
    # written.
    def test_deep_term_status_does_not_depend_on_out_dir(self, tmp_path):
        p = tmp_path / "deep.cis"
        p.write_text(gen.deep_pair_input(330))
        bare = run_pipeline(p, RunConfig())
        written = run_pipeline(p, RunConfig(out_dir=tmp_path / "out"))
        assert bare.status == written.status == "compressed"
        assert (tmp_path / "out" / "proof.txt").exists()

    def test_canonical_clause_form_past_the_cap_is_an_error(self, tmp_path):
        p = tmp_path / "wide.cis"
        p.write_text(gen.wide_disjunction_input())
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "error"
        assert rep.termset_size == 9
        assert any("clause-form cap" in m for m in rep.messages)

    def test_term_nested_beyond_the_recursion_limit_is_an_error(
        self, tmp_path
    ):
        p = tmp_path / "deeper.cis"
        p.write_text(gen.negated_input(20_000))
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "error"
        assert rep.messages == [DEEP_MESSAGE]

    def test_non_utf8_input_is_an_error_at_its_byte(self, tmp_path):
        p = tmp_path / "latin1.cis"
        p.write_bytes(b"ante all x: P(x).\r\nsucc P(\xe9).\ninst 1: a.\n")
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "error"
        # Line ends count as text mode reads them: "\r\n" is one.
        assert rep.messages == ["byte 0xe9 is not UTF-8 at line 2, column 8"]


class TestFallbackOrder:
    """The pipeline tries the decompositions of the fold's first |W|
    class, and asks for the next class only when every one of them
    fails: the tries, in order, are the list of every minimum
    decomposition, which the pipeline tried whole before the fold
    returned one class at a time."""

    @staticmethod
    def _chain(tmp_path):
        # chain7: 18 minimum decompositions of size 6, in |W| classes of
        # 5, 6 and 7 decompositions.
        p = tmp_path / "chain7.cis"
        p.write_text(gen.chain_input(7))
        ts = encode_termset(parse_input(p.read_text())[1]).terms
        ref = oracles.reference_build_delta_table(ts)
        expected = oracles.reference_fold_delta_table(ref, ts)
        assert len({len(d.w) for d in expected}) == 3
        return p, expected

    def test_every_class_fails(self, tmp_path, monkeypatch):
        p, expected = self._chain(tmp_path)
        tried = []

        def fail(dec, seq, cfg, oracle, cancel, failures):
            tried.append(dec)
            failures.append(f"no proof for {dec.render()}")

        monkeypatch.setattr(pipeline, "_try_decomposition", fail)
        rep = run_pipeline(p, RunConfig())
        assert tried == expected
        assert rep.status == "error"
        assert rep.decomposition["rendered"] == expected[0].render()
        # One failure per decomposition, in the order of the whole list.
        assert rep.messages == [f"no proof for {d.render()}" for d in expected]

    def test_first_class_fails(self, tmp_path, monkeypatch):
        p, expected = self._chain(tmp_path)
        first = [d for d in expected if len(d.w) == len(expected[0].w)]
        tried = []
        stage = pipeline._try_decomposition

        def fail_first_class(dec, seq, cfg, oracle, cancel, failures):
            tried.append(dec)
            if dec in first:
                failures.append(f"no proof for {dec.render()}")
                return None
            return stage(dec, seq, cfg, oracle, cancel, failures)

        tables = []
        build = pipeline.build_delta_table

        def counted_build(*args, **kw):
            tables.append(build(*args, **kw))
            return tables[-1]

        monkeypatch.setattr(pipeline, "_try_decomposition", fail_first_class)
        monkeypatch.setattr(pipeline, "build_delta_table", counted_build)
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "compressed", rep.messages
        assert tried == expected[: len(first) + 1]
        # The next class is folded from the table the first came from.
        assert len(tables) == 1
        assert rep.decomposition["rendered"] == expected[len(first)].render()
        assert rep.decomposition["w_size"] == len(first[0].w) + 1
        assert rep.messages == []

    # The random tagged set of seed 3337 (``gen.random_tagged_term_set``)
    # as the instances of ∀x P(x) and ∀x∀y Q(x, y).  Its minimum, size 7,
    # comes in |W| classes 2 and 3, each with decompositions of arity one
    # and of arity two.
    MIXED = (
        "ante all x: P(x).\nante all x y: Q(x, y).\nsucc P(a).\n"
        "inst 1: a; f(a); f(f(a)); f(f(f(a))).\n"
        "inst 2: (a, a); (f(a), a); (f(a), f(a)); (f(a), f(f(a))); "
        "(f(f(a)), a).\n"
    )

    def test_single_variable_mode_tries_only_arity_one(
        self, tmp_path, monkeypatch
    ):
        p = tmp_path / "mixed.cis"
        p.write_text(self.MIXED)
        ts = encode_termset(parse_input(self.MIXED)[1]).terms
        assert ts == gen.random_tagged_term_set(random.Random(3337))
        whole = oracles.reference_build_delta_table(ts)
        assert {d.arity for d in oracles.reference_fold_delta_table(
            whole, ts
        )} == {1, 2}
        expected = oracles.reference_fold_delta_table(
            oracles.arity_one(whole), ts
        )
        assert [len(d.w) for d in expected] == [2, 2, 3]
        tried = []

        def fail(dec, seq, cfg, oracle, cancel, failures):
            tried.append(dec)
            failures.append(f"no proof for {dec.render()}")

        monkeypatch.setattr(pipeline, "_try_decomposition", fail)
        rep = run_pipeline(p, RunConfig(mode="ci1"))
        # The first class failed, so the next is folded, with the mode.
        assert tried == expected
        assert rep.status == "error"


class TestLemmaWithSideChains:
    """The running example at r = 2 with ground side hypotheses: the
    implication sequent of its canonical check has no clause form within
    the default cap, but the check never builds that sequent."""

    @pytest.mark.parametrize("side_chains", [4, 6])
    def test_compresses(self, tmp_path, side_chains):
        p = tmp_path / f"lemma-{side_chains}.cis"
        p.write_text(gen.lemma_input(2, side_chains))
        rep = run_pipeline(p, RunConfig())
        assert rep.status == "compressed", rep.messages
        assert rep.cut_formula == "P(α1, f(f(α2))) | ~P(f(f(α1)), α2)"
        assert rep.improved_size == 4
        assert rep.comq == 10

    def test_without_side_chains_is_the_bundled_example(self, golden_text):
        assert parse_input(gen.lemma_input(2, 0)) == parse_input(golden_text)


class TestCorpus:
    def _write_corpus(self, root: Path, n: int = 6) -> None:
        for seed in range(n):
            rng = random.Random(seed)
            seq, hs = gen.random_solvable_instance(rng)
            (root / f"case_{seed:02}.cis").write_text(render_input(seq, hs))

    def test_runs_every_file(self, tmp_path):
        self._write_corpus(tmp_path)
        reports = run_corpus(tmp_path, RunConfig(timeout=30), workers=1)
        assert len(reports) == 6
        assert all(isinstance(r, RunReport) for r in reports)
        assert {Path(r.input).name for r in reports} == {
            f"case_{i:02}.cis" for i in range(6)
        }

    def test_parallel_matches_serial(self, tmp_path):
        self._write_corpus(tmp_path, n=4)
        serial = run_corpus(tmp_path, RunConfig(timeout=30), workers=1)
        parallel = run_corpus(tmp_path, RunConfig(timeout=30), workers=2)
        assert [r.status for r in serial] == [r.status for r in parallel]
        assert [r.comq for r in serial] == [r.comq for r in parallel]

    def test_process_pool_is_imported_only_by_a_parallel_run(self):
        # concurrent.futures.process costs tens of milliseconds of start-up.
        code = (
            "import sys, cutintro\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_corpus(tmp_path, RunConfig())

    def test_stats_schema(self, tmp_path):
        self._write_corpus(tmp_path)
        reports = run_corpus(tmp_path, RunConfig(timeout=30), workers=1)
        stats = emit_stats(reports)
        assert stats["runs"] == 6
        assert sum(stats["by_status"].values()) == 6
        for bucket in stats["buckets"]:
            assert set(bucket) == {
                "termset_size",
                "runs",
                "statuses",
                "mean_wall_time",
                "mean_comq",
            }
        assert all(len(point) == 2 for point in stats["scatter"])

    def test_buckets_in_size_order(self):
        # A sort of the labels as strings puts "11-15" before "6-10".
        sizes = [None, 12, 7, 0, 3]
        reports = [
            RunReport(input=f"{i}.cis", mode="cistar", status="error",
                      termset_size=size)
            for i, size in enumerate(sizes)
        ]
        assert [b["termset_size"] for b in emit_stats(reports)["buckets"]] == [
            "0", "1-5", "6-10", "11-15", "unknown"
        ]

    def test_outputs_written(self, tmp_path):
        self._write_corpus(tmp_path, n=4)
        reports = run_corpus(tmp_path, RunConfig(timeout=30), workers=1)
        out = tmp_path / "summary"
        write_corpus_outputs(reports, out)
        stats = json.loads((out / "stats.json").read_text())
        assert stats["runs"] == 4
        with (out / "runs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {"input", "status", "termset_size", "comq"} <= set(rows[0])

    def test_inputs_of_one_name_in_two_directories_keep_their_outputs(
        self, tmp_path
    ):
        inputs = tmp_path / "in"
        for sub in ("a", "b"):
            (inputs / sub).mkdir(parents=True)
        golden = gen.lemma_input(2, 0)
        (inputs / "a" / "x.cis").write_text(golden)
        (inputs / "b" / "x.cis").write_text(
            "ante all x: P(x).\nsucc P(a) & P(f(a)).\ninst 1: a; f(a)."
        )
        (inputs / "top.cis").write_text(golden)
        out = tmp_path / "out"
        reports = run_corpus(inputs, RunConfig(out_dir=out), workers=1)
        assert [r.status for r in reports] == [
            "compressed",
            "uncompressible",
            "compressed",
        ]
        for rel, rep in zip(("a/x", "b/x", "top"), reports):
            written = json.loads((out / rel / "report.json").read_text())
            assert written["input"] == rep.input
        assert (out / "a" / "x" / "proof.json").exists()
        assert [p.name for p in (out / "b" / "x").iterdir()] == ["report.json"]
        assert (out / "top" / "proof.json").exists()

    def test_unwritable_out_dir_is_an_error_row(self, tmp_path):
        self._write_corpus(tmp_path, n=2)
        (tmp_path / "blocker").write_text("")
        cfg = RunConfig(timeout=30, out_dir=tmp_path / "blocker" / "out")
        reports = run_corpus(tmp_path, cfg, workers=1)
        assert [r.status for r in reports] == ["error", "error"]
        for r in reports:
            assert r.messages[-1].startswith("cannot write the outputs to ")

    def test_broken_file_isolated(self, tmp_path):
        self._write_corpus(tmp_path, n=2)
        (tmp_path / "zz_broken.cis").write_text("garbage")
        reports = run_corpus(tmp_path, RunConfig(timeout=30), workers=1)
        by_name = {Path(r.input).name: r for r in reports}
        assert by_name["zz_broken.cis"].status == "error"
        assert sum(1 for r in reports if r.status != "error") == 2

    def test_clause_form_blowup_keeps_its_row(self, tmp_path):
        (tmp_path / "wide.cis").write_text(gen.wide_disjunction_input())
        (rep,) = run_corpus(tmp_path, RunConfig(), workers=1)
        assert rep.status == "error"
        assert rep.termset_size == 9
        assert rep.wall_time > 0
        assert not any("unexpected failure" in m for m in rep.messages)

    def test_too_deep_file_gets_its_own_row(self, tmp_path):
        (tmp_path / "ok.cis").write_text(
            "ante all x: P(x).\nsucc P(a) & P(f(a)).\ninst 1: a; f(a)."
        )
        (tmp_path / "deep.cis").write_text(gen.negated_input(20_000))
        reports = run_corpus(tmp_path, RunConfig(), workers=1)
        by_name = {Path(r.input).name: r for r in reports}
        assert by_name["ok.cis"].status == "uncompressible"
        assert by_name["deep.cis"].status == "error"
        assert by_name["deep.cis"].messages == [DEEP_MESSAGE]

    def test_non_utf8_file_gets_its_own_row(self, tmp_path):
        (tmp_path / "ok.cis").write_text(
            "ante all x: P(x).\nsucc P(a) & P(f(a)).\ninst 1: a; f(a)."
        )
        (tmp_path / "latin1.cis").write_bytes(b"\xff")
        reports = run_corpus(tmp_path, RunConfig(), workers=1)
        by_name = {Path(r.input).name: r for r in reports}
        assert by_name["ok.cis"].status == "uncompressible"
        rep = by_name["latin1.cis"]
        assert rep.status == "error"
        assert rep.messages == ["byte 0xff is not UTF-8 at line 1, column 1"]
        assert rep.wall_time > 0

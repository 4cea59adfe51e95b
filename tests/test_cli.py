"""Command-line interface: subcommands, options, exit codes."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cutintro.cli import main
from cutintro.proofs import proof_to_json

import gen
from gen import render_input


@pytest.fixture()
def golden_file(tmp_path, golden_text) -> Path:
    p = tmp_path / "golden.cis"
    p.write_text(golden_text)
    return p


class TestRun:
    def test_compressed_exits_zero(self, golden_file, capsys):
        code = main(["run", str(golden_file)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "compressed"
        assert report["comq"] == 10

    def test_uncompressible_exits_zero(self, golden_file, capsys):
        code = main(["run", str(golden_file), "--mode", "ci1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == (
            "uncompressible"
        )

    def test_parse_error_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.cis"
        p.write_text("nonsense")
        assert main(["run", str(p)]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "error"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "ghost.cis")]) == 2

    def test_timeout_exits_three(self, golden_file, capsys):
        assert main(["run", str(golden_file), "--timeout", "1e-6"]) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "timeout"

    def test_termset_limit_exits_three(self, golden_file, capsys):
        assert main(["run", str(golden_file), "--termset-limit", "5"]) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "too_large"

    def test_out_writes_artifacts(self, golden_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["run", str(golden_file), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "proof.json").exists()
        assert (out / "report.json").exists()

    def test_zero_timeout_disables_deadline(self, golden_file, capsys):
        assert main(["run", str(golden_file), "--timeout", "0"]) == 0
        capsys.readouterr()


class TestCorpus:
    def _write_corpus(self, root: Path, n: int = 3) -> None:
        for seed in range(n):
            rng = random.Random(seed)
            seq, hs = gen.random_solvable_instance(rng)
            (root / f"case_{seed}.cis").write_text(render_input(seq, hs))

    def test_prints_stats(self, tmp_path, capsys):
        self._write_corpus(tmp_path)
        code = main(["corpus", str(tmp_path), "--workers", "1"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["runs"] == 3
        assert "buckets" in stats and "scatter" in stats

    def test_out_writes_csv_and_stats(self, tmp_path, capsys):
        self._write_corpus(tmp_path)
        out = tmp_path / "summary"
        code = main(
            ["corpus", str(tmp_path), "--workers", "1", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert (out / "stats.json").exists()
        assert (out / "runs.csv").exists()

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_two(self, tmp_path, workers, capsys):
        self._write_corpus(tmp_path)
        assert main(["corpus", str(tmp_path), "--workers", workers]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "cutintro corpus: error: workers must be at least 1\n"


_BAD_OPTIONS = [
    ["--termset-limit", "0"],
    ["--timeout", "-1"],
    ["--max-subset", "0"],
    ["--max-subset", "-3"],
    ["--sf-cap", "0"],
    ["--sf-cap", "-1"],
]


class TestInvalidOptionValues:
    @pytest.mark.parametrize("option", _BAD_OPTIONS)
    def test_run_exits_two_with_one_line(self, golden_file, option, capsys):
        assert main(["run", str(golden_file), *option]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cutintro run: error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("option", _BAD_OPTIONS)
    def test_corpus_exits_two_with_one_line(
        self, golden_file, option, capsys
    ):
        code = main(["corpus", str(golden_file.parent), *option])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cutintro corpus: error: ")
        assert err.count("\n") == 1

    def test_no_traceback_from_the_console_script(self, golden_file):
        done = subprocess.run(
            [
                sys.executable,
                "-m",
                "cutintro.cli",
                "run",
                str(golden_file),
                "--termset-limit",
                "0",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == (
            "cutintro run: error: termset_limit must be at least 1\n"
        )


class TestCheck:
    def test_valid_proof(self, golden_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        main(["run", str(golden_file), "--out", str(out)])
        capsys.readouterr()
        code = main(["check", str(out / "proof.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_corrupted_proof_exits_one(self, golden_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        main(["run", str(golden_file), "--out", str(out)])
        capsys.readouterr()
        packed = json.loads((out / "proof.json").read_text())
        # Swap the final conclusion's sides: no rule concludes this.
        packed["conclusion"]["ante"], packed["conclusion"]["succ"] = (
            packed["conclusion"]["succ"],
            packed["conclusion"]["ante"],
        )
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(packed))
        code = main(["check", str(broken)])
        assert code == 1
        assert capsys.readouterr().out.startswith("invalid")

    def test_unreadable_proof_exits_two(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        assert main(["check", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_proof_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_unsound_forall_right_exits_one(self, tmp_path, capsys):
        p = tmp_path / "proof.json"
        p.write_text(json.dumps(proof_to_json(gen.unsound_forall_r())))
        assert main(["check", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == (
            "invalid: root: eigenvariable α1 occurs in the conclusion\n"
        )
        assert err == ""

    @pytest.mark.parametrize("field", ["var", "app", "atom", "vars", "eigen"])
    def test_non_string_name_exits_two(self, tmp_path, field, capsys):
        # Plain dicts, none shared: P(α1) ⊢ ∀x P(x) over the leaf
        # P(α1) ⊢ P(α1).
        packed = json.loads(json.dumps(proof_to_json(gen.unsound_forall_r())))
        ante = packed["conclusion"]["ante"]
        if field == "var":
            ante[0]["args"][0] = {"var": 5}
        elif field == "app":
            ante[0]["args"][0] = {"app": 7, "args": []}
        elif field == "atom":
            ante.append({"atom": 5, "args": []})
        elif field == "vars":
            packed["quantified"]["vars"] = [5]
        else:
            packed["eigen"] = [5]
        p = tmp_path / "proof.json"
        p.write_text(json.dumps(packed))
        assert main(["check", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read proof: bad name encoding")
        assert err.count("\n") == 1

    @staticmethod
    def _deep_formula_proof(golden_file, tmp_path, depth: int) -> str:
        # The deep formula is spliced in as text: the json module's own
        # encoder raises RecursionError on 10^4 nested objects.
        out = tmp_path / "artifacts"
        main(["run", str(golden_file), "--out", str(out)])
        packed = json.loads((out / "proof.json").read_text())
        packed["conclusion"]["ante"][0] = "DEEP"
        deep = '{"not": ' * depth + '{"atom": "P", "args": []}' + "}" * depth
        return json.dumps(packed).replace('"DEEP"', deep)

    @staticmethod
    def _check(p):
        return subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "check", str(p)],
            capture_output=True,
            text=True,
            timeout=120,
        )

    @pytest.mark.parametrize("nesting", ["brackets", "formula"])
    def test_too_deep_proof_exits_two_without_traceback(
        self, golden_file, tmp_path, nesting, capsys
    ):
        # 10^4 levels: the json module's decoder raises RecursionError.
        p = tmp_path / "deep.json"
        if nesting == "brackets":
            p.write_text("[" * 100_000)
        else:
            p.write_text(self._deep_formula_proof(golden_file, tmp_path, 10**4))
        capsys.readouterr()
        done = self._check(p)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: cannot check proof: it nests")
        assert done.stderr.count("\n") == 1

    def test_deep_formula_gets_a_verdict(self, golden_file, tmp_path, capsys):
        # 700 levels: formula equality and hashing are by identity, so
        # the proof check compares the formula without walking it.
        p = tmp_path / "deep.json"
        p.write_text(self._deep_formula_proof(golden_file, tmp_path, 700))
        capsys.readouterr()
        done = self._check(p)
        assert done.returncode == 1
        assert done.stdout.startswith("invalid: ")
        assert done.stderr == ""


class TestConsoleScript:
    def test_installed_entry_point(self, golden_file):
        done = subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "run", str(golden_file)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["status"] == "compressed"

    def test_too_deep_input_exits_two_without_traceback(self, tmp_path):
        p = tmp_path / "deep.cis"
        p.write_text(gen.parenthesized_input(10_000))
        done = subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "run", str(p)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert json.loads(done.stdout)["status"] == "error"

    def test_clause_form_blowup_exits_two_without_traceback(self, tmp_path):
        p = tmp_path / "wide.cis"
        p.write_text(gen.wide_disjunction_input())
        done = subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "run", str(p)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        report = json.loads(done.stdout)
        assert report["status"] == "error"
        assert report["termset_size"] == 9

    def test_help_lists_subcommands(self):
        done = subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 0
        for word in ("run", "corpus", "check"):
            assert word in done.stdout

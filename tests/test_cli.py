"""Command-line interface: subcommands, options, exit codes."""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import pytest

from cutintro.cli import main
from cutintro.proofs import proof_from_json, proof_to_json

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

    def test_non_utf8_input_exits_two_and_writes_the_report(
        self, tmp_path, capsys
    ):
        p = tmp_path / "latin1.cis"
        p.write_bytes(b"ante P(a).\nsucc P(\xff).\n")
        out = tmp_path / "artifacts"
        assert main(["run", str(p), "--out", str(out)]) == 2
        printed = json.loads(capsys.readouterr().out)
        assert printed["status"] == "error"
        assert printed["messages"] == [
            "byte 0xff is not UTF-8 at line 2, column 8"
        ]
        written = json.loads((out / "report.json").read_text())
        assert written["messages"] == printed["messages"]

    def test_formula_in_ten_thousand_parentheses_exits_zero(
        self, tmp_path, capsys
    ):
        p = tmp_path / "parenthesized.cis"
        p.write_text(gen.parenthesized_input(10_000))
        assert main(["run", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "uncompressible"
        assert report["termset_size"] == 1

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
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cutintro corpus: error: no .cis files under {tmp_path}\n"

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
    ["--timeout", "nan"],
    ["--oracle", "cmd:"],
    ["--oracle", "cmd:  "],
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


class TestUnwritableOut:
    """An --out path under a regular file: the run ends ``error`` with a
    message naming the path, and no command ends in a traceback."""

    @pytest.fixture()
    def out(self, tmp_path) -> Path:
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return blocker / "out"

    def test_run_reports_an_error(self, golden_file, out, capsys):
        assert main(["run", str(golden_file), "--out", str(out)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert report["messages"][-1].startswith(
            f"cannot write the outputs to {out}: "
        )

    def test_corpus_exits_two_with_one_line(self, golden_file, out, capsys):
        code = main(["corpus", str(golden_file.parent), "--out", str(out)])
        assert code == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("cutintro corpus: error: ")
        assert err.count("\n") == 1

    def test_no_traceback_from_the_console_script(self, golden_file, out):
        done = subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "corpus"]
            + [str(golden_file.parent), "--workers", "1", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("cutintro corpus: error: ")
        assert "Traceback" not in done.stderr


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
        root = packed["proof"][-1]["conclusion"]
        root["ante"], root["succ"] = root["succ"], root["ante"]
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

    # P(α1) ⊢ ∀x P(x) over the leaf P(α1) ⊢ P(α1), nested as earlier
    # versions wrote it.
    NESTED = {
        "rule": "forall_r",
        "conclusion": {
            "ante": [{"atom": "P", "args": [{"var": "α1"}]}],
            "succ": [
                {
                    "quant": "all",
                    "vars": ["x"],
                    "body": {"atom": "P", "args": [{"var": "x"}]},
                }
            ],
        },
        "quantified": {
            "quant": "all",
            "vars": ["x"],
            "body": {"atom": "P", "args": [{"var": "x"}]},
        },
        "eigen": ["α1"],
        "premise": {
            "rule": "oracle",
            "conclusion": {
                "ante": [{"atom": "P", "args": [{"var": "α1"}]}],
                "succ": [{"atom": "P", "args": [{"var": "α1"}]}],
            },
        },
    }

    def test_nested_file_of_earlier_versions_checks(self, tmp_path, capsys):
        p = tmp_path / "proof.json"
        p.write_text(json.dumps(self.NESTED))
        assert main(["check", str(p)]) == 1
        assert capsys.readouterr().out == (
            "invalid: root: eigenvariable α1 occurs in the conclusion\n"
        )

    @pytest.mark.parametrize(
        "field", ["var", "app", "atom", "vars", "eigen", "nested"]
    )
    def test_non_string_name_exits_two(self, tmp_path, field, capsys):
        packed = proof_to_json(gen.unsound_forall_r())
        # The table: α1, P(α1), x, P(x), ∀x P(x).
        nodes = packed["nodes"]
        assert [next(iter(d)) for d in nodes] == [
            "var", "atom", "var", "atom", "quant"
        ]
        if field == "var":
            nodes[0]["var"] = 5
        elif field == "app":
            nodes[0] = {"app": 7, "args": []}
        elif field == "atom":
            nodes[1]["atom"] = 5
        elif field == "vars":
            nodes[4]["vars"] = [5]
        elif field == "eigen":
            packed["proof"][-1]["eigen"] = [5]
        else:
            packed = json.loads(json.dumps(self.NESTED))
            packed["conclusion"]["ante"][0]["args"][0] = {"var": 5}
        p = tmp_path / "proof.json"
        p.write_text(json.dumps(packed))
        assert main(["check", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read proof: ")
        assert "bad name encoding: " in err
        assert err.count("\n") == 1

    # A small table: the leaf P(a) ⊢ P(a), weakened to P(a), Q ⊢ P(a).
    TABLE = {
        "nodes": [
            {"app": "a", "args": []},
            {"atom": "P", "args": [0]},
            {"atom": "Q", "args": []},
        ],
        "proof": [
            {"rule": "oracle", "conclusion": {"ante": [1], "succ": [1]}},
            {
                "rule": "weaken",
                "conclusion": {"ante": [1, 2], "succ": [1]},
                "premise": 0,
            },
        ],
    }

    def test_quantifier_in_a_leaf_exits_one(self, tmp_path, capsys):
        # The leaf P(a) & (all x: P(x)) ⊢ P(a): the oracle decides clause
        # sets, and the clause form names the block it cannot take.
        packed = {
            "nodes": [
                {"app": "a", "args": []},
                {"atom": "P", "args": [0]},
                {"var": "x"},
                {"atom": "P", "args": [2]},
                {"quant": "all", "vars": ["x"], "body": 3},
                {"and": [1, 4]},
            ],
            "proof": [
                {"rule": "oracle", "conclusion": {"ante": [5], "succ": [1]}}
            ],
        }
        p = tmp_path / "proof.json"
        p.write_text(json.dumps(packed))
        assert main(["check", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == (
            "invalid: root: leaf contains a quantifier: "
            "all x: … is not quantifier-free\n"
        )
        assert len(out.encode()) < 1024
        assert err == ""

    @staticmethod
    def _malformed(case: str):
        packed = json.loads(json.dumps(TestCheck.TABLE))
        nodes, steps = packed["nodes"], packed["proof"]
        if case == "forward":
            nodes[1]["args"] = [2]
        elif case == "self":
            nodes[1]["args"] = [1]
        elif case == "out_of_range":
            steps[0]["conclusion"]["ante"] = [3]
        elif case == "negative":
            steps[1]["premise"] = -1
        elif case == "true":
            nodes[1]["args"] = [True]
        elif case == "formula_in_args":
            nodes[2]["args"] = [1]
        elif case == "term_in_not":
            nodes.append({"not": 0})
        elif case == "premise_twice":
            steps.append(
                {
                    "rule": "cut",
                    "conclusion": {"ante": [1], "succ": [1]},
                    "cut_formula": 1,
                    "left": 0,
                    "right": 0,
                }
            )
            steps[1] = steps.pop()
        elif case == "unused_step":
            steps.insert(0, dict(steps[0]))
            steps[2]["premise"] = 1
        elif case == "exponential":
            # Each entry names the one before twice: 2^60 nodes as a tree.
            for i in range(2, 62):
                nodes.append({"and": [i, i]})
            steps[0]["conclusion"]["ante"] = [len(nodes) - 1]
        elif case == "nodes_not_a_list":
            packed["nodes"] = {"0": nodes[0]}
        elif case == "proof_not_a_list":
            packed["proof"] = steps[-1]
        return packed

    EARLIER = "does not name an earlier entry"
    # Each malformed table and the one line `check` prints for it.
    MALFORMED = {
        "forward": f"nodes[1]: index 2 {EARLIER}",
        "self": f"nodes[1]: index 1 {EARLIER}",
        "out_of_range": f"proof[0]: index 3 {EARLIER}",
        "negative": f"proof[1]: index -1 {EARLIER}",
        "true": "nodes[1]: bad index: True",
        "formula_in_args": "nodes[2]: a formula in a term slot",
        "term_in_not": "nodes[3]: a term in a formula slot",
        "premise_twice": "proof[1]: step 0 is a premise twice",
        "unused_step": "proof[0]: a premise of no later step",
        "exponential": "proof[0]: the formulas and terms written out as "
        "trees pass 10000000 nodes",
        "nodes_not_a_list": "'nodes' is not a list",
        "proof_not_a_list": "'proof' is not a list",
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_table_exits_two(self, tmp_path, case, capsys):
        p = tmp_path / "proof.json"
        p.write_text(json.dumps(self.TABLE))
        assert main(["check", str(p)]) == 0
        p.write_text(json.dumps(self._malformed(case)))
        capsys.readouterr()
        assert main(["check", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot read proof: {self.MALFORMED[case]}\n"

    def test_fuzzed_golden_never_escapes(self, tmp_path, capsys):
        golden = json.loads(
            (Path(__file__).parent / "data" / "running_example" / "proof.json")
            .read_text(encoding="utf-8")
        )
        n = len(golden["nodes"])
        rng = random.Random(17)
        pool = [None, True, False, -1, 0, 1, n - 1, n, 10**9, 2.5, "x", [], {}]
        p = tmp_path / "proof.json"
        codes = set()
        for _ in range(300):
            packed = json.loads(json.dumps(golden))
            # Walk to a random container and change one of its slots.
            parent, key = packed, rng.choice(list(packed))
            while isinstance(parent[key], (dict, list)) and parent[key]:
                if rng.random() < 0.3:
                    break
                parent = parent[key]
                if isinstance(parent, dict):
                    key = rng.choice(list(parent))
                else:
                    key = rng.randrange(len(parent))
            how = rng.random()
            if how < 0.15 and isinstance(parent, dict):
                del parent[key]
            elif how < 0.5 and type(parent[key]) is int:
                parent[key] += rng.choice([-2, -1, 1, 2])
            else:
                parent[key] = rng.choice(pool + [rng.choice(golden["nodes"])])
            p.write_text(json.dumps(packed))
            code = main(["check", str(p)])
            assert code in (0, 1, 2)
            codes.add(code)
        capsys.readouterr()
        assert codes >= {1, 2}

    @staticmethod
    def _deep_nested_proof(depth: int) -> str:
        # A nested file as earlier versions wrote it, with a deep formula
        # spliced in as text: the json module's own encoder raises
        # RecursionError on 10^4 nested objects.
        data = Path(__file__).parent / "data" / "proof_indented.json"
        packed = json.loads(data.read_text(encoding="utf-8"))
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
        self, tmp_path, nesting
    ):
        # 10^4 levels: the json module's decoder raises RecursionError.
        p = tmp_path / "deep.json"
        if nesting == "brackets":
            p.write_text("[" * 100_000)
        else:
            p.write_text(self._deep_nested_proof(10**4))
        done = self._check(p)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: cannot check proof: it nests")
        assert done.stderr.count("\n") == 1

    def test_deep_formula_gets_a_verdict(self, golden_file, tmp_path):
        # A table holds the formula ~~...~P, 10^4 deep, one entry a level.
        # Formula equality and hashing are by identity, so the proof check
        # compares it without walking it.
        out = tmp_path / "artifacts"
        main(["run", str(golden_file), "--out", str(out)])
        packed = json.loads((out / "proof.json").read_text())
        nodes = packed["nodes"]
        nodes.append({"atom": "P", "args": []})
        for _ in range(10**4):
            nodes.append({"not": len(nodes) - 1})
        packed["proof"][-1]["conclusion"]["ante"][0] = len(nodes) - 1
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(packed))
        done = self._check(p)
        assert done.returncode == 1
        assert done.stdout.startswith("invalid: ")
        assert done.stderr == ""

    def test_ten_thousand_step_proof_is_valid(self, tmp_path, capsys):
        # The leaf P(a) ⊢ P(a) under 10^4 weakenings that add nothing.
        packed = json.loads(json.dumps(self.TABLE))
        packed["nodes"].pop()
        leaf = packed["proof"][0]
        packed["proof"] = [leaf] + [
            {"rule": "weaken", "conclusion": leaf["conclusion"], "premise": i}
            for i in range(10**4)
        ]
        p = tmp_path / "proof.json"
        p.write_text(json.dumps(packed))
        assert main(["check", str(p)]) == 0
        assert capsys.readouterr() == ("valid\n", "")
        proof = proof_from_json(json.loads(p.read_text()))
        assert proof_from_json(proof_to_json(proof)) == proof


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
        p.write_text(gen.negated_input(20_000))
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
        assert report["messages"] == [
            "input nested too deeply: a recursive stage exceeded the "
            "Python recursion limit (1000)"
        ]

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

    # The largest term sets the default --termset-limit admits, each in
    # a child whose address space is capped at 600 MB.  chain22 needs
    # subsets of at most 6 terms; the 22 constants compress under no key
    # but the whole set, and their table stops at its spent size 2.
    @pytest.mark.parametrize(
        "text, code, status",
        [
            (gen.chain_input(22), 0, "compressed"),
            (gen.constants_input(22), 0, "uncompressible"),
        ],
        ids=["chain22", "constants22"],
    )
    def test_largest_term_sets_in_bounded_memory(
        self, tmp_path, text, code, status
    ):
        p = tmp_path / "large.cis"
        p.write_text(text)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "run", str(p)],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap_address_space,
        )
        # Well inside the default 60 s deadline.
        assert time.monotonic() - start < 30
        assert "Traceback" not in done.stderr
        assert done.returncode == code, done.stderr
        report = json.loads(done.stdout)
        assert report["status"] == status
        assert report["termset_size"] == 22
        if status == "compressed":
            assert report["decomposition"]["size"] == 10
        else:
            assert report["messages"] == [
                "minimal decomposition has size 23 > 22 instances"
            ]

    # Constants: each size of two or more terms is spent, so the table
    # adds the whole set's key after its subsets of two terms.
    @pytest.mark.parametrize("n", range(16, 23))
    def test_constants_end_uncompressible_in_under_a_second(self, tmp_path, n):
        p = tmp_path / "constants.cis"
        p.write_text(gen.constants_input(n))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "cutintro.cli", "run", str(p)],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap_address_space,
        )
        assert time.monotonic() - start < 1
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["status"] == "uncompressible"
        assert report["messages"] == [
            f"minimal decomposition has size {n + 1} > {n} instances"
        ]

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


class TestHashSeed:
    """String hashes are salted per process, so the iteration order of
    term sets and dicts differs between runs; every output is sorted
    before it is written, so no byte of it does."""

    ARTIFACTS = (
        "proof.json",
        "proof.txt",
        "decomposition.json",
        "solution.txt",
    )

    @pytest.mark.parametrize("name", ["running_example", "chain8"])
    def test_outputs_do_not_depend_on_the_hash_seed(self, name, tmp_path):
        if name == "chain8":
            src = tmp_path / "chain8.cis"
            src.write_text(gen.chain_input(8))
        else:
            src = files("cutintro").joinpath("data/running_example.cis")
        outs = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}"
            done = subprocess.run(
                [sys.executable, "-m", "cutintro.cli", "run", str(src)]
                + ["--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outs.append(out)
        for artifact in self.ARTIFACTS:
            first, second = (o / artifact for o in outs)
            assert first.read_bytes() == second.read_bytes(), artifact
        reports = [json.loads((o / "report.json").read_text()) for o in outs]
        for report in reports:
            del report["wall_time"]
        assert reports[0] == reports[1]
        assert reports[0]["status"] == "compressed"

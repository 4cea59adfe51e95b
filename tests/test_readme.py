"""README's ``## Library`` snippet runs as written on the bundled example.

The snippet names the public API a caller starts from; running it
catches a deleted or renamed name, or a changed signature, in it.
"""

from __future__ import annotations

import re
from importlib.resources import files
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    return block


def test_library_snippet_runs_on_the_bundled_example(capsys):
    snippet = _library_snippet()
    example = files("cutintro").joinpath("data/running_example.cis")
    assert snippet.count('"input.cis"') == 1
    snippet = snippet.replace('"input.cis"', repr(str(example)))
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out == "{'length': 17, 'comq': 10}\n"

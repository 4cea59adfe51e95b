"""Every name a package module imports is used in that module.

A deletion tends to leave its imports behind; this scan finds them.
``__init__.py`` imports to re-export and is not scanned, nor are
``from __future__`` imports.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import cutintro

MODULES = sorted(
    p
    for p in Path(cutintro.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names the module's imports bind that nothing else reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # A dotted use, `pkg.mod.name`, reads its first part as a Name too.
    return sorted(
        f"{name} (line {line})"
        for name, line in bound.items()
        if name not in used
    )


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c (line 1)"]),
        ("from __future__ import annotations\n", []),
        ("from a import b\ndef f(x: b): pass\n", []),
        ("from a import b\nb.c\n", []),
    ],
)
def test_scan(source, unused):
    assert unused_imports(source) == unused


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cutintro import *", namespace)
    assert set(cutintro.__all__) <= set(namespace)
    for name in cutintro.__all__:
        value = namespace[name]
        assert getattr(cutintro, name) is value
        # Classes and functions are the objects their modules define;
        # the type aliases (Formula, Term) are typing objects.
        if value.__module__.startswith("cutintro."):
            assert getattr(import_module(value.__module__), name) is value
    with pytest.raises(AttributeError):
        cutintro.no_such_name
    assert set(cutintro.__all__) <= set(dir(cutintro))


def _loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter loads for ``statement``."""
    code = (
        "import sys; before = set(sys.modules); "
        f"{statement}; print(__import__('json').dumps("
        "sorted(set(sys.modules) - before)))"
    )
    src = str(Path(cutintro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    return set(json.loads(done.stdout))


# Modules that ``run`` and ``check`` do not need: the external solver
# bridge, the corpus runner and what only they import.
_LAZY = {
    "cutintro.smt", "cutintro.corpus",
    "subprocess", "tempfile", "select", "signal", "csv",
}


def test_pipeline_import_loads_no_corpus_or_solver_bridge():
    assert not _LAZY & _loaded_by("import cutintro.pipeline")
    assert not _LAZY & _loaded_by("import cutintro.cli")
    assert {"cutintro.smt", "cutintro.corpus"} <= _loaded_by(
        "from cutintro import *"
    )

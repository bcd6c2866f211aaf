"""Source hygiene: every import in src/, tests/ and scripts/ is used,
the package imports nothing but the standard library and numpy,
importing it stays cheap, and the README's library example runs.

A name counts as used when the module reads it anywhere (as a name or as
the base of an attribute chain) or lists it in its ``__all__``.  The
checks read each file's syntax tree with the standard library ``ast``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CHECKED = ("src", "tests", "scripts")


def _imported(tree):
    """(bound name, line) of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(name, line) for name, line in _imported(tree)
            if name not in used]


def test_the_checker_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import math\nimport os.path\nfrom json import dumps, loads"
                    "\nfrom re import sub as substitute\n"
                    "__all__ = ['loads']\nprint(os.path.sep)\n")
    assert unused_imports(path) == [("math", 1), ("dumps", 3),
                                    ("substitute", 4)]


@pytest.mark.parametrize("top", CHECKED)
def test_no_unused_imports(top):
    found = [f"{path.relative_to(REPO)}:{line}: {name}"
             for path in sorted((REPO / top).rglob("*.py"))
             for name, line in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def _absolute_imports(tree):
    """(top-level module, line) of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_the_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "tubeplan"}
    found = [f"{path.relative_to(REPO)}:{line}: {name}"
             for path in sorted((REPO / "src" / "tubeplan").rglob("*.py"))
             for name, line in _absolute_imports(ast.parse(
                 path.read_text(encoding="utf-8"), filename=str(path)))
             if name not in allowed]
    assert not found, "runtime imports beyond numpy:\n" + "\n".join(found)


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_the_readme_library_example_runs_as_written():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    verdict, cstar2 = _run_python(code).split()
    assert verdict == "clear" and f"{float(cstar2):.2f}" == "303.28"


def test_importing_the_package_loads_no_process_machinery():
    # mc_ensemble imports multiprocessing and mmap only when it forks its
    # noise process, so ``import tubeplan`` does not pay for them
    code = ("import sys, tubeplan; print(sorted({'multiprocessing', 'mmap'}"
            " & set(sys.modules)))")
    assert _run_python(code).strip() == "[]"

"""Package metadata: what the tests need to run is declared, and the
source counter counts what it says."""

import ast
import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qswarm.swarm import SwarmConfig

ROOT = Path(__file__).resolve().parents[1]


def load_counter():
    spec = importlib.util.spec_from_file_location("count_code_lines", ROOT / "tools" / "count_code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def imported_top_level_modules(folder: Path) -> set[str]:
    """Top-level names of the absolute imports in every module under ``folder``."""
    names = set()
    for path in folder.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_every_third_party_module_the_tests_import_is_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_") for req in requirements}
    imported = imported_top_level_modules(ROOT / "tests")
    third_party = imported - set(sys.stdlib_module_names) - {"qswarm"}
    assert {"numpy", "pytest", "hypothesis"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

# a comment line
def f(x):
    """One-line docstring."""
    return (x +
            1)  # a trailing comment
'''
    # Code lines: `def f(x):`, `return (x +` and `1)`.
    assert load_counter().code_lines(source) == 3


def test_counter_reads_the_surface_of_the_package():
    counter = load_counter()
    package = ROOT / "src" / "qswarm"
    swarm = (package / "swarm.py").read_text(encoding="utf-8")
    assert counter.field_count(swarm, "SwarmConfig") == len(dataclasses.fields(SwarmConfig))
    # A fresh process: importing other modules adds them to the package.
    public = subprocess.run(
        [sys.executable, "-c", "import qswarm; print(sum(not n.startswith('_') for n in vars(qswarm)))"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert counter.export_count((package / "__init__.py").read_text(encoding="utf-8")) == int(public.stdout)

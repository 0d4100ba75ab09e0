"""Package metadata: what the tests need to run is declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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

"""Package metadata: what the tests need to run is declared, and the
source counter counts what it says."""

import ast
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qswarm.cli import effective_config, load_config_file
from qswarm.experiments import BatchSpec
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE, SwarmConfig

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
    imported = set().union(*(imported_top_level_modules(ROOT / folder) for folder in ("src", "tests", "tools")))
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
    experiments = (package / "experiments.py").read_text(encoding="utf-8")
    assert counter.field_count(experiments, "BatchSpec") == len(dataclasses.fields(BatchSpec))
    public = public_names()
    assert counter.export_count((package / "__init__.py").read_text(encoding="utf-8")) == len(public)


def public_names() -> set[str]:
    """The public names of ``qswarm``, read in a fresh process: importing
    other modules adds them to the package."""
    public = subprocess.run(
        [sys.executable, "-c", "import qswarm; print(*(n for n in vars(qswarm) if not n.startswith('_')))"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return set(public.stdout.split())


def test_the_readme_lists_every_export_and_no_other_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    marker = "The top-level `qswarm` package exports these names"
    assert readme.count(marker) == 1
    # The sentence, then the list, each a paragraph of its own.
    listing = readme.split(marker, 1)[1].split("\n\n")[1]
    assert listing.startswith("- ")
    listed = re.findall(r"`([^`]+)`", listing)
    assert len(listed) == len(set(listed))
    assert set(listed) == public_names()


def readme_blocks(language: str) -> list[str]:
    """The bodies of the README's fenced blocks in ``language``, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)


def test_the_readme_code_runs(tmp_path):
    # The python blocks build on each other, so they run as one script.
    blocks = readme_blocks("python")
    assert len(blocks) == 2
    script = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert script.returncode == 0, script.stderr
    record_line, log_median = script.stdout.splitlines()
    final_value, evaluations, fallback_counts = record_line.split(" ", 2)
    assert math.isfinite(float(final_value)) and int(evaluations) > 0
    assert fallback_counts.startswith("{")
    assert math.isfinite(float(log_median))

    (config,) = readme_blocks("json")
    path = tmp_path / "config.json"
    path.write_text(config, encoding="utf-8")
    echo, spec = effective_config(load_config_file(str(path)), {})
    # The example states every key, so the echo adds no default to it.
    assert echo == json.loads(config)
    assert (spec.objective, spec.n_runs, spec.config.n_particles) == ("ackley", 400, 6)
    assert spec.variants == (VARIANT_STANDARD, VARIANT_SURROGATE)

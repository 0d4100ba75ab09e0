"""Count the code lines of the ``qswarm`` sources, per module and in total,
and the size of the package's surface.

A code line is a physical line that holds a Python token other than a
comment and is not part of a docstring (the string that opens a module,
class or function body). Blank lines, comment-only lines and docstring
lines do not count; every line of a statement that spans several lines
does.

The surface is read from the syntax trees, without importing the package:
the public names that ``qswarm/__init__.py`` binds at its top level (the
exports) and the fields of ``SwarmConfig`` in ``qswarm/swarm.py``.

Usage: ``python tools/count_code_lines.py [SRC_DIR]`` (default: the
``src`` directory next to ``tools``). Prints one ``<lines> <path>`` line per
module, sorted by path, then ``<lines> total``, ``<count> exports`` and
``<count> SwarmConfig fields``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text ``source``."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def export_count(source: str) -> int:
    """The public names bound at the top level of the module ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sum(not name.startswith("_") for name in names)


def field_count(source: str, class_name: str) -> int:
    """The annotated fields in the body of class ``class_name`` of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return sum(isinstance(item, ast.AnnAssign) for item in node.body)
    raise LookupError(f"no class {class_name}")


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.relative_to(root)}")
    print(f"{total:5d} total")
    package = root / "qswarm"
    print(f"{export_count((package / '__init__.py').read_text(encoding='utf-8')):5d} exports")
    swarm = (package / "swarm.py").read_text(encoding="utf-8")
    print(f"{field_count(swarm, 'SwarmConfig'):5d} SwarmConfig fields")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

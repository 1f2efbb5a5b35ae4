"""Every module of the library, the tests and the demos uses each name it
imports. Package __init__.py files only re-export, so they are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src/straightlaw", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)

# standard imports expand_word without calling it: bench/layertrace.py reads
# standard.expand_word.cache_info().
READ_FROM_OUTSIDE = {("standard.py", "expand_word")}


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level or nested import and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    unused = [entry for entry in unused_imports(path.read_text())
              if (path.name, entry.split()[0]) not in READ_FROM_OUTSIDE]
    assert not unused, f"{path.relative_to(ROOT)} imports unused names: {', '.join(unused)}"

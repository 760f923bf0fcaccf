"""The package runs on the standard library alone, and imports only what
it uses."""

import ast
import pathlib
import sys

import pytest

import eoexact

PACKAGE = pathlib.Path(eoexact.__file__).parent
ALLOWED = set(sys.stdlib_module_names)


def test_every_import_is_stdlib_or_relative():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    stray = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            stray += [(path.name, n) for n in names if n.split(".")[0] not in ALLOWED]
    assert stray == []


def test_every_import_is_used():
    # a name bound by an import must be read in its module: as an ast.Name,
    # which is also the root of every attribute chain such as f2.columns
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        dead.append((path.name, bound))
    assert dead == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"] == []

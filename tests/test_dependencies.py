"""The package runs on the standard library alone."""

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


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"] == []

"""Every exception class of the package is used by some module besides errors.py."""

import ast
import pathlib

import eoexact

PACKAGE = pathlib.Path(eoexact.__file__).parent


def test_every_error_class_is_referenced_outside_its_import():
    declared = [node.name for node in ast.parse((PACKAGE / "errors.py").read_text("utf-8")).body
                if isinstance(node, ast.ClassDef)]
    assert len(declared) > 10
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        # an import binds an alias, not an ast.Name, so imports alone count for nothing
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [name for name in declared if name not in used] == []

"""Every public top-level function and class of the package is used by the
package itself or by the benchmark, so that surface which only tests reach
cannot grow back unnoticed.  Test-side constructions live under tests/."""

import ast
import pathlib

import eoexact

PACKAGE = pathlib.Path(eoexact.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def references(node: ast.AST) -> set[str]:
    """The names a subtree mentions: ast.Name ids, ast.Attribute attrs and
    string constants (perfbench looks functions up by name).  An import
    binds an alias, not an ast.Name, so imports alone count for nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_public_definition_is_referenced_outside_itself():
    declared = []   # (file, name, index of its top-level statement)
    used = []       # (file, index of the top-level statement, names it mentions)
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        body = ast.parse(path.read_text("utf-8")).body
        for k, node in enumerate(body):
            used.append((path, k, references(node)))
            if path.parent == PACKAGE and \
                    isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_"):
                declared.append((path, node.name, k))
    assert len(declared) > 100
    unused = [f"{path.name}:{name}" for path, name, k in declared
              if not any(name in names for where, j, names in used
                         if (where, j) != (path, k))]
    assert unused == []

"""Source gate: every name a package module imports is used.

No linter ships with the test environment, so this walks the syntax
tree: a name bound by an import must be read as a name somewhere in the
module, or be re-exported through its ``__all__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cartankit"


def _unused_imports(tree: ast.Module) -> list:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_package_modules_import_nothing_unused():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}

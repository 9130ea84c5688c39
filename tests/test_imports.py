"""Source gates: every name a package module imports is used, no
module outside the kernel decides the form of a negated or scaled sum,
no module asserts an identity per request, the package neither imports
nor declares jsonschema, only holonomy's matrix functions call numpy's
linear algebra, and the names the benchmark's tracer wraps exist.

No linter ships with the test environment, so this walks the syntax
tree: a name bound by an import must be read as a name somewhere in the
module, or be re-exported through its ``__all__``.
"""

import ast
import importlib
import re
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


def _form_workarounds(tree: ast.Module) -> list:
    """``csum`` of a one-term tuple or list literal, which is that term,
    and imports of ``_section_form``: ways around the kernel's one form
    of a negated or scaled sum."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "csum" and len(node.args) == 1:
                arg = node.args[0]
                if (
                    isinstance(arg, (ast.Tuple, ast.List))
                    and len(arg.elts) == 1
                    and not isinstance(arg.elts[0], ast.Starred)
                ):
                    found.append(f"line {node.lineno}: csum of one term")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == "_section_form" for a in node.names):
                found.append(f"line {node.lineno}: imports _section_form")
    return found


def test_package_modules_leave_the_form_of_a_sum_to_symcore():
    workarounds = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _form_workarounds(ast.parse(path.read_text())))
    }
    assert workarounds == {}


def _assertion_raises(tree: ast.Module) -> list:
    """``raise AssertionError``, called or not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"line {node.lineno}")
    return found


def test_package_modules_raise_no_assertion_error():
    # an identity that holds by construction is gated in the tests, not
    # asserted on every request.  check_cartan's RuntimeError stays: the
    # compatibility check is two independent derivations by design, and
    # the verdict is the routes' agreement, not an identity of one route
    raises = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _assertion_raises(ast.parse(path.read_text())))
    }
    assert raises == {}


def _jsonschema_imports(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "jsonschema" for m in modules):
            found.append(f"line {node.lineno}")
    return found


def test_package_neither_imports_nor_depends_on_jsonschema():
    # cli interprets the spec schema itself; jsonschema is only the
    # tests' oracle for its wording
    imports = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _jsonschema_imports(ast.parse(path.read_text())))
    }
    assert imports == {}
    # the [project] table's dependency list (tomllib is Python 3.11+)
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert "jsonschema" not in dependencies.lower()


def _linalg_uses(tree: ast.Module) -> list:
    """The qualified name of the function or class around each use of a
    ``linalg`` module: an attribute read (``np.linalg``) or an import."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute):
                hit = child.attr == "linalg"
            elif isinstance(child, ast.Import):
                hit = any("linalg" in a.name.split(".") for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                modules = (child.module or "").split(".")
                hit = "linalg" in modules or any(a.name == "linalg" for a in child.names)
            else:
                hit = False
            if hit:
                found.append(".".join(scope) or "<module>")
            walk(child, scope)

    walk(tree, ())
    return sorted(set(found))


def test_only_holonomy_calls_numpy_linear_algebra():
    # validate, check and identities decide ranks and determinants by the
    # box scan of a symbolic determinant (Chart.rank_witness), so their
    # reports do not depend on the machine's LAPACK; the holonomy
    # transport's matrix logarithm needs eigenvalues for any size
    uses = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _linalg_uses(ast.parse(path.read_text())))
    }
    assert uses == {
        "cartan.py": [
            "HolonomyResult.defect_norm",
            "_sqrtm_denman_beavers",
            "principal_log",
        ]
    }


def _tracer_names() -> dict:
    """``MODULES`` and ``CONSTRUCTORS`` as ``bench/tracer.py`` assigns
    them, read from its syntax tree without importing it."""
    tree = ast.parse((SRC.parent.parent / "bench" / "tracer.py").read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("MODULES", "CONSTRUCTORS")
    }


def test_tracer_names_resolve_in_the_package():
    # the benchmark's tracer wraps each constructor's own __init__ by
    # name: a rename here would otherwise surface only in a traced run
    names = _tracer_names()
    assert sorted(names) == ["CONSTRUCTORS", "MODULES"]
    modules = {name: importlib.import_module(f"cartankit.{name}") for name in names["MODULES"]}
    for module, cls_name in names["CONSTRUCTORS"]:
        cls = getattr(modules[module], cls_name)
        assert isinstance(cls, type) and "__init__" in vars(cls), (module, cls_name)

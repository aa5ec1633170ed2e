"""The package imports nothing outside the standard library, and holds no
public name that only the tests use (those belong in `tests/oracles.py`).

Every absolute import in `src/graphvariety/*.py` must name a standard
library module; the test-only dependencies (pytest, hypothesis, sympy,
networkx) stay out of the package.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphvariety"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def names_read(path):
    """The names a module reads or imports, and the attributes it reads off
    a name spelled like a package module."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} | {PACKAGE.name}
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)
               and isinstance(n.value, ast.Name) and n.value.id in modules}
            | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})


def attributes_read(path):
    """The attribute names a module reads, as in `x.name`."""
    return {n.attr for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def traced_methods():
    """The method names in perfbench's `tracing.METHODS`, which wraps them by name."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    table = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["METHODS"])
    return {name for names in table.values() for name in names}


def test_every_public_name_has_a_use_outside_the_tests():
    """Each public top-level function, class or constant is read by its own
    module, another package module besides `__init__`, or perfbench.  Each
    public method or property of a package class is read as an attribute by
    those modules, or is wrapped by name by perfbench's tracer."""
    sources = sorted(PACKAGE.glob("*.py"))
    users = [p for p in sources if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(names_read, users))
    attributes = set().union(*map(attributes_read, users)) | traced_methods()
    trees = [(path, ast.parse(path.read_text())) for path in sources]
    unused = [f"{path.name}: {name}" for path, tree in trees for node in tree.body
              for name in ([t.id for t in node.targets if isinstance(t, ast.Name)]
                           if isinstance(node, ast.Assign) else [getattr(node, "name", "_")])
              if not name.startswith("_") and name not in read]
    unused += [f"{path.name}: {cls.name}.{node.name}" for path, tree in trees
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_") and node.name not in attributes]
    assert not unused, f"only tests use {unused}: move them to tests/oracles.py"

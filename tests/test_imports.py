"""Every module-level import of the package is read by its module, is
re-exported through ``__all__``, or is one of the names kept only for tools
that wrap a function where each module looks it up (``# noqa: F401``)."""

import ast
from pathlib import Path

import xvadg

PACKAGE = Path(xvadg.__file__).parent

#: the names kept only as lookup points for bench/tracing.py's patches
TRACER_ONLY = {("drivers", "capital_requirement"), ("solver", "source_term"),
               ("fbsde", "driver_value")}


def _module_imports(tree: ast.Module):
    """(bound name, first line, last line) of each module-level import,
    ``from __future__`` aside, including those under a top-level ``if`` or
    ``try``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield name, node.lineno, node.end_lineno


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> tuple[list, list]:
    """The unused module-level import names of ``source``, and the names
    exempted by ``# noqa: F401`` on their import's lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = _exported(tree)
    unused, noqa = [], []
    for name, first, last in _module_imports(tree):
        if name in read or name in exported:
            continue
        if any("# noqa: F401" in line for line in lines[first - 1:last]):
            noqa.append(name)
        else:
            unused.append(name)
    return unused, noqa


def test_every_module_level_import_is_read():
    unused, noqa = {}, set()
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        names, kept = unused_imports(path.read_text())
        if names:
            unused[path.stem] = names
        noqa |= {(path.stem, name) for name in kept}
    assert unused == {}
    # a new tracer-only import is a deliberate edit of this set
    assert noqa == TRACER_ONLY


def test_the_check_sees_a_planted_unused_import():
    source = (PACKAGE / "drivers.py").read_text()
    planted = source.replace("import numpy as np\n",
                             "import numpy as np\nimport math\n", 1)
    assert planted != source
    assert unused_imports(planted) == (["math"], ["capital_requirement"])
    assert unused_imports("from x import (a,\n    b)  # noqa: F401\nb\n") == ([], ["a"])
    assert unused_imports("from __future__ import annotations\nimport os\n"
                          "__all__ = ['os']\n") == ([], [])

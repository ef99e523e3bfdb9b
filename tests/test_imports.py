"""Every module-level import of the package is read by its module, or is
one of the names kept only for tools that wrap a function where each module
looks it up (``# noqa: F401``).  A name listed in ``__all__`` is not read by
that, so no module re-exports an import, and each name has one home.  No
module of the package assigns ``__all__`` at all: the modules are the API,
and nothing star-imports them.  Every
module-level definition of the package is read somewhere in the package,
its tests or its benchmark.  Every Sphinx role reference in the package's
docstrings and comments names an object of the package.  Every test file
of ``tests/`` and ``bench/`` has a row in README's validation map."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import xvadg

PACKAGE = Path(xvadg.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
README = ROOT / "README.md"

#: the names kept only as lookup points for bench/tracing.py's patches
TRACER_ONLY = {("drivers", "capital_requirement"), ("fbsde", "driver_value")}


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


def unused_imports(source: str) -> tuple[list, list]:
    """The unused module-level import names of ``source``, and the names
    exempted by ``# noqa: F401`` on their import's lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused, noqa = [], []
    for name, first, last in _module_imports(tree):
        if name in read:
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


def tracer_patches(source: str) -> set:
    """The (owner, attribute) pairs of the ``PATCHES`` table in the tracer's
    ``source``, read with ``ast``: the tracer is neither imported nor run."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["PATCHES"]:
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError("no PATCHES table in the tracer")


def test_every_tracer_only_import_is_patched_by_the_tracer():
    # a tracer-only import outlives its patch only by failing here
    patched = tracer_patches(TRACING.read_text())
    assert len(patched) > 10
    assert {(f"xvadg.{module}", name) for module, name in TRACER_ONLY} <= patched


def test_the_check_sees_a_planted_unused_import():
    source = (PACKAGE / "drivers.py").read_text()
    planted = source.replace("import numpy as np\n",
                             "import numpy as np\nimport math\n", 1)
    assert planted != source
    assert unused_imports(planted) == (["math"], ["capital_requirement"])
    assert unused_imports("from x import (a,\n    b)  # noqa: F401\nb\n") == ([], ["a"])
    assert unused_imports("from __future__ import annotations\nimport os\n"
                          "__all__ = ['os']\n") == (["os"], [])


def _module_definitions(tree: ast.Module):
    """The names that ``tree`` binds at module level by ``def``, ``class``
    or assignment, including under a top-level ``if`` or ``try``; ``__all__``
    aside."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield name.id


def names_read(source: str) -> set:
    """Every name ``source`` could read a definition by: a loaded name, an
    attribute, an imported name, or a string that is an identifier (the
    tracer's ``PATCHES`` name what it wraps in strings).  Listing a name in
    ``__all__`` does not read it."""
    tree = ast.parse(source)
    tree.body = [node for node in tree.body
                 if not any(getattr(target, "id", None) == "__all__"
                            for target in getattr(node, "targets", ()))]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            read.add(node.value)
    return read


def unread_definitions(modules: dict, readers) -> dict:
    """The module-level definitions of each ``modules`` source (keyed by
    module) that neither the modules nor the ``readers`` sources read."""
    read = set().union(*map(names_read, [*modules.values(), *readers]))
    unread = {}
    for module, source in modules.items():
        names = sorted(set(_module_definitions(ast.parse(source))) - read)
        if names:
            unread[module] = names
    return unread


def _package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _reader_sources() -> list:
    return [path.read_text() for folder in ("tests", "bench")
            for path in sorted((ROOT / folder).glob("*.py"))]


def test_every_module_level_definition_is_read():
    modules = _package_sources()
    assert sum(len(set(_module_definitions(ast.parse(source))))
               for source in modules.values()) > 150
    assert unread_definitions(modules, _reader_sources()) == {}


def test_the_check_sees_a_planted_unused_definition():
    # the planted names appear here only inside the planted source, which
    # is not an identifier string, so this file does not read them
    plant = "\n\ndef _planted_helper():\n    return 0\n\n_PLANTED = 1\n"
    planted = sorted(_module_definitions(ast.parse(plant)))
    assert len(planted) == 2
    modules = _package_sources()
    modules["drivers"] += plant
    assert unread_definitions(modules, _reader_sources()) == {"drivers": planted}
    assert unread_definitions({"m": "def f():\n    pass\n"}, ["import m\nm.f()\n"]) == {}
    assert unread_definitions({"m": "f = 1\n"}, ["PATCHES = (('m', 'f'),)\n"]) == {}
    assert unread_definitions({"m": "__all__ = ['g']\nif True:\n    g = 1\n"}, []) == {
        "m": ["g"]}


def all_assignments(source: str) -> list:
    """The lines on which ``source`` binds ``__all__``: plain, annotated or
    augmented assignment, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "__all__"
                  and isinstance(node.ctx, ast.Store))


def test_no_module_assigns_all():
    assigned = {module: lines for module, source in _package_sources().items()
                if (lines := all_assignments(source))}
    assert assigned == {}


def test_the_check_sees_a_planted_all():
    source = (PACKAGE / "solver.py").read_text()
    assert all_assignments(source) == []
    planted = source + '\n__all__ = ["solve"]\n'
    assert all_assignments(planted) == [len(source.splitlines()) + 2]
    assert all_assignments("x = 1\n__all__: list = []\nif x:\n    __all__ += ['x']\n"
                           "try:\n    (__all__, y) = ([], 0)\nexcept Exception:\n"
                           "    pass\n") == [2, 4, 6]
    # a read of the name, or the name in a string, binds nothing
    assert all_assignments("names = ['__all__']\nprint(__all__)\n") == []


#: a Sphinx cross-reference: its role and its target, ``~`` aside
_REFERENCE = re.compile(r":(func|class|meth|mod):`~?([\w.]+)`")


def _has_path(obj, names) -> bool:
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _resolves(target: str, module) -> bool:
    """Whether ``target`` names an object of the package: read relative to
    ``module``, or ``xvadg.``-qualified from its longest importable prefix."""
    parts = target.split(".")
    if _has_path(module, parts):
        return True
    if parts[0] != xvadg.__name__:
        return False
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _has_path(owner, parts[cut:])
    return False


def unresolved_references(source: str, module: str) -> list:
    """The targets of the Sphinx role references in ``source`` (the text of
    package module ``module``) that name no object of the package."""
    owner = importlib.import_module(f"{xvadg.__name__}.{module}")
    return [target for _, target in _REFERENCE.findall(source)
            if not _resolves(target, owner)]


def test_every_docstring_reference_resolves():
    sources = _package_sources()
    assert sum(len(_REFERENCE.findall(source)) for source in sources.values()) > 25
    unresolved = {module: names for module, source in sources.items()
                  if (names := unresolved_references(source, module))}
    assert unresolved == {}


def test_the_check_sees_a_planted_unresolved_reference():
    source = (PACKAGE / "drivers.py").read_text()
    planted = source + '\n"""See :func:`no_such_level` and :meth:`CapitalLevel.nothing`."""\n'
    assert unresolved_references(source, "drivers") == []
    assert unresolved_references(planted, "drivers") == ["no_such_level",
                                                          "CapitalLevel.nothing"]
    # module-relative (an import of the module counts), qualified, and ~
    assert unresolved_references(
        ":class:`CapitalLevel` :meth:`~xvadg.capital.CapitalLevel.total` "
        ":mod:`xvadg.solver` :mod:`xvadg.nothing` :func:`numpy.log` "
        ":func:`xvadg.capital.capital_level_at`", "capital") == [
            "xvadg.nothing", "numpy.log", "xvadg.capital.capital_level_at"]


def unmapped_test_files(readme: str, files) -> list:
    """The ``files`` (``tests/test_x.py`` style paths) that the validation
    map of ``readme``, its "## Validation map" section, does not name in
    backticks."""
    section = readme.partition("\n## Validation map\n")[2].partition("\n## ")[0]
    named = set(re.findall(r"`((?:tests|bench)/test_\w+\.py)`", section))
    return [name for name in files if name not in named]


def _test_files() -> list:
    return [f"{folder}/{path.name}" for folder in ("tests", "bench")
            for path in sorted((ROOT / folder).glob("test_*.py"))]


def test_every_test_file_is_in_the_validation_map():
    files = _test_files()
    assert len(files) > 10
    assert unmapped_test_files(README.read_text(), files) == []


def test_the_check_sees_a_planted_unmapped_test_file():
    readme = README.read_text()
    files = _test_files()
    row = "| the ten acceptance criteria | `tests/test_acceptance.py` |\n"
    assert row in readme
    assert unmapped_test_files(readme.replace(row, ""), files) == [
        "tests/test_acceptance.py"]
    assert unmapped_test_files(readme, [*files, "bench/test_planted.py"]) == [
        "bench/test_planted.py"]
    # a file named outside the map's section is not in the map
    planted = ("`tests/test_a.py`\n## Validation map\n| b | `bench/test_b.py` |\n"
               "## Next\n`tests/test_c.py`\n")
    assert unmapped_test_files(planted, ["tests/test_a.py", "bench/test_b.py",
                                         "tests/test_c.py"]) == [
        "tests/test_a.py", "tests/test_c.py"]


def test_the_config_module_loads_no_other_module_of_the_package():
    code = ("import sys, xvadg.config; print(' '.join(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('scipy', 'xvadg'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.split() == ["xvadg", "xvadg.config"]

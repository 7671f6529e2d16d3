"""Source checks that need no linter: every name a qcsim module imports is
used in that module, only the optical elements draw normals, and only the
normal draw starts threads.

`__init__.py` is left out, because its imports are the package's public
names and are re-exported rather than used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `from m import x as y` binds `y`.
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_check_flags_an_unused_import():
    tree = ast.parse(
        "import math\nfrom os import path as p, sep\nimport numpy.linalg\n"
        "print(sep, numpy)\n"
    )
    assert _unused_imports(tree) == ["math (line 1)", "p (line 2)"]


#: The functions of `src/qcsim/` that may call `.standard_normal(`: the EPR
#: source, the beam splitter, the QND probe and the detector noise, one
#: function per element that admits noise, and the stream draw they go
#: through.  A second copy of an element fails here.
DRAWS_NORMALS = {
    "sample_slots",
    "beam_splitter",
    "qnd_measure",
    "DetectorConfig.add_noise",
    "RngStream.standard_normal",
}


def _normal_draws(tree: ast.Module) -> list[str]:
    """Qualified names of the functions or classes that call
    `.standard_normal(`, one entry per call, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "standard_normal"
            ):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_the_optical_elements_draw_normals():
    drawn = {
        name
        for path in MODULES
        for name in _normal_draws(ast.parse(path.read_text(), filename=str(path)))
    }
    assert drawn == DRAWS_NORMALS


def test_check_names_each_function_that_draws_normals():
    tree = ast.parse(
        "class A:\n    def f(self, rng):\n        return rng.standard_normal(2)\n"
        "def g(rng):\n    draw = rng.standard_normal\n"
        "    return [draw(1), rng.standard_normal(1)]\n"
        "x = RNG.standard_normal(3)\n"
    )
    assert _normal_draws(tree) == ["A.f", "g", "<module>"]


#: Modules that start or manage threads.  Only `quadrature.py`, whose frame
#: rows fill on a helper thread, may import them, so that every thread of
#: qcsim is in one place.
THREAD_MODULES = ("threading", "concurrent.futures")


def _thread_imports(tree: ast.Module) -> list[str]:
    """Each import of a thread module or of a name inside one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"{name} (line {node.lineno})"
            for name in names
            if any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)
        ]
    return found


def test_only_the_normal_draw_imports_threads():
    importing = {
        path.name
        for path in SRC.glob("*.py")
        if _thread_imports(ast.parse(path.read_text(), filename=str(path)))
    }
    assert importing == {"quadrature.py"}


def test_check_flags_each_thread_import():
    tree = ast.parse(
        "import threading\nfrom concurrent import futures\nimport queue\n"
        "from concurrent.futures import ThreadPoolExecutor as Pool\n"
        "import concurrent.futures.thread\nfrom threading import Lock\n"
        "from . import threading_notes\nimport threadingx\n"
    )
    assert _thread_imports(tree) == [
        "threading (line 1)",
        "concurrent.futures (line 2)",
        "concurrent.futures (line 4)",
        "concurrent.futures.ThreadPoolExecutor (line 4)",
        "concurrent.futures.thread (line 5)",
        "threading (line 6)",
        "threading.Lock (line 6)",
    ]

"""Source checks that need no linter: every name a qcsim module imports is
used in that module, only the optical elements draw normals, only the
normal draw starts threads, its helper thread runs no stage, and the
session's draws ahead are its only way onto that thread.

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


def _callers(tree: ast.Module, name: str) -> list[str]:
    """Qualified names of the functions or classes that call `name`, as
    `name(` or `.name(`, one entry per call, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and name in (
                getattr(child.func, "attr", None),
                getattr(child.func, "id", None),
            ):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]


def test_only_the_optical_elements_draw_normals():
    drawn = {name for tree in _trees() for name in _callers(tree, "standard_normal")}
    assert drawn == DRAWS_NORMALS


def test_check_names_each_function_that_draws_normals():
    tree = ast.parse(
        "class A:\n    def f(self, rng):\n        return rng.standard_normal(2)\n"
        "def g(rng):\n    draw = rng.standard_normal\n"
        "    return [draw(1), rng.standard_normal(1)]\n"
        "x = RNG.standard_normal(3)\n"
    )
    assert _callers(tree, "standard_normal") == ["A.f", "g", "<module>"]


#: The one threaded path, and the functions that alone may call each of its
#: steps: only `run_session` draws ahead, and only `FrameRows.prefetch`
#: reaches the helper thread or makes a shared draw, so every other draw
#: fills serially on the calling thread.
THREADED_PATH = {
    "prefetch": {"run_session.draw_ahead"},
    "_row_helper": {"FrameRows.prefetch"},
    "_Job": {"FrameRows.prefetch"},
}


def _threaded_callers(trees) -> dict[str, set[str]]:
    """The functions that call each step of `THREADED_PATH`."""
    return {
        step: {caller for tree in trees for caller in _callers(tree, step)}
        for step in THREADED_PATH
    }


def test_only_the_draws_ahead_run_on_the_helper_thread():
    assert _threaded_callers(_trees()) == THREADED_PATH


def test_check_flags_a_shared_draw_planted_in_the_plain_draw():
    tree = ast.parse((SRC / "quadrature.py").read_text())
    frame_rows = next(n for n in tree.body if getattr(n, "name", "") == "FrameRows")
    draw = next(n for n in frame_rows.body if getattr(n, "name", "") == "standard_normal")
    draw.body.insert(0, ast.parse("_Job(self.seed, [], None, ())").body[0])
    called = _threaded_callers([tree])
    assert called["_Job"] == {"FrameRows.prefetch", "FrameRows.standard_normal"}


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


def _defined_names(trees) -> set[str]:
    """Every function, method and class name that the modules define."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {n.name for tree in trees for n in ast.walk(tree) if isinstance(n, kinds)}


def _thread_targets(tree: ast.Module) -> list[str]:
    """The names passed as a `target=` keyword, in source order."""
    calls = sorted(
        (n for n in ast.walk(tree) if isinstance(n, ast.Call)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    return [
        k.value.id
        for n in calls
        for k in n.keywords
        if k.arg == "target" and isinstance(k.value, ast.Name)
    ]


def _definitions(tree: ast.Module, name: str) -> list:
    """Every function or method of `tree` named `name`."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [n for n in ast.walk(tree) if isinstance(n, kinds) and n.name == name]


def _calls_among(tree: ast.Module, function: str, names: set[str]) -> list[str]:
    """The names in `names` that the functions or methods named `function`
    call, by name or as an attribute, in source order."""
    calls = sorted(
        (n for body in _definitions(tree, function) for n in ast.walk(body)
         if isinstance(n, ast.Call)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    called = [getattr(n.func, "id", getattr(n.func, "attr", None)) for n in calls]
    return [name for name in called if name in names]


def _reached(tree: ast.Module, function: str, names: set[str]) -> list[str]:
    """The names in `names` that `function` calls, and those that the ones
    `tree` defines call in turn, each once, in the order found."""
    reached, todo = [], [function]
    while todo:
        for name in _calls_among(tree, todo.pop(0), names):
            if name not in reached:
                reached.append(name)
                todo.append(name)
    return reached


def _package_names() -> set[str]:
    return _defined_names(ast.parse(path.read_text()) for path in MODULES)


def test_the_helper_thread_calls_only_the_row_fill():
    # `bench/tracing.py` keeps one span stack and plain counters: a traced
    # stage run on the helper thread would interleave spans and race counts.
    # The helper works on shared draws, whose claim loop fills rows.
    tree = ast.parse((SRC / "quadrature.py").read_text())
    assert _thread_targets(tree) == ["_serve"]
    assert _reached(tree, "_serve", _package_names()) == ["work", "_fill_rows"]


def test_check_names_each_thread_target_and_its_package_calls():
    tree = ast.parse(
        "def serve(jobs):\n    job = jobs.get()\n    fill(job)\n    stage.run(job)\n"
        "    print(job)\n    fill(job)\n"
        "Thread(target=serve, daemon=True)\nThread(target=idle)\nThread(run)\n"
    )
    assert _thread_targets(tree) == ["serve", "idle"]
    assert _calls_among(tree, "serve", {"fill", "run", "serve"}) == [
        "fill",
        "run",
        "fill",
    ]


def test_check_follows_the_helper_into_the_methods_it_calls():
    tree = ast.parse(
        "def serve(jobs):\n    while True:\n        jobs.get().work()\n"
        "class Job:\n    def work(self):\n        fill(self)\n        stage.run(self)\n"
        "def fill(job):\n    draw(job)\n    fill(job)\n"
    )
    names = {"serve", "work", "fill", "run", "draw"}
    assert _reached(tree, "serve", names) == ["work", "fill", "run", "draw"]


def test_check_flags_a_package_call_planted_in_the_claim_loop():
    tree = ast.parse((SRC / "quadrature.py").read_text())
    (work,) = _definitions(tree, "work")
    loop = next(n for n in ast.walk(work) if isinstance(n, ast.While))
    loop.body.append(ast.parse("trace_stats(self.out)").body[0])
    reached = _reached(tree, "_serve", _package_names())
    assert sorted(reached) == ["_fill_rows", "trace_stats", "work"]

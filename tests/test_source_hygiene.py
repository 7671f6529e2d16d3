"""Source checks that need no linter: every name a qcsim module imports is
used in that module, only the optical elements draw normals, only the
normal draw starts threads, its helper thread runs no stage, the
session's draws ahead are its only way onto that thread, only the trace
writer forks, one function counts the usable CPUs, every file is
written as bytes, every config record checks its numbers first, no
NumPy transcendental ufunc touches data, and one helper checks each fixed
closed interval.

`__init__.py` is left out, because its imports are the package's public
names and are re-exported rather than used.
"""

import ast
from pathlib import Path

import numpy as np
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


def _scopes(tree: ast.Module, matches) -> list[str]:
    """Qualified names of the functions or classes that hold a node for
    which `matches(node)` is true, one entry per node, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif matches(child):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def _callers(tree: ast.Module, name: str) -> list[str]:
    """Qualified names of the functions or classes that call `name`, as
    `name(` or `.name(`, one entry per call, in source order."""
    return _scopes(tree, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)
    ))


def _mentions(tree: ast.Module, word: str) -> list[str]:
    """Qualified names of the functions or classes that name `word`, as a
    name, an attribute or a string, one entry per mention, in source order."""
    return _scopes(tree, lambda node: word in (
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "value", None)
    ))


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
#: reaches the helper thread, makes a shared draw or submits work to the
#: helper, so every other draw fills serially on the calling thread.
THREADED_PATH = {
    "prefetch": {"run_session.draw_ahead"},
    "_row_helper": {"FrameRows.prefetch"},
    "_Job": {"FrameRows.prefetch"},
    "submit": {"FrameRows.prefetch"},
}


def _step_callers(trees, steps) -> dict[str, set[str]]:
    """The functions that call each step of `steps`."""
    return {
        step: {caller for tree in trees for caller in _callers(tree, step)}
        for step in steps
    }


def test_only_the_draws_ahead_run_on_the_helper_thread():
    assert _step_callers(_trees(), THREADED_PATH) == THREADED_PATH


def test_check_flags_a_shared_draw_planted_in_the_plain_draw():
    tree = ast.parse((SRC / "quadrature.py").read_text())
    frame_rows = next(n for n in tree.body if getattr(n, "name", "") == "FrameRows")
    draw = next(n for n in frame_rows.body if getattr(n, "name", "") == "standard_normal")
    draw.body.insert(0, ast.parse("_Job(self.seed, [], None, ())").body[0])
    called = _step_callers([tree], THREADED_PATH)
    assert called["_Job"] == {"FrameRows.prefetch", "FrameRows.standard_normal"}


#: The one process path: only the trace writer forks a child, ends it and
#: reaps it, so no other code of qcsim runs in a forked child.
FORKING_PATH = {
    "fork": {"write_trace_files"},
    "_exit": {"write_trace_files"},
    "waitpid": {"write_trace_files"},
}


def test_only_the_trace_writer_forks_ends_and_reaps_a_child():
    assert _step_callers(_trees(), FORKING_PATH) == FORKING_PATH


def test_check_flags_a_second_process_caller_planted_in_the_report():
    tree = ast.parse((SRC / "report.py").read_text())
    (write,) = _definitions(tree, "write_report")
    write.body.insert(0, ast.parse("os.waitpid(os.fork(), 0)").body[0])
    called = _step_callers([tree], FORKING_PATH)
    assert called["fork"] == called["waitpid"] == {"write_report", "write_trace_files"}
    assert called["_exit"] == {"write_trace_files"}


def test_the_row_helper_and_the_trace_writer_read_one_cpu_count():
    trees = _trees()
    callers = sorted(caller for tree in trees for caller in _callers(tree, "usable_cpus"))
    assert callers == ["_row_helper", "write_trace_files"]
    assert [m for tree in trees for m in _mentions(tree, "sched_getaffinity")] == [
        "usable_cpus"
    ]


def test_check_flags_a_cpu_count_planted_in_the_row_helper():
    tree = ast.parse((SRC / "quadrature.py").read_text())
    (helper,) = _definitions(tree, "_row_helper")
    helper.body.insert(0, ast.parse("n = len(os.sched_getaffinity(0))").body[0])
    assert _mentions(tree, "sched_getaffinity") == ["usable_cpus", "_row_helper"]


def _text_writes(tree: ast.Module) -> list[str]:
    """Each `write_text(` or `.write_text(` call, and each `open(` or
    `.open(` call whose mode is not a binary one, in source order.
    `os.open` returns a descriptor, which has no text mode."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "write_text":
            found.append((node.lineno, name))
        elif name == "open" and (owner := getattr(
            getattr(node.func, "value", None), "id", None)) != "os":
            # The mode follows the path of `open(path, mode)` and
            # `io.open(path, mode)`, but comes first in `Path.open(mode)`.
            at = 1 if isinstance(node.func, ast.Name) or owner == "io" else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            mode = node.args[at] if len(node.args) > at else next(iter(modes), None)
            if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_every_file_is_opened_as_bytes():
    # Text mode turns each newline into the platform's line end and encodes
    # in the locale's encoding, so a file could differ by platform.
    assert [
        f"{path.name}: {write}"
        for path in MODULES
        for write in _text_writes(ast.parse(path.read_text(), filename=str(path)))
    ] == []


def test_check_flags_each_text_write():
    tree = ast.parse(
        "Path(p).write_text(s)\nopen(p, 'w')\nwith open(p) as f:\n    pass\n"
        "open(p, 'rb')\nopen(p, mode='wb')\nopen(p, mode)\nwrite_text(p, s)\n"
        "open(p, mode='a')\npath.open('w')\npath.open('rb')\nos.open(p, flags)\n"
        "io.open(p, 'w')\nio.open(p, 'wb')\n"
    )
    assert _text_writes(tree) == [
        "write_text (line 1)",
        "open (line 2)",
        "open (line 3)",
        "open (line 7)",
        "write_text (line 8)",
        "open (line 9)",
        "open (line 10)",
        "open (line 13)",
    ]


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


def _submitted(tree: ast.Module) -> list[str]:
    """The callables passed first to each `submit(` or `.submit(` call, by
    name or as an attribute, in source order."""
    calls = sorted(
        (n for n in ast.walk(tree) if isinstance(n, ast.Call) and n.args and "submit"
         in (getattr(n.func, "attr", None), getattr(n.func, "id", None))),
        key=lambda n: (n.lineno, n.col_offset),
    )
    return [getattr(n.args[0], "attr", getattr(n.args[0], "id", None)) for n in calls]


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
    # The helper is an executor's worker, and `src/` starts no thread of its
    # own.  Its one task is a shared draw's claim loop, which fills rows.
    trees = _trees()
    assert [caller for tree in trees for caller in _callers(tree, "Thread")] == []
    submitting = [caller for tree in trees for caller in _callers(tree, "submit")]
    assert submitting == ["FrameRows.prefetch"]
    tree = ast.parse((SRC / "quadrature.py").read_text())
    assert _submitted(tree) == ["work"]
    assert _reached(tree, "work", _package_names()) == ["_fill_rows"]


def test_check_names_each_thread_target_and_its_package_calls():
    tree = ast.parse(
        "def serve(jobs):\n    job = jobs.get()\n    fill(job)\n    stage.run(job)\n"
        "    print(job)\n    fill(job)\n"
        "pool.submit(serve, 1)\npool.submit(job.work)\npool.submit()\nsubmit(idle)\n"
        "Thread(target=run)\n"
    )
    assert _submitted(tree) == ["serve", "work", "idle"]
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
    reached = _reached(tree, "work", _package_names())
    assert sorted(reached) == ["_fill_rows", "trace_stats"]


def test_check_flags_another_callable_submitted_to_the_helper():
    tree = ast.parse((SRC / "quadrature.py").read_text())
    (prefetch,) = _definitions(tree, "prefetch")
    prefetch.body.append(ast.parse("executor.submit(self.standard_normal, shape)").body[0])
    assert sorted(_submitted(tree)) == ["standard_normal", "work"]
    assert _callers(tree, "submit") == ["FrameRows.prefetch"] * 2


def _config_records() -> set[str]:
    """The classes whose keys `config._KNOWN_KEYS` reads, by name, with
    `ATTACKS` read as its spec classes."""
    from qcsim import config
    from qcsim.adversary import ATTACKS

    tree = ast.parse((SRC / "config.py").read_text())
    (known,) = [n.value for n in tree.body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == "_KNOWN_KEYS"]
    records = set()
    for name in {n.id for n in ast.walk(known) if isinstance(n, ast.Name)}:
        value = vars(config).get(name)
        if value is ATTACKS:
            records |= {cls.__name__ for cls in ATTACKS.values()}
        elif isinstance(value, type):
            records.add(name)
    return records


def _numbers_unchecked(tree: ast.Module, records: set[str]) -> list[str]:
    """The classes of `tree` named in `records` that have an `int` or
    `float` field but whose `__post_init__` does not start with
    `_check_numbers(self`, in source order."""
    found = []
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in records):
            continue
        types = [ast.unparse(n.annotation) for n in node.body if isinstance(n, ast.AnnAssign)]
        if not any(t == "int" or t.startswith("float") for t in types):
            continue
        post_init = [n.body[0] for n in node.body if getattr(n, "name", "") == "__post_init__"]
        first = getattr(post_init[0], "value", None) if post_init else None
        if not (isinstance(first, ast.Call) and getattr(first.func, "id", None)
                == "_check_numbers" and first.args and ast.unparse(first.args[0]) == "self"):
            found.append(node.name)
    return found


def test_every_config_record_checks_its_numbers_first():
    # `_check_numbers` is the one type and finiteness rule of a record's
    # numbers, so a field added later gets it with no check of its own.
    records, trees = _config_records(), _trees()
    assert {"SessionConfig", "Thresholds", "SpectrumSettings", "Tap", "Qnd"} <= records
    assert records <= _defined_names(trees)
    assert [name for tree in trees for name in _numbers_unchecked(tree, records)] == []


def test_check_flags_a_record_that_checks_its_numbers_late_or_never():
    tree = ast.parse((SRC / "adversary.py").read_text())
    tap = next(n for n in tree.body if getattr(n, "name", "") == "Tap")
    (post_init,) = [n for n in tap.body if getattr(n, "name", "") == "__post_init__"]
    post_init.body.reverse()
    no_attack = next(n for n in tree.body if getattr(n, "name", "") == "NoAttack")
    no_attack.body.append(ast.parse("alpha: float = 0.05").body[0])
    assert _numbers_unchecked(tree, _config_records()) == ["NoAttack", "Tap"]
    tree = ast.parse(
        "class A:\n    n: int = 1\n    def __post_init__(self):\n        check(self)\n"
        "class B:\n    s: str = ''\n"
        "class C:\n    x: float | None = None\n"
        "class D:\n    x: float = 1.0\n    def __post_init__(self):\n"
        "        _check_numbers(self, ConfigError)\n"
        "class E:\n    x: float = 1.0\n    def __post_init__(self):\n"
        "        _check_numbers(other)\n"
        "class F:\n    x: float = 1.0\n"
    )
    assert _numbers_unchecked(tree, {"A", "B", "C", "D", "E"}) == ["A", "C", "E"]


#: NumPy's transcendental ufuncs, NumPy 2's short aliases included.  Their
#: SIMD loops round differently per CPU target, so a value they compute
#: could print differently on another host; `math` computes each scalar
#: with the platform's libm instead.  `np.sqrt` is correctly rounded on
#: every target, and stays allowed.
TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
    "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
    "asin", "acos", "atan", "atan2", "asinh", "acosh", "atanh",
    "power", "float_power", "pow",
}


def _numpy_transcendentals(tree: ast.Module) -> list[str]:
    """Each `np.f` or `numpy.f` attribute, and each name imported from
    numpy, that is one of `TRANSCENDENTALS`, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in (
            "np", "numpy"
        ):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, f"np.{n}") for n in names if n in TRANSCENDENTALS]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_no_numpy_transcendental_touches_data():
    assert [
        f"{path.name}: {call}"
        for path in SRC.glob("*.py")
        for call in _numpy_transcendentals(ast.parse(path.read_text(), filename=str(path)))
    ] == []


def test_check_flags_each_numpy_transcendental():
    tree = ast.parse(
        "np.sqrt(x)\nnp.log10(x)\nnumpy.cosh(r)\nf = np.exp\nnp.expand_dims(x, 0)\n"
        "np.logical_and(a, b)\nmath.log10(x)\nfrom numpy import power, sqrt\n"
        "np.arctan2(y, x)\nx.log(2)\nnp.float_power(x, y)\n"
    )
    assert _numpy_transcendentals(tree) == [
        "np.log10 (line 2)",
        "np.cosh (line 3)",
        "np.exp (line 4)",
        "np.power (line 8)",
        "np.arctan2 (line 9)",
        "np.float_power (line 11)",
    ]
    # Each listed name is a ufunc of this NumPy where it has the name, and
    # each of its exp and log ufuncs is listed.
    ufuncs = {name for name, f in vars(np).items() if isinstance(f, np.ufunc)}
    assert {name for name in TRANSCENDENTALS if hasattr(np, name)} <= ufuncs
    assert {
        name for name in ufuncs
        if name.startswith(("exp", "log")) and not name.startswith("logical")
    } <= TRANSCENDENTALS


def _fixed_closed_intervals(tree: ast.Module) -> list[str]:
    """The functions or classes that hold a chained `0 <= x <= hi` whose
    upper end is a number or an upper-case constant, such as
    `0.0 <= eta <= 1.0` or `0.0 <= r <= R_MAX`, one entry per check."""

    def fixed(end):
        if isinstance(end, ast.Constant):
            return type(end.value) in (int, float)
        return isinstance(end, ast.Name) and end.id.isupper()

    return _scopes(tree, lambda node: isinstance(node, ast.Compare)
                   and [type(op) for op in node.ops] == [ast.LtE, ast.LtE]
                   and getattr(node.left, "value", None) == 0
                   and fixed(node.comparators[1]))


def test_one_helper_checks_each_fixed_closed_interval():
    # `_check_interval` refuses bools and non-reals and writes one message
    # for every bounded scalar; a hand-written check would let `True` by.
    assert [
        f"{path.name}: {scope}"
        for path in MODULES
        for scope in _fixed_closed_intervals(ast.parse(path.read_text(), filename=str(path)))
    ] == []
    tree = ast.parse((SRC / "adversary.py").read_text())
    assert "_check_tau" not in _package_names() and not _mentions(tree, "_check_tau")


def test_check_flags_a_closed_interval_planted_in_the_loss_stage():
    tree = ast.parse((SRC / "quadrature.py").read_text())
    (loss,) = _definitions(tree, "apply_loss")
    loss.body.insert(0, ast.parse("assert 0.0 <= eta <= 1.0").body[0])
    assert _fixed_closed_intervals(tree) == ["apply_loss"]
    tree = ast.parse(
        "def f(r, eta):\n    return 0.0 <= r <= R_MAX and 0 <= eta <= 1\n"
        "class C:\n    ok = 0 <= x <= 2.5\n"
        "g = lambda m: 0.0 < m < 1.0 or lo <= m <= hi or 0.0 <= m or m <= 1.0\n"
        "h = 0.0 <= m < 1.0 or 0 <= m <= limit or 1 <= n <= N_MAX or 0 <= m <= x.y\n"
    )
    assert _fixed_closed_intervals(tree) == ["f", "f", "C"]

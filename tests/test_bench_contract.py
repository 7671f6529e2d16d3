"""The names the benchmark traces must stay defined and reached, and its
outputs must stay the recorded ones.

`bench/tracing.py` wraps qcsim functions by name; a renamed or removed one
makes `bench/run.py --trace 1` fail, and one that is no longer called
through its module-global name is silently missed.  These checks run the
benchmark's own tables on tiny sessions, without timing anything.  One
attack cycle of every workload at full shape must also give the digests
recorded in `bench/refs/`, so output drift fails here and not only in
`bench/selftest.py`.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("wrap", tracing.WRAPS, ids=lambda w: f"{w.span}:{w.attr}")
def test_every_traced_name_resolves(wrap):
    module = importlib.import_module(wrap.module)
    if wrap.owner is None:
        assert hasattr(module, wrap.attr)
    else:
        # Methods are patched on the class that defines them.
        assert wrap.attr in vars(getattr(module, wrap.owner))


@pytest.mark.parametrize("name", ["small_frames", "cli_run"])
def test_one_attack_cycle_reaches_every_span(tmp_path, name):
    w = dataclasses.replace(workloads.WORKLOADS[name], **selftest.TINY[name])
    w.setup(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for seed in range(len(workloads.attacks())):
            args = w.prepare(seed)
            tracer.begin_op()
            w.call(args)
            tracer.end_op()
            w.cleanup(args)
    counts = tracer.per_op_counts()
    missed = [
        span
        for span in selftest.REACHED[name]
        if not sum(c[f"{span}.calls"] for c in counts)
    ]
    assert not missed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_attack_cycle_matches_reference_digests(tmp_path, name):
    w = workloads.WORKLOADS[name]
    w.setup(tmp_path)
    ops = run.Runner(w, 0, workloads.load_refs(name)).fixed(run.CYCLE)
    assert len(ops) == run.CYCLE
    assert all(op.ok for op in ops)

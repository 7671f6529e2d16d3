"""Spans and counts at qcsim's layer boundaries, recorded from outside.

Each wrapped function gets a span per call (name, parent span, op, start,
end).  Spans stay in memory in flat arrays and are reduced to per-layer
self times once the traced phase ends.  A span's self time is its duration
minus the durations of its direct children; because wrapped calls nest
strictly, that is the part of its interval no child covers.

qcsim's modules import each other's functions by name (``from .quadrature
import sample_slots``), so patching only the defining module would leave
``run_session`` calling the original.  ``installed`` therefore replaces
every reference to the original function in every loaded ``qcsim`` module,
and patches methods on their class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


@dataclass(frozen=True)
class Wrap:
    """One traced function: `attr` of `module` (or of class `owner` in it),
    recorded under span name `span`.  Each counter maps a metric name to a
    function of the call's result."""

    span: str
    module: str
    attr: str
    owner: str | None = None
    counters: tuple[tuple[str, Callable], ...] = ()


WRAPS = (
    Wrap("quadrature.generator", "qcsim.quadrature", "generator", owner="RngStream"),
    Wrap("quadrature.sample_slots", "qcsim.quadrature", "sample_slots",
         counters=(("quadrature.normals", lambda slots: 4 * _size(slots.x1)),)),
    Wrap("quadrature.apply_loss", "qcsim.quadrature", "apply_loss",
         counters=(("quadrature.normals", lambda xy: 2 * _size(xy[0])),)),
    Wrap("detection.bell_measure", "qcsim.detection", "bell_measure"),
    Wrap("detection.correlation_degree", "qcsim.detection", "correlation_degree"),
    Wrap("detection.spectrum", "qcsim.detection", "spectrum"),
    Wrap("adversary.tap", "qcsim.adversary", "tap"),
    Wrap("adversary.qnd_measure", "qcsim.adversary", "qnd_measure"),
    Wrap("adversary.intercept_resend", "qcsim.adversary", "substitute",
         owner="InterceptResendEve"),
    Wrap("adversary.intercept_resend", "qcsim.adversary", "relay",
         owner="InterceptResendEve"),
    Wrap("adversary.intercept_resend", "qcsim.adversary", "drop",
         owner="InterceptResendEve"),
    Wrap("codec.encode_bit", "qcsim.codec", "encode_bit"),
    Wrap("codec.decode_bit", "qcsim.codec", "decode_bit"),
    Wrap("verification.record_block_traces", "qcsim.verification",
         "record_block_traces"),
    Wrap("verification.trace_stats", "qcsim.verification", "trace_stats"),
    Wrap("verification.verdict", "qcsim.verification", "verdict"),
    Wrap("session.run_session", "qcsim.session", "run_session",
         counters=(("session.frames", lambda t: t.config.frames),
                   ("verification.blocked_frames", lambda t: len(t.blocked_frames)))),
    Wrap("session.simulate_frame", "qcsim.session", "simulate_frame"),
    Wrap("config.load_config", "qcsim.config", "load_config"),
    Wrap("report.build_run_report", "qcsim.report", "build_run_report"),
    Wrap("report.write_trace_csv", "qcsim.report", "write_trace_csv"),
    Wrap("report.write_spectrum_csv", "qcsim.report", "write_spectrum_csv"),
    Wrap("report.write_report", "qcsim.report", "write_report"),
    Wrap("cli.main", "qcsim.cli", "main"),
)

#: Span names, in the order their metrics are reported.
SPANS = tuple(dict.fromkeys(w.span for w in WRAPS))

#: Counts made by the benchmark itself rather than by a wrapper.
BENCH_COUNTERS = ("report.bytes_written",)

#: Every count metric; these must repeat exactly for a fixed seed.
COUNTERS = tuple(
    dict.fromkeys(c for w in WRAPS for c, _ in w.counters)
) + BENCH_COUNTERS


class Tracer:
    """Collects spans of the current op while active."""

    def __init__(self):
        self.names = list(SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_counts: list[dict[str, int]] = []
        self.active = False

    def begin_op(self) -> None:
        self.op_counts.append(dict.fromkeys(COUNTERS, 0))
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def count(self, metric: str, n: int) -> None:
        self.op_counts[-1][metric] += n

    def wrap(self, w: Wrap, fn):
        nid = self._ids[w.span]
        counters = w.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(len(self.op_counts) - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            op_counts = self.op_counts[-1]
            for metric, count in counters:
                op_counts[metric] += count(result)
            return result

        return traced

    def per_op_counts(self) -> list[dict[str, int]]:
        """Calls of every span and every counter, one dict per op."""
        n_ops, n_names = len(self.op_counts), len(self.names)
        calls = np.zeros((n_ops, n_names), dtype=np.int64)
        np.add.at(calls, (np.asarray(self.op), np.asarray(self.name_id)), 1)
        return [
            {**{f"{name}.calls": int(c) for name, c in zip(self.names, row)}, **counts}
            for row, counts in zip(calls, self.op_counts)
        ]

    def self_ms(self, op_scale) -> dict[str, float]:
        """Total self time of each span name in milliseconds, each op's
        spans multiplied by that op's entry of `op_scale`."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = (dur - child) * np.asarray(op_scale)[np.asarray(self.op)]
        own = np.bincount(np.asarray(self.name_id), weights=own, minlength=len(self.names))
        return {name: 1e3 * float(t) for name, t in zip(self.names, own)}

    def save(self, path) -> None:
        """Write the raw spans (times in seconds from perf_counter)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _qcsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qcsim" or name.startswith("qcsim."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every qcsim lookup of a wrapped function through `tracer`."""
    patches = []
    try:
        for w in WRAPS:
            module = importlib.import_module(w.module)
            if w.owner is not None:
                cls = getattr(module, w.owner)
                original = cls.__dict__[w.attr]
                patches.append((cls, w.attr, original))
                setattr(cls, w.attr, tracer.wrap(w, original))
                continue
            original = getattr(module, w.attr)
            traced = tracer.wrap(w, original)
            for m in _qcsim_modules():
                if vars(m).get(w.attr) is original:
                    patches.append((m, w.attr, original))
                    setattr(m, w.attr, traced)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

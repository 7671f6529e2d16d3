"""Scaling measured times to a reference host speed.

On the shared 2-vCPU VM this benchmark was written on, the same op ran up
to 1.7x slower for tens of seconds at a time, with CPU time growing as much
as wall time: the vCPU itself ran slower.  Raw times of runs a minute apart
differed by 10-25 % (IQR over median).  So next to each measured interval
the benchmark times a fixed calibration kernel that does not touch qcsim
and multiplies the interval by ``reference / kernel time``.  A change to
qcsim moves the op but not the kernel, so it shows in full; a slow host
moves both.

Contention slowed interpreter-bound work and large-array numpy work by
different amounts, and formatting floats behaved unlike either, so there
are two kernels and each workload uses the one whose work resembles its
own.  Over 30-op windows the matched kernel cut the spread of median op
times from 14-21 % to 3-6 %; the interpreter kernel left long-frame
sessions at 16 %.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


def interpreter_kernel() -> float:
    """Interpreter loop, small numpy calls and float formatting."""
    t0 = perf_counter()
    s = 0.0
    for i in range(10000):
        s += i * 0.5
    g = np.random.Generator(np.random.Philox(7))
    for _ in range(10):
        x = g.standard_normal(2000)
        s += float((x * 1.5 + 2.0).sum())
    "\n".join(f"{i},{format(float(v), '.10g')}" for i, v in enumerate(x[:1500]))
    return perf_counter() - t0


def array_kernel() -> float:
    """Normal draws and arithmetic on arrays the size of a long frame."""
    t0 = perf_counter()
    g = np.random.Generator(np.random.Philox(5))
    s = 0.0
    for _ in range(4):
        x = g.standard_normal(20000)
        y = g.standard_normal(20000)
        s += float((x * 0.7 + y * 0.3).var())
    return perf_counter() - t0


#: Each kernel with its time on the uncontended VM (2 vCPUs at 2.1 GHz,
#: Python 3.11, numpy 2.4), the speed every reported time is scaled to.
KERNELS = {
    "interpreter": (interpreter_kernel, 2.1e-3),
    "arrays": (array_kernel, 3.0e-3),
}


def scale(kind: str) -> float:
    """Factor that converts a time measured now to the reference speed."""
    kernel, reference_s = KERNELS[kind]
    return reference_s / min(kernel(), kernel())

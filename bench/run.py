"""qcsim benchmark: one workload as a closed loop, one client in one process.

    python3 bench/run.py --workload small_frames --seed 1 --seconds 8 --trace 0

Each op starts when the previous one returns.  Ops run in whole cycles of
four (one per attack on the session workloads) until their summed time
reaches ``--seconds``.  Every op's output is digested outside the timed
region and compared with the reference recorded in ``refs/``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of ops untraced, the same ops again with tracing wrappers installed,
and prints per-layer metrics per op plus the tracing overhead.  A line
``{"record": ...}`` with the run's context precedes the result, which is
the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import tracing
import workloads as wl

#: Ops per cycle: one of each attack on the session workloads.
CYCLE = 4

#: Set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 5

#: No new cycle starts after this much wall time, so a run ends in time
#: even if checking outputs gets slow.
WALL_LIMIT_S = 120.0

#: Ops that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "slots_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in tracing.SPANS:
        units[f"{span}.calls"] = "count/op"
        units[f"{span}.self_ms"] = "ms/op"
    for counter in tracing.COUNTERS:
        units[counter] = "B/op" if counter == "report.bytes_written" else "count/op"
    units["trace_overhead"] = "ratio"
    return units


@dataclass
class Op:
    raw_s: float
    scale: float
    digest: str | None
    ok: bool

    @property
    def seconds(self) -> float:
        """Op time at the reference host speed."""
        return self.raw_s * self.scale


class Runner:
    """Runs ops of one workload and checks each against its reference
    (without references, an op only has to complete and be digested)."""

    def __init__(self, workload, workload_seed: int, refs: list[str] | None):
        self.w = workload
        self.workload_seed = workload_seed
        self.refs = refs

    def warm_up(self) -> None:
        """One untimed cycle whose outputs are dropped unchecked."""
        for i in range(CYCLE):
            args = self.w.prepare(wl.op_seed(self.workload_seed, i))
            self.w.call(args)
            self.w.cleanup(args)

    def op(self, i: int, tracer=None) -> Op:
        scale = hostspeed.scale(self.w.kernel)
        seed = wl.op_seed(self.workload_seed, i)
        args = self.w.prepare(seed)
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            result, error = self.w.call(args), None
        except Exception as exc:
            result, error = None, exc
        raw_s = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self.w.cleanup(args)
            return Op(raw_s, scale, None, False)
        try:
            digest, written = self.w.digest(args, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            digest, written = None, 0
        del result
        self.w.cleanup(args)
        if tracer is not None:
            tracer.count("report.bytes_written", written)
        # Collect the checker's garbage here, not inside the next timed op.
        gc.collect()
        if digest is None or self.refs is None:
            return Op(raw_s, scale, digest, digest is not None)
        ok = digest[: wl.REF_HEX] == self.refs[seed]
        if not ok:
            print(f"op {i} (seed {seed}): digest {digest[:wl.REF_HEX]} "
                  f"!= reference {self.refs[seed]}", file=sys.stderr)
        return Op(raw_s, scale, digest, ok)

    def timed(self, seconds: float) -> list[Op]:
        ops: list[Op] = []
        busy = 0.0
        wall0 = perf_counter()
        while busy < seconds or len(ops) % CYCLE:
            if len(ops) % CYCLE == 0 and perf_counter() - wall0 > WALL_LIMIT_S:
                break
            ops.append(self.op(len(ops)))
            busy += ops[-1].raw_s
        return ops

    def fixed(self, n: int, tracer=None) -> list[Op]:
        return [self.op(i, tracer) for i in range(n)]


def cycle_rate(times: list[float]) -> float:
    """Median over whole cycles of ops per second."""
    return statistics.median(
        CYCLE / sum(times[k:k + CYCLE]) for k in range(0, len(times) - CYCLE + 1, CYCLE)
    )


def tail(times: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the highest whole
    percentile with at least TAIL_BEYOND samples beyond it, by nearest rank.
    Runs too short for that fall back to the median."""
    n = len(times)
    p = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(times)[rank - 1], n - rank


def setup_times(workload: str, seed: int, work_dir: Path) -> list[tuple[float, float]]:
    """(measured seconds, host scale) of SETUP_REPEATS fresh set-ups."""
    probe = wl.BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        scale = hostspeed.scale("interpreter")
        done = subprocess.run(
            [sys.executable, str(probe), "--workload", workload,
             "--seed", str(seed), "--work-dir", str(work_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append((json.loads(done.stdout.splitlines()[-1])["setup_s"], scale))
    return times


def source_identity() -> dict:
    src = wl.ROOT / "src" / "qcsim"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (wl.ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    return {"git_sha": git_sha, "src_sha256": h.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, args, work_dir: Path, record: dict) -> tuple[list[Op], dict]:
    setups = setup_times(args.workload, args.seed, work_dir / "probe")
    runner.w.setup(work_dir)
    runner.warm_up()
    # Read before any output is checked: the checker's own allocations
    # (a transcript dump can reach tens of MB) are not the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = runner.timed(args.seconds)
    times = [op.seconds for op in ops]
    ops_per_s = cycle_rate(times)
    p, tail_s, beyond = tail(times)
    raw = [op.raw_s for op in ops]
    record.update(
        setup_s_measured=[t for t, _ in setups],
        tail_percentile=p,
        tail_samples=len(times),
        tail_beyond=beyond,
        host_scale_p50=statistics.median(op.scale for op in ops),
        measured_ops_per_s=cycle_rate(raw),
        measured_op_p50_ms=1e3 * statistics.median(raw),
    )
    u = END_TO_END_UNITS
    return ops, {
        "setup_s": metric(statistics.median(t * k for t, k in setups), u["setup_s"]),
        "ops_per_s": metric(ops_per_s, u["ops_per_s"]),
        "slots_per_s": metric(ops_per_s * runner.w.slots_per_op, u["slots_per_s"]),
        "op_p50_ms": metric(1e3 * statistics.median(times), u["op_p50_ms"]),
        "op_tail_ms": metric(1e3 * tail_s, u["op_tail_ms"]),
        "peak_rss_mb": metric(peak_rss_mb, u["peak_rss_mb"]),
    }


def per_layer(runner: Runner, args, work_dir: Path, record: dict) -> tuple[list[Op], dict, bool]:
    n = CYCLE * args.seconds
    runner.w.setup(work_dir)
    runner.warm_up()
    plain = runner.fixed(n)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = runner.fixed(n, tracer)
    again = tracing.Tracer()
    with tracing.installed(again):
        repeat = runner.fixed(CYCLE, again)

    counts = tracer.per_op_counts()
    same_digests = [o.digest for o in plain] == [o.digest for o in traced]
    same_counts = again.per_op_counts() == counts[:CYCLE]
    if not same_digests:
        print("traced digests differ from untraced digests", file=sys.stderr)
    if not same_counts:
        print("counts differ between two traced runs of the same ops", file=sys.stderr)

    wl.OUT_DIR.mkdir(exist_ok=True)
    spans_path = wl.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    untraced_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    record.update(
        traced_ops=n,
        untraced_s=untraced_s,
        traced_s=traced_s,
        traced_digests_match=same_digests,
        counts_repeat=same_counts,
        spans_file=str(spans_path.relative_to(wl.ROOT)),
        spans=len(tracer.start),
    )

    units = per_layer_units()
    metrics = {}
    self_ms = tracer.self_ms([o.scale for o in traced])
    for span in tracing.SPANS:
        calls = sum(c[f"{span}.calls"] for c in counts)
        metrics[f"{span}.calls"] = metric(calls / n, units[f"{span}.calls"])
        metrics[f"{span}.self_ms"] = metric(self_ms[span] / n, units[f"{span}.self_ms"])
    for counter in tracing.COUNTERS:
        metrics[counter] = metric(sum(c[counter] for c in counts) / n, units[counter])
    metrics["trace_overhead"] = metric(untraced_s / traced_s, units["trace_overhead"])
    return plain + traced + repeat, metrics, same_digests and same_counts


def main() -> int:
    parser = argparse.ArgumentParser(description="qcsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        qcsim = wl.import_qcsim()
        refs = wl.load_refs(args.workload)
    except (wl.MissingSource, OSError, ValueError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "workload_seed": args.seed,
        "op_seeds": f"(workload_seed + i) mod {wl.REF_SPAN}",
        "run_seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qcsim": qcsim.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **source_identity(),
    }
    runner = Runner(wl.WORKLOADS[args.workload], args.seed, refs)
    work_dir = wl.OUT_DIR / f"work-{os.getpid()}"
    wall0 = perf_counter()
    try:
        if args.trace:
            ops, metrics, consistent = per_layer(runner, args, work_dir, record)
        else:
            ops, metrics = end_to_end(runner, args, work_dir, record)
            consistent = True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    record.update(
        op_count=len(ops),
        fail_ratio=failed / len(ops),
        wall_s=perf_counter() - wall0,
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

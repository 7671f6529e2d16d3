"""Self-test of the benchmark itself; takes about a minute.

    python3 bench/selftest.py

Checks, in order:
1. At tiny shapes, every workload's traced ops give the same digests as
   its untraced ops, two traced passes give identical per-op counts, and
   the wrappers see the layers each workload must reach (a missed
   namespace shows up as zero calls).
2. At full shape, the first cycle of each workload matches the recorded
   reference digests.
3. ``run.py`` prints, for every workload and both trace settings, exactly
   the metrics named in BENCHMARK.json with their units, and two traced
   runs with the same seed report identical counts.
4. ``run.py`` fails, printing no result, in a directory that holds only
   BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads as wl

TINY = {
    "small_frames": dict(frames=24, slots_per_frame=64),
    "long_frames": dict(frames=4, slots_per_frame=2000),
    "cli_run": dict(frames=12, slots_per_frame=200),
}

# Spans each workload must reach; the attack-specific ones need a full
# attack cycle.
REACHED = {
    "small_frames": ("session.run_session", "session.simulate_frame",
                     "quadrature.generator", "quadrature.sample_slots",
                     "quadrature.apply_loss", "detection.bell_measure",
                     "detection.correlation_degree", "adversary.tap",
                     "adversary.qnd_measure", "adversary.intercept_resend",
                     "codec.encode_bit", "codec.decode_bit",
                     "verification.record_block_traces",
                     "verification.trace_stats", "verification.verdict"),
    "cli_run": ("cli.main", "config.load_config", "session.run_session",
                "detection.spectrum", "report.build_run_report",
                "report.write_trace_csv", "report.write_spectrum_csv",
                "report.write_report"),
}
REACHED["long_frames"] = REACHED["small_frames"]

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def tiny_shapes(work_dir: Path) -> None:
    for name, shape in TINY.items():
        w = dataclasses.replace(wl.WORKLOADS[name], **shape)
        w.setup(work_dir)
        runner = run.Runner(w, 5, refs=None)
        plain = runner.fixed(run.CYCLE)
        first, second = tracing.Tracer(), tracing.Tracer()
        with tracing.installed(first):
            traced = runner.fixed(run.CYCLE, first)
        with tracing.installed(second):
            runner.fixed(run.CYCLE, second)
        check(all(o.ok for o in plain + traced), f"{name} tiny: every op completes")
        check([o.digest for o in plain] == [o.digest for o in traced],
              f"{name} tiny: traced digests equal untraced digests")
        counts = first.per_op_counts()
        check(counts == second.per_op_counts(),
              f"{name} tiny: per-op counts repeat exactly")
        missed = [s for s in REACHED[name] if not sum(c[f"{s}.calls"] for c in counts)]
        check(not missed, f"{name} tiny: wrappers see every expected layer {missed or ''}")


def references(work_dir: Path) -> None:
    for name, w in wl.WORKLOADS.items():
        w.setup(work_dir)
        ops = run.Runner(w, 0, wl.load_refs(name)).fixed(run.CYCLE)
        check(all(o.ok for o in ops), f"{name}: first cycle matches reference digests")


def bench(*args: str, cwd: Path = wl.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def output_contract() -> None:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            name = w["name"]
            done = bench("--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
            if done.returncode != 0:
                check(False, f"{name} --trace {trace}: exits 0 ({done.stderr[-400:]})")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} --trace {trace}: correct result line")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} --trace {trace}: prints every {group} "
                               f"metric with its unit")
    counts = []
    for _ in range(2):
        done = bench("--workload", "small_frames", "--seed", "9", "--seconds", "1",
                     "--trace", "1")
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(".calls") or k in tracing.COUNTERS})
    check(counts[0] == counts[1], "two traced runs with one seed report equal counts")


def bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir(parents=True)
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(wl.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "small_frames", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    check(done.returncode != 0 and "correct" not in done.stdout,
          "without src/ the benchmark fails and prints no result")


def main() -> int:
    wl.import_qcsim()
    scratch = wl.OUT_DIR / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        tiny_shapes(scratch)
        references(scratch)
        output_contract()
        bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure one set-up in a fresh interpreter: import qcsim, build the
workload's inputs and finish one untimed warm-up op.  Prints
``{"setup_s": <seconds>}``.  run.py starts several of these, one at a time.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    wl.import_qcsim()
    w = wl.WORKLOADS[args.workload]
    w.setup(args.work_dir)
    op_args = w.prepare(wl.op_seed(args.seed, 0))
    w.call(op_args)
    elapsed = perf_counter() - T0
    w.cleanup(op_args)
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()

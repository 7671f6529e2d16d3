"""Record the reference digest of every op seed of one or more workloads.

    python3 bench/record_refs.py small_frames long_frames cli_run

Run it only when a change is meant to alter qcsim's seeded output, and
give the physical reason for the new digests with the change.  Each line
of ``refs/<workload>.txt`` is ``<op seed> <first 16 hex digits of sha256>``.
"""

from __future__ import annotations

import argparse
import shutil
from pathlib import Path

import workloads as wl


def record(name: str, work_dir: Path) -> None:
    w = wl.WORKLOADS[name]
    w.setup(work_dir)
    lines = []
    for seed in range(wl.REF_SPAN):
        args = w.prepare(seed)
        digest, _ = w.digest(args, w.call(args))
        w.cleanup(args)
        lines.append(f"{seed} {digest[:wl.REF_HEX]}\n")
    wl.REFS_DIR.mkdir(exist_ok=True)
    (wl.REFS_DIR / f"{name}.txt").write_text("".join(lines))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args()
    wl.import_qcsim()
    work_dir = wl.OUT_DIR / "record"
    try:
        for name in args.workloads:
            record(name, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

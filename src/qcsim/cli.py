"""Command-line front end: run sessions and parameter sweeps, emit data files.

Exit codes: 0 session accepted, 1 usage or configuration error, 2 aborted
with an eavesdropper suspected, 3 aborted with no key material.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .config import load_config
from .detection import spectrum
from .errors import ConfigError, SimulationError
from .quadrature import RngStream
from .report import (
    build_run_report,
    fmt,
    write_file,
    write_report,
    write_spectrum_csv,
    write_trace_files,
)
from .session import (
    ABORT_EVE_SUSPECTED,
    ABORT_NO_KEY,
    SWEEP_PARAMS,
    _PHASE_SPECTRUM,
    run_session,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVE_SUSPECTED = 2
EXIT_NO_KEY = 3

ABORT_EXIT_CODES = {ABORT_EVE_SUSPECTED: EXIT_EVE_SUSPECTED, ABORT_NO_KEY: EXIT_NO_KEY}

#: Most points a sweep grid may hold.
MAX_GRID_POINTS = 1000

# Names of the files a run may write besides report.json: frame numbers
# are written with at least four digits.
_RUN_FILE = re.compile(r"trace_frame_[0-9]{4,}\.csv|spectrum\.csv")


class _Parser(argparse.ArgumentParser):
    # Exit 1 on usage errors; argparse's default 2 is reserved for the
    # eavesdropper-suspected outcome.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcsim",
        description=(
            "Monte Carlo simulator of a key-distribution protocol built on "
            "EPR-correlated beams"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run one session from a config file")
    run.add_argument("--config", required=True, help="session config file (INI)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default="qcsim-out", help="output directory")
    run.add_argument(
        "--spectrum",
        action="store_true",
        help="also emit spectrum-analyzer traces for the session parameters",
    )

    sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    sweep.add_argument("--config", required=True, help="base session config file")
    sweep.add_argument(
        "--param", required=True, help=f"one of: {', '.join(SWEEP_PARAMS)}"
    )
    sweep.add_argument(
        "--grid",
        required=True,
        help="grid as start:stop:step; write --grid=START:STOP:STEP if START < 0",
    )
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    sweep.add_argument(
        "--sessions-per-point",
        type=int,
        default=4,
        help="sessions averaged per grid point",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (SimulationError, OSError, MemoryError) as exc:
        print(f"qcsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_run(args) -> int:
    cfg, spectrum_cfg = load_config(args.config, seed_override=args.seed)
    transcript = run_session(cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    trace_files = write_trace_files(out_dir, transcript.traces)

    spectrum_file = None
    if args.spectrum:
        spectrum_file = "spectrum.csv"
        write_spectrum_csv(
            out_dir / spectrum_file,
            spectrum(
                cfg.r,
                spectrum_cfg,
                cfg.detector,
                RngStream(cfg.seed).substream(0, _PHASE_SPECTRUM),
                transcript.signal_amplitude**2,
            ),
        )

    report = build_run_report(transcript, trace_files, spectrum_file)
    write_report(out_dir / "report.json", report)
    _remove_stale_run_files(out_dir, {*trace_files, spectrum_file})

    print(f"status: {report.status}" + (f" ({report.abort_reason})" if report.abort_reason else ""))
    if report.key is not None:
        print(f"key: {report.key}")
    print(f"ber: {'n/a' if report.ber is None else fmt(report.ber)}")
    if report.cd_plus_db is not None:
        print(
            f"correlation degree: {fmt(report.cd_plus_db)} dB "
            f"(expected {fmt(report.cd_expected_db)} dB)"
        )
    print(f"report: {out_dir / 'report.json'}")

    if transcript.outcome.accepted:
        return EXIT_OK
    return ABORT_EXIT_CODES[transcript.outcome.reason]


def _remove_stale_run_files(out_dir: Path, written: set) -> None:
    """Remove the trace and spectrum files in `out_dir` that this run did not
    write, so the directory holds only what its report.json lists."""
    for entry in out_dir.iterdir():
        if (
            entry.name not in written
            and _RUN_FILE.fullmatch(entry.name)
            and entry.is_file()
        ):
            entry.unlink()


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid values must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    if step <= 0.0:
        raise ConfigError(f"grid step must be > 0, got {step!r}")
    values = []
    for k in range(MAX_GRID_POINTS + 1):
        v = start + k * step
        if v > stop + 1e-12:
            break
        values.append(v)
    else:
        raise ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    if not values:
        raise ConfigError(f"grid {text!r} contains no points")
    return values


def _cmd_sweep(args) -> int:
    cfg, _ = load_config(args.config, seed_override=args.seed)
    points = sweep(cfg, args.param, _parse_grid(args.grid), args.sessions_per_point)

    lines = ["param,value,cd_db,ber,detection_rate"]
    for point in points:
        columns = (point.value, point.cd_db, point.ber, point.detection_rate)
        lines.append(",".join([args.param, *("" if x is None else fmt(x) for x in columns)]))
        if point.probe:
            why = f", and cd_db is blank: the probe runs no {point.config.attack.kind} attack"
            print(
                f"qcsim: note: {args.param}={fmt(point.value)} leaves no hiding window; "
                f"no key can be encoded there{'' if point.cd_db is not None else why}",
                file=sys.stderr,
            )

    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    write_file(out_path, "\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(points)} grid points)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

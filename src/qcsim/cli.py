"""Command-line front end: run sessions and parameter sweeps, emit data files.

Exit codes: 0 session accepted, 1 usage or configuration error, 2 aborted
with an eavesdropper suspected, 3 aborted with no key material.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adversary import ATTACK_SWEEPS, NoAttack, swept_attack
from .codec import signal_amplitude_for
from .config import load_config
from .detection import bell_measure, correlation_degree, spectrum
from .errors import ConfigError, HidingWindowError, SimulationError
from .quadrature import RngStream, apply_loss, sample_slots
from .report import (
    build_run_report,
    fmt,
    write_report,
    write_spectrum_csv,
    write_trace_csv,
)
from .session import (
    ABORT_EVE_SUSPECTED,
    ABORT_NO_KEY,
    SEED_SPAN,
    SessionConfig,
    VerdictStatus,
    compare_keys,
    run_session,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVE_SUSPECTED = 2
EXIT_NO_KEY = 3

ABORT_EXIT_CODES = {ABORT_EVE_SUSPECTED: EXIT_EVE_SUSPECTED, ABORT_NO_KEY: EXIT_NO_KEY}

# Substream phases outside the range the session uses internally.
_PHASE_SPECTRUM = 1000
_PHASE_PROBE = 1001

#: Sweep parameters that set a session field: name -> SessionConfig field.
SESSION_SWEEPS = {"r": "r", "eta": "eta_out", "margin": "margin"}

SWEEP_PARAMS = (*SESSION_SWEEPS, *ATTACK_SWEEPS)

#: Most points a sweep grid may hold.
MAX_GRID_POINTS = 1000

# Sweep point i, session k runs at seed + stride*(i+1) + k; more sessions per
# point than the stride would reuse seeds of the next point.
_POINT_SEED_STRIDE = 7919

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
    sweep.add_argument("--grid", required=True, help="grid as start:stop:step")
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

    trace_files = []
    for traces in transcript.traces:
        name = f"trace_frame_{traces.frame:04d}.csv"
        write_trace_csv(out_dir / name, traces)
        trace_files.append(name)

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

    report = build_run_report(transcript, tuple(trace_files), spectrum_file)
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


def _apply_sweep_param(cfg: SessionConfig, name: str, value: float) -> SessionConfig:
    if name in ATTACK_SWEEPS:
        return replace(cfg, attack=swept_attack(cfg.attack, name, value))
    return replace(cfg, **{SESSION_SWEEPS[name]: value})


def _sweep_point(cfg: SessionConfig, name: str, value: float):
    """The config of one grid point, and whether its hiding window is empty
    (a probe point, where no key can be encoded).  A value outside its
    parameter's domain raises ConfigError naming the point."""
    try:
        point_cfg = _apply_sweep_param(cfg, name, value)
        signal_amplitude_for(point_cfg.r, point_cfg.margin)
    except HidingWindowError:
        return point_cfg, True
    except SimulationError as exc:
        raise ConfigError(f"grid point {name}={fmt(value)}: {exc}") from None
    return point_cfg, False


def _cd_probe(cfg: SessionConfig, seed: int) -> float:
    """Correlation degree of an unmodulated, unattacked session (used when
    the hiding window is empty and no key can be encoded)."""
    n, eta = cfg.frames * cfg.slots_per_frame, cfg.eta_out * cfg.eta_back
    root = RngStream(seed)
    slots = sample_slots(cfg.r, root.substream(0, _PHASE_PROBE), n)
    x, y = apply_loss(slots.x1, slots.y1, eta, root.substream(1, _PHASE_PROBE))
    joint = bell_measure(
        (x, y), (slots.x2, slots.y2), cfg.detector, root.substream(2, _PHASE_PROBE)
    )
    return correlation_degree(joint).cd_db


def _cmd_sweep(args) -> int:
    if not 1 <= args.sessions_per_point <= _POINT_SEED_STRIDE:
        raise ConfigError(
            f"--sessions-per-point must lie in [1, {_POINT_SEED_STRIDE}], "
            f"got {args.sessions_per_point}"
        )
    base_cfg, _ = load_config(args.config, seed_override=args.seed)
    values = _parse_grid(args.grid)
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {args.param!r}; expected one of "
            f"{', '.join(SWEEP_PARAMS)}"
        )

    # Every point and seed is checked before the first session runs.
    points = [_sweep_point(base_cfg, args.param, value) for value in values]
    last_seed = (
        base_cfg.seed + _POINT_SEED_STRIDE * len(values) + args.sessions_per_point - 1
    )
    if last_seed >= SEED_SPAN:
        raise ConfigError(
            f"seed {base_cfg.seed} is too large for this sweep: its last session "
            f"would run at seed {last_seed}, outside [0, 2**64)"
        )

    lines = ["param,value,cd_db,ber,detection_rate"]
    for index, (value, (point_cfg, probe)) in enumerate(zip(values, points)):
        point_seed = base_cfg.seed + _POINT_SEED_STRIDE * (index + 1)
        if probe:
            # The probe runs no attack, so it measures an honest channel only.
            kind, cd_db = point_cfg.attack.kind, ""
            why = f", and cd_db is blank: the probe runs no {kind} attack"
            if kind == NoAttack.kind:
                cd_db, why = fmt(_cd_probe(point_cfg, point_seed)), ""
            lines.append(f"{args.param},{fmt(value)},{cd_db},,")
            print(
                f"qcsim: note: {args.param}={fmt(value)} leaves no hiding window; "
                f"no key can be encoded there{why}",
                file=sys.stderr,
            )
            continue
        cds, bers, detections = [], [], []
        for k in range(args.sessions_per_point):
            transcript = run_session(replace(point_cfg, seed=point_seed + k))
            if transcript.cd is not None:
                cds.append(transcript.cd.measured_plus_db)
            ber = compare_keys(transcript.sent_bits, transcript.decoded_bits).ber
            if ber is not None:
                bers.append(ber)
            detections.append(
                transcript.verdict.status is VerdictStatus.EVE_SUSPECTED
            )
        cd_db = float(np.mean(cds)) if cds else float("nan")
        # Only sessions that compared bits have an error rate to average.
        ber = fmt(float(np.mean(bers))) if bers else ""
        lines.append(
            f"{args.param},{fmt(value)},{fmt(cd_db)},{ber},"
            f"{fmt(float(np.mean(detections)))}"
        )

    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(values)} grid points)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

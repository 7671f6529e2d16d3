"""Serialization of session results: the machine-readable run report, trace
CSVs, spectrum CSVs, and a deterministic transcript dump.

All numeric output goes through one fixed format, `FLOAT_SPEC` (10
significant digits), so files written from identical runs are byte-identical
across platforms.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .detection import NoiseSpectrum
from .quadrature import Quadrature
from .session import SessionTranscript, compare_keys
from .verification import BlockTraces

SCHEMA_VERSION = "1.0"
PACKAGE_VERSION = "0.1.0"


#: Format spec of every float written to disk.
FLOAT_SPEC = ".10g"
_FLOAT = "%" + FLOAT_SPEC
_LINE = _FLOAT + "\n"


def fmt(x: float) -> str:
    """Fixed decimal rendering used for every float written to disk."""
    return format(float(x), FLOAT_SPEC)


def _render(row: str, *columns) -> str:
    """`row % values` for each row of equal-length columns, concatenated.

    One `%` over the `tolist()` values of every row renders each float as
    `fmt` does, without a Python call per value or per row.
    """
    values = np.column_stack(columns).ravel().tolist()
    return row * len(columns[0]) % tuple(values)


def _num(x) -> float | None:
    if x is None:
        return None
    return float(fmt(x))


def config_to_dict(config) -> dict:
    """JSON-ready fields of a config dataclass, nested sections included; an
    attack spec also records its `kind`."""
    d = {"kind": config.kind} if hasattr(config, "kind") else {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, Quadrature):
            value = value.value
        elif f.type.startswith("float"):
            value = _num(value)
        d[f.name] = value
    return d


def dumps_deterministic(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def transcript_to_dict(transcript: SessionTranscript) -> dict:
    """Full session record as JSON-compatible data; deterministic in the config."""
    t = transcript
    cd = None
    if t.cd is not None:
        cd = {
            "measured_plus_db": _num(t.cd.measured_plus_db),
            "measured_minus_db": _num(t.cd.measured_minus_db),
            "expected_db": _num(t.cd.expected_db),
        }
    eve = None
    if t.eve is not None:
        eve = {
            "decoded_bits": list(t.eve.decoded_bits),
            "observations": {
                str(frame): _render(_LINE, samples).splitlines()
                for frame, samples in sorted(t.eve.observations.items())
            },
        }
    return {
        "config": config_to_dict(t.config),
        "signal_amplitude": _num(t.signal_amplitude),
        "sent_bits": t.sent_bits,
        "decoded_bits": t.decoded_bits,
        "confidences": [_num(c) for c in t.confidences],
        "blocked_frames": list(t.blocked_frames),
        "frame_cd": [
            {
                "frame": fc.frame_index,
                "plus_db": _num(fc.plus_db),
                "minus_db": _num(fc.minus_db),
            }
            for fc in t.frame_cd
        ],
        "cd": cd,
        "trace_stats": [
            {
                "frame": traces.alice.frame_index,
                "pearson": _num(stats.pearson),
                "rms_sum": _num(stats.rms_sum),
                "rms_diff": _num(stats.rms_diff),
            }
            for traces, stats in zip(t.traces, t.trace_stats)
        ],
        "traces": [
            {
                "frame": traces.alice.frame_index,
                "alice": _render(_LINE, traces.alice.samples).splitlines(),
                "bob": _render(_LINE, traces.bob.samples).splitlines(),
            }
            for traces in t.traces
        ],
        "verdict": {"status": t.verdict.status.value, "reasons": list(t.verdict.reasons)},
        "outcome": {
            "accepted": t.outcome.accepted,
            "key": t.outcome.key,
            "reason": t.outcome.reason,
        },
        "eve": eve,
    }


def transcript_to_json(transcript: SessionTranscript) -> str:
    return dumps_deterministic(transcript_to_dict(transcript))


@dataclass(frozen=True)
class RunReport:
    """Machine-readable session summary; round-trips losslessly through JSON."""

    schema_version: str
    version: str
    seed: int
    status: str  # "accept" | "abort"
    abort_reason: str | None
    key: str | None
    sent_bits: str
    decoded_bits: str
    ber: float | None  # None when no bits were compared
    mismatches: tuple[int, ...]
    cd_plus_db: float | None
    cd_minus_db: float | None
    cd_expected_db: float | None
    verdict_status: str
    verdict_reasons: tuple[str, ...]
    blocked_frames: tuple[int, ...]
    trace_files: tuple[str, ...]
    spectrum_file: str | None
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        # JSON gives back the tuple fields as lists.
        return cls(**{
            f.name: tuple(d[f.name]) if isinstance(d[f.name], list) else d[f.name]
            for f in fields(cls)
        })


def build_run_report(
    transcript: SessionTranscript,
    trace_files: tuple[str, ...] = (),
    spectrum_file: str | None = None,
) -> RunReport:
    t = transcript
    comparison = compare_keys(t.sent_bits, t.decoded_bits)
    return RunReport(
        schema_version=SCHEMA_VERSION,
        version=PACKAGE_VERSION,
        seed=t.config.seed,
        status="accept" if t.outcome.accepted else "abort",
        abort_reason=t.outcome.reason,
        key=t.outcome.key,
        sent_bits=t.sent_bits,
        decoded_bits=t.decoded_bits,
        ber=_num(comparison.ber),
        mismatches=comparison.mismatches,
        cd_plus_db=_num(t.cd.measured_plus_db) if t.cd else None,
        cd_minus_db=_num(t.cd.measured_minus_db) if t.cd else None,
        cd_expected_db=_num(t.cd.expected_db) if t.cd else None,
        verdict_status=t.verdict.status.value,
        verdict_reasons=t.verdict.reasons,
        blocked_frames=t.blocked_frames,
        trace_files=trace_files,
        spectrum_file=spectrum_file,
        config=config_to_dict(t.config),
    )


def write_report(path: str | Path, report: RunReport) -> None:
    Path(path).write_text(dumps_deterministic(report.to_dict()))


def load_report(path: str | Path) -> RunReport:
    return RunReport.from_dict(json.loads(Path(path).read_text()))


def write_trace_csv(path: str | Path, traces: BlockTraces) -> None:
    a, b = traces.alice.samples, traces.bob.samples
    rows = _render(f"%d,{_FLOAT},{_FLOAT}\n", np.arange(len(a)), a, b)
    Path(path).write_text("point,alice,bob\n" + rows)


def write_spectrum_csv(path: str | Path, spectrum: NoiseSpectrum) -> None:
    rows = _render(
        ",".join([_FLOAT] * 4) + "\n",
        spectrum.freq_hz,
        spectrum.snl_db,
        spectrum.single_beam_db,
        spectrum.correlation_db,
    )
    header = "freq_hz,snl_db,single_beam_db,correlation_db\n"
    Path(path).write_text(header + rows)

"""Serialization of session results: the machine-readable run report, trace
CSVs, spectrum CSVs, and a deterministic transcript dump.

All numeric output goes through one fixed format, `FLOAT_SPEC` (10
significant digits), so files written from identical runs are byte-identical
across platforms.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

from .detection import NoiseSpectrum
from .quadrature import Quadrature
from .session import SessionTranscript, compare_keys
from .verification import BlockTraces

_encode_str = json.encoder.encode_basestring_ascii

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

    One `%` over the interleaved values of every row renders each float as
    `fmt` does, without a Python call per value or per row.  The columns are
    arrays and go in as their `tolist()` Python floats.
    """
    return row * len(columns[0]) % _interleave(columns)


def _interleave(columns) -> tuple:
    """The values of equal-length array columns, row by row."""
    k = len(columns)
    values = [None] * (len(columns[0]) * k)
    for i, column in enumerate(columns):
        values[i::k] = column.tolist()
    return tuple(values)


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
    """`json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)` and a
    newline, byte for byte, for dicts keyed by strings.  With `indent`,
    `json.dumps` runs its pure-Python encoder; this joins each container's
    items in one pass and encodes lists of strings in one `map`."""
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, newline: str) -> str:
    """JSON text of `obj`, whose items start lines with `newline` + 2 spaces."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {obj!r}"
            )
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_encode_str(k)}: {_dumps(v, inner)}" for k, v in
                 sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        try:
            items = list(map(_encode_str, obj))
        except TypeError:
            items = [_dumps(v, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


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
                "frame": traces.frame,
                "pearson": _num(stats.pearson),
                "rms_sum": _num(stats.rms_sum),
                "rms_diff": _num(stats.rms_diff),
            }
            for traces, stats in zip(t.traces, t.trace_stats)
        ],
        "traces": [
            {
                "frame": traces.frame,
                "alice": _render(_LINE, traces.alice).splitlines(),
                "bob": _render(_LINE, traces.bob).splitlines(),
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


@functools.lru_cache(maxsize=1)
def _trace_template(n: int) -> str:
    """A trace CSV of n points with each point number and the header baked in
    and a `%.10g` conversion for each value.  Every trace of a session has
    the same length, so one cached template serves a whole run."""
    return "point,alice,bob\n" + "".join(
        f"{i},{_FLOAT},{_FLOAT}\n" for i in range(n)
    )


def write_trace_csv(path: str | Path, traces: BlockTraces) -> None:
    a, b = traces.alice, traces.bob
    if len(a) != len(b):
        raise ValueError(
            f"trace of frame {traces.frame}: alice has {len(a)} points, bob {len(b)}"
        )
    text = _trace_template(len(a)) % _interleave((a, b))
    with open(path, "w") as f:
        f.write(text)


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

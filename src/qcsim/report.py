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
import os
import warnings
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .detection import NoiseSpectrum
from .quadrature import usable_cpus
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


def record_to_dict(record):
    """JSON-ready form of a result or config record.  A dataclass becomes
    the dict of its fields, and an attack spec also records its `kind`.  A
    field annotated `float` is written at `FLOAT_SPEC`; any other value is
    walked by the same rules: an enum is written by its value, an array as
    its `FLOAT_SPEC` lines, a dict with `str` keys, anything else as it is."""
    if isinstance(record, Enum):
        return record.value
    if isinstance(record, np.ndarray):
        return _render(_LINE, record).splitlines()
    if isinstance(record, dict):
        return {str(k): record_to_dict(v) for k, v in record.items()}
    if not is_dataclass(record):
        return record
    d = {"kind": record.kind} if hasattr(record, "kind") else {}
    for f in fields(record):
        value = getattr(record, f.name)
        d[f.name] = _num(value) if f.type.startswith("float") else record_to_dict(value)
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
    return {
        "config": record_to_dict(t.config),
        "signal_amplitude": _num(t.signal_amplitude),
        "sent_bits": t.sent_bits,
        "decoded_bits": t.decoded_bits,
        "confidences": [_num(c) for c in t.confidences],
        "blocked_frames": list(t.blocked_frames),
        "frame_cd": [record_to_dict(fc) for fc in t.frame_cd],
        "cd": record_to_dict(t.cd),
        "trace_stats": [
            {"frame": traces.frame, **record_to_dict(stats)}
            for traces, stats in zip(t.traces, t.trace_stats)
        ],
        "traces": [record_to_dict(traces) for traces in t.traces],
        "verdict": record_to_dict(t.verdict),
        "outcome": record_to_dict(t.outcome),
        "eve": record_to_dict(t.eve),
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
        config=record_to_dict(t.config),
    )


def write_file(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 bytes, whatever the platform's line end or locale."""
    with open(path, "wb") as f:
        f.write(text.encode())


def write_report(path: str | Path, report: RunReport) -> None:
    write_file(path, dumps_deterministic(report.to_dict()))


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
    write_file(path, _trace_template(len(a)) % _interleave((a, b)))


#: Fewest values a forked writer's share must hold: below about 8 000, the
#: fork, wait and copy-on-write faults cost more than they save (2 vCPUs).
_FORK_MIN_VALUES = 10_000


def write_trace_files(out_dir: str | Path, traces) -> tuple[str, ...]:
    """Write each trace to `trace_frame_<frame>.csv` in `out_dir`; return the
    names.  With `os.fork`, two usable CPUs, n > 1 traces and
    `_FORK_MIN_VALUES` values in those after the first
    min(n // 2 + 1, n - 1), a forked child writes them and sends any error
    over a pipe; this process writes the first ones, then reaps the child
    and raises OSError with its message if it failed.  If the fork fails,
    this process writes every trace."""
    names = tuple(f"trace_frame_{t.frame:04d}.csv" for t in traces)
    jobs = list(zip([Path(out_dir) / name for name in names], traces))
    # This process starts first and the child must exit too: it takes one
    # trace over half, but leaves the child at least one.
    split = min(len(jobs) // 2 + 1, len(jobs) - 1)
    values = sum(2 * len(t.alice) for t in traces[split:]) if split > 0 else 0
    if not hasattr(os, "fork") or usable_cpus() < 2 or values < _FORK_MIN_VALUES:
        _write_traces(jobs)
        return names
    read_end, write_end = os.pipe()
    try:
        # Python 3.12+ warns of a fork with threads; the child takes no lock.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # No process to spare: this one writes every trace.
        os.close(read_end)
        os.close(write_end)
        _write_traces(jobs)
        return names
    if pid == 0:  # The child never unwinds into its caller: it leaves by `_exit`.
        status = 1
        try:
            _write_traces(jobs[split:])
            status = 0
        except BaseException as exc:
            os.write(write_end, str(exc).encode())
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        _write_traces(jobs[:split])
    finally:
        with open(read_end, "rb") as pipe:
            error = pipe.read().decode(errors="replace")
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(error or f"trace writer failed with wait status {status}")
    return names


def _write_traces(jobs) -> None:
    for path, traces in jobs:
        write_trace_csv(path, traces)


def write_spectrum_csv(path: str | Path, spectrum: NoiseSpectrum) -> None:
    rows = _render(
        ",".join([_FLOAT] * 4) + "\n",
        spectrum.freq_hz,
        spectrum.snl_db,
        spectrum.single_beam_db,
        spectrum.correlation_db,
    )
    header = "freq_hz,snl_db,single_beam_db,correlation_db\n"
    write_file(path, header + rows)

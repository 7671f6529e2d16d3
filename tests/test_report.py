"""The trace and spectrum writers render every float exactly as a row-by-row
`format(float(x), ".10g")` does, whatever the value, the deterministic
JSON dump writes exactly what `json.dumps` writes, and the transcript writes
each record by its fields, every float at `FLOAT_SPEC` wherever it sits."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcsim.adversary import Qnd, Tap
from qcsim.detection import NoiseSpectrum
from qcsim.quadrature import Quadrature
from qcsim.report import (
    build_run_report,
    dumps_deterministic,
    record_to_dict,
    transcript_to_dict,
    write_spectrum_csv,
    write_trace_csv,
)
from qcsim.session import SessionConfig, run_session
from qcsim.verification import BlockTraces, Thresholds

# Signed zeros, subnormals, the float extremes, non-finite values, and
# values on either side of %g's switches between fixed and exponent
# notation at 10 digits (below 1e-4, from 1e10 on), rounding included.
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"), 1e300, -1e-300, 9.999999999e299,
    1e-5, 9.9999999995e-6, 1e-4, 9.99999999949e-5, 9.99999999951e-5,
    1e9, 999999999.95, 1e10, 9999999999.4, 9999999999.5, -9999999999.5,
]
FLOATS = st.one_of(st.floats(width=64), st.sampled_from(EDGES))


def fmt(x) -> str:
    return format(float(x), ".10g")


def row_by_row_trace_csv(a, b) -> str:
    lines = ["point,alice,bob"]
    for i in range(a.size):
        lines.append(f"{i},{fmt(a[i])},{fmt(b[i])}")
    return "\n".join(lines) + "\n"


def row_by_row_spectrum_csv(s: NoiseSpectrum) -> str:
    lines = ["freq_hz,snl_db,single_beam_db,correlation_db"]
    for i in range(s.freq_hz.size):
        lines.append(
            f"{fmt(s.freq_hz[i])},{fmt(s.snl_db[i])},"
            f"{fmt(s.single_beam_db[i])},{fmt(s.correlation_db[i])}"
        )
    return "\n".join(lines) + "\n"


@st.composite
def columns(draw, k):
    n = draw(st.integers(min_value=0, max_value=50))
    return [
        np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
        for _ in range(k)
    ]


WRITER_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@WRITER_SETTINGS
@given(cols=columns(2))
def test_trace_csv_matches_row_by_row_rendering(tmp_path, cols):
    a, b = cols
    path = tmp_path / "trace.csv"
    write_trace_csv(path, BlockTraces(3, a, b))
    assert path.read_text() == row_by_row_trace_csv(a, b)


@WRITER_SETTINGS
@given(cols=columns(4))
def test_spectrum_csv_matches_row_by_row_rendering(tmp_path, cols):
    spectrum = NoiseSpectrum(*cols)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spectrum)
    assert path.read_text() == row_by_row_spectrum_csv(spectrum)


def test_trace_csv_of_each_length_after_another(tmp_path):
    # Each length gets its own rendering, whatever length was written before.
    rng = np.random.default_rng(5)
    for n in (5, 1000, 5, 2):
        a, b = rng.standard_normal((2, n))
        path = tmp_path / f"trace-{n}.csv"
        write_trace_csv(path, BlockTraces(3, a, b))
        assert path.read_text() == row_by_row_trace_csv(a, b)


def test_trace_csv_rejects_traces_of_unequal_length(tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="alice has 3 points, bob 4"):
        write_trace_csv(path, BlockTraces(7, np.zeros(3), np.zeros(4)))
    assert not path.exists()


# Non-ASCII, escaped and control characters alongside plain text.
TEXT = st.one_of(
    st.text(), st.sampled_from(["", "a\"b\\c", "\n\t\x00\x1f", "é€😀", "\u2028"])
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), TEXT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1.7976931348623157e308]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(TEXT, max_size=4),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=JSON)
def test_deterministic_dump_writes_what_json_dumps_writes(obj):
    expected = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert dumps_deterministic(obj) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_deterministic_dump_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps_deterministic({"a": [1, {"b": value}]})


def _floats(obj):
    """Every float in a JSON-ready value."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _floats(value)


def _lines(samples) -> list[str]:
    return [fmt(x) for x in samples]


@pytest.mark.parametrize(
    "attack, attack_dict",
    [
        (Tap(tau=0.2), {"kind": "tap", "tau": 0.2}),
        (
            Qnd(Quadrature.Y, measurement_var=0.5),
            {"kind": "qnd", "measured_quadrature": "y", "measurement_var": 0.5},
        ),
    ],
    ids=["tap", "qnd"],
)
def test_transcript_writes_each_record_by_its_fields(attack, attack_dict):
    # 14 significant digits, so the echo must be the 10-digit rounding.
    pearson = -0.12345678901234
    t = run_session(SessionConfig(
        key_bits="1011", seed=3, frames=12, slots_per_frame=64, eta_out=0.8,
        eta_back=0.9, block_prob=0.5, attack=attack,
        thresholds=Thresholds(pearson=pearson),
    ))
    assert t.traces and t.frame_cd and t.eve.observations
    d = transcript_to_dict(t)

    # Every float is its source at FLOAT_SPEC.
    assert all(x == float(fmt(x)) for x in _floats(d))
    assert d["config"]["thresholds"]["pearson"] == float(fmt(pearson)) != pearson
    assert d["signal_amplitude"] == float(fmt(t.signal_amplitude))
    assert d["cd"] == {
        "measured_plus_db": float(fmt(t.cd.measured_plus_db)),
        "measured_minus_db": float(fmt(t.cd.measured_minus_db)),
        "expected_db": float(fmt(t.cd.expected_db)),
    }
    assert d["trace_stats"] == [
        {
            "frame": traces.frame,
            "pearson": float(fmt(stats.pearson)),
            "rms_sum": float(fmt(stats.rms_sum)),
            "rms_diff": float(fmt(stats.rms_diff)),
        }
        for traces, stats in zip(t.traces, t.trace_stats)
    ]
    # Each frame's cd has exactly these keys.
    assert d["frame_cd"] == [
        {
            "frame": fc.frame,
            "plus_db": float(fmt(fc.plus_db)),
            "minus_db": float(fmt(fc.minus_db)),
        }
        for fc in t.frame_cd
    ]
    # Enums are written by their values.
    assert type(d["verdict"]["status"]) is str
    assert d["verdict"]["status"] == t.verdict.status.value
    assert d["config"]["attack"] == attack_dict
    # Arrays are written as their FLOAT_SPEC lines.
    assert d["traces"] == [
        {"frame": traces.frame, "alice": _lines(traces.alice), "bob": _lines(traces.bob)}
        for traces in t.traces
    ]
    assert d["eve"]["observations"] == {
        str(frame): _lines(samples) for frame, samples in t.eve.observations.items()
    }


@dataclass(frozen=True)
class _Planted:
    # Annotated as strings, as the package's records are.
    pair: "tuple[float, ...]"
    samples: "list[float]"
    by_name: "dict[str, float]"
    count: "int"


def test_every_float_in_a_record_is_written_at_float_spec():
    # 14 significant digits, so each float written must be the 10-digit rounding.
    x = 0.12345678901234
    rounded = float(fmt(x))
    planted = _Planted(
        pair=(x, np.float64(-x)),
        samples=[x, np.float32(x)],
        by_name={"a": x, "b": -x},
        count=3,
    )
    assert record_to_dict(planted) == {
        "pair": [rounded, -rounded],
        "samples": [rounded, float(fmt(np.float32(x)))],
        "by_name": {"a": rounded, "b": -rounded},
        "count": 3,
    }
    assert type(record_to_dict(planted)["count"]) is int


def test_run_report_holds_the_sessions_floats_and_writes_them_rounded():
    t = run_session(SessionConfig(
        key_bits="1011", seed=3, frames=12, slots_per_frame=64, block_prob=0.5,
    ))
    report = build_run_report(t)
    assert report.cd_plus_db == t.cd.measured_plus_db
    d = report.to_dict()
    for name, value in [
        ("ber", report.ber),
        ("cd_plus_db", t.cd.measured_plus_db),
        ("cd_minus_db", t.cd.measured_minus_db),
        ("cd_expected_db", t.cd.expected_db),
    ]:
        assert d[name] == float(fmt(value))
    assert d["config"] == record_to_dict(t.config)
    assert all(x == float(fmt(x)) for x in _floats(d))

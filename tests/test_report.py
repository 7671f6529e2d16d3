"""The trace and spectrum writers render every float exactly as a row-by-row
`format(float(x), ".10g")` does, whatever the value, and the deterministic
JSON dump writes exactly what `json.dumps` writes."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcsim.detection import NoiseSpectrum
from qcsim.report import dumps_deterministic, write_spectrum_csv, write_trace_csv
from qcsim.verification import BlockTraces

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

"""The trace and spectrum writers render every float exactly as a row-by-row
`format(float(x), ".10g")` does, whatever the value."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcsim.detection import NoiseSpectrum
from qcsim.report import write_spectrum_csv, write_trace_csv
from qcsim.verification import BlockTraces, FluctuationTrace, TraceOwner

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
    write_trace_csv(
        path,
        BlockTraces(
            alice=FluctuationTrace(TraceOwner.ALICE, 3, a),
            bob=FluctuationTrace(TraceOwner.BOB, 3, b),
        ),
    )
    assert path.read_text() == row_by_row_trace_csv(a, b)


@WRITER_SETTINGS
@given(cols=columns(4))
def test_spectrum_csv_matches_row_by_row_rendering(tmp_path, cols):
    spectrum = NoiseSpectrum(*cols, rbw_hz=1.0, span_hz=(0.0, 1.0))
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spectrum)
    assert path.read_text() == row_by_row_spectrum_csv(spectrum)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcsim.detection import (
    DEFAULT_ELECTRONIC_NOISE_VAR,
    MAX_SPECTRUM_BINS,
    DetectorConfig,
    JointMeasurement,
    SpectrumSettings,
    bell_measure,
    correlation_degree,
    spectrum,
)
from qcsim.errors import DomainError
from qcsim.quadrature import Quadrature, RngStream, sample_slots
from qcsim.verification import record_block_traces

NOISELESS = DetectorConfig(electronic_noise_var=0.0)
CORR_0875 = 0.8337240393570168


def test_default_electronic_noise_is_8db_below_snl():
    assert DEFAULT_ELECTRONIC_NOISE_VAR == pytest.approx(2.0 * 10.0**-0.8, rel=1e-12)
    assert -10.0 * math.log10(DEFAULT_ELECTRONIC_NOISE_VAR / 2.0) == pytest.approx(8.0)


def test_detector_config_rejects_negative_noise():
    with pytest.raises(DomainError):
        DetectorConfig(electronic_noise_var=-0.1)


def _bell(a, b, cfg, rng):
    """`bell_measure` of beams (a, b) against a zero idler: (d_plus, d_minus)."""
    joint = bell_measure((a, b), (np.zeros_like(a), np.zeros_like(b)), cfg, rng)
    return joint.d_plus, joint.d_minus


def _traces(a, b, cfg, rng):
    """`record_block_traces` of sender beam a and idler b, every frame blocked."""
    frames = np.arange(a.shape[0])
    return record_block_traces(np.ones(frames.size, bool), frames, a, b, cfg, rng)


class _NoDraws:
    def standard_normal(self, shape):
        raise AssertionError(f"drew electronic noise of shape {shape}")


NOISE_STAGES = pytest.mark.parametrize(
    "stage", [_bell, _traces], ids=["bell_measure", "record_block_traces"]
)


@NOISE_STAGES
def test_zero_electronic_noise_returns_inputs_and_draws_nothing(stage):
    a, b = RngStream(31).rows([0, 1, 2]).standard_normal((2, 3, 8))
    out_a, out_b = stage(a, b, NOISELESS, _NoDraws())
    assert out_a.tobytes() == a.tobytes() and out_b.tobytes() == b.tobytes()


@NOISE_STAGES
def test_electronic_noise_is_one_draw_for_both_outputs(stage):
    frames, e = np.array([2, 5, 7]), 0.3
    a, b = RngStream(32).rows(frames).standard_normal((2, 3, 8))
    out_a, out_b = stage(
        a, b, DetectorConfig(electronic_noise_var=e), RngStream(33).rows(frames, 4)
    )
    noise_a, noise_b = RngStream(33).rows(frames, 4).standard_normal((2, 3, 8))
    assert out_a.tobytes() == (a + math.sqrt(e) * noise_a).tobytes()
    assert out_b.tobytes() == (b + math.sqrt(e) * noise_b).tobytes()


def test_bell_measure_perfectly_correlated_inputs():
    out = bell_measure((0.5, 0.3), (-0.5, 0.3), NOISELESS, RngStream(1))
    assert out.d_plus == 0.0
    assert out.d_minus == 0.0


def test_bell_measure_variance_matches_correlation_floor():
    n = 1_000_000
    slots = sample_slots(0.4375, RngStream(21).substream(0), n)
    out = bell_measure(
        (slots.x1, slots.y1), (slots.x2, slots.y2), NOISELESS, RngStream(21).substream(1)
    )
    assert np.var(out.d_plus) == pytest.approx(CORR_0875, rel=0.01)
    assert np.var(out.d_minus) == pytest.approx(CORR_0875, rel=0.01)


def test_bell_measure_adds_electronic_noise_variance():
    n = 1_000_000
    slots = sample_slots(0.4375, RngStream(22).substream(0), n)
    out = bell_measure(
        (slots.x1, slots.y1),
        (slots.x2, slots.y2),
        DetectorConfig(),
        RngStream(22).substream(1),
    )
    expected = CORR_0875 + DEFAULT_ELECTRONIC_NOISE_VAR
    assert np.var(out.d_plus) == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("noise_var", [0.1, 0.317, 1.0])
def test_variance_additivity(noise_var):
    n = 400_000
    slots = sample_slots(0.6, RngStream(23).substream(int(noise_var * 1000)), n)
    out = bell_measure(
        (slots.x1, slots.y1),
        (slots.x2, slots.y2),
        DetectorConfig(electronic_noise_var=noise_var),
        RngStream(23).substream(int(noise_var * 1000), 1),
    )
    expected = 2.0 * math.exp(-1.2) + noise_var
    tol = 3.0 * expected * math.sqrt(2.0 / n)
    assert abs(np.var(out.d_plus) - expected) <= tol
    assert abs(np.var(out.d_minus) - expected) <= tol


def test_correlation_degree_reproduces_squeezing_level():
    n = 1_000_000
    slots = sample_slots(0.4375, RngStream(27).substream(0), n)
    out = bell_measure(
        (slots.x1, slots.y1), (slots.x2, slots.y2), NOISELESS, RngStream(27).substream(1)
    )
    cd = correlation_degree(out)
    assert cd.cd_db == pytest.approx(3.80, abs=0.10)
    cd_minus = correlation_degree(out, Quadrature.Y)
    assert cd_minus.cd_db == pytest.approx(cd.cd_db, abs=0.06)


def test_correlation_degree_no_squeezing_at_r0():
    n = 1_000_000
    slots = sample_slots(0.0, RngStream(28).substream(0), n)
    out = bell_measure(
        (slots.x1, slots.y1), (slots.x2, slots.y2), NOISELESS, RngStream(28).substream(1)
    )
    assert correlation_degree(out).cd_db == pytest.approx(0.0, abs=0.05)


def test_correlation_degree_with_channel_loss():
    from qcsim.quadrature import apply_loss

    n = 1_000_000
    slots = sample_slots(0.4375, RngStream(29).substream(0), n)
    x, y = apply_loss(slots.x1, slots.y1, 0.8, RngStream(29).substream(1))
    out = bell_measure((x, y), (slots.x2, slots.y2), NOISELESS, RngStream(29).substream(2))
    assert correlation_degree(out).cd_db == pytest.approx(3.1813, abs=0.15)


def test_correlation_degree_needs_two_samples():
    with pytest.raises(ValueError):
        correlation_degree(JointMeasurement(np.array([1.0]), np.array([0.5])))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(2, 6),
    slots=st.integers(2, 3000),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_correlation_degree_is_that_of_np_var_bit_for_bit(seed, frames, slots, scale):
    # The per-frame level comes from the residual sums of squares that the
    # pooled level sums; both must be those of np.var, also on strided rows.
    block = scale * np.random.default_rng(seed).standard_normal((2, frames, slots))
    d = block[0]
    expected = [-10.0 * math.log10(v / 2.0) for v in np.var(d, axis=-1, ddof=1)]
    residual_ss = np.sum((d - d.mean(axis=-1, keepdims=True)) ** 2, axis=-1).tolist()
    # Row i of `strided` is row i of `d`, one row of the other block apart.
    strided = np.ascontiguousarray(block.swapaxes(0, 1)).swapaxes(0, 1)[0]
    assert not strided.flags.c_contiguous
    for rows in (d, strided):
        cd = correlation_degree(JointMeasurement(rows, rows))
        assert cd.cd_db == expected
        assert cd.residual_ss == residual_ss
    one = correlation_degree(JointMeasurement(block[0, 0], block[0, 0]))
    assert one.cd_db == -10.0 * math.log10(np.var(block[0, 0], ddof=1) / 2.0)
    assert isinstance(one.residual_ss, float)


SETTINGS = SpectrumSettings()


def test_spectrum_bin_layout():
    spec = spectrum(0.4375, SETTINGS, NOISELESS, RngStream(30).substream(0))
    assert spec.freq_hz.size == 67
    assert spec.freq_hz[0] == 1.0e6
    assert spec.freq_hz[-1] == pytest.approx(2.98e6)
    assert np.allclose(np.diff(spec.freq_hz), 30.0e3)


def test_spectrum_signal_occupies_exactly_one_bin():
    averages = 800
    spec = spectrum(
        1.0,
        SpectrumSettings(averages=averages, signal_freq_hz=2.0e6),
        NOISELESS,
        RngStream(31).substream(0),
        signal_power=1.0,
    )
    # Nearest bin to 2 MHz on the 1.0 + 0.03k MHz ladder is 1.99 MHz.
    peak_bin = int(np.argmax(spec.correlation_db))
    assert spec.freq_hz[peak_bin] == pytest.approx(1.99e6)
    floor_db = 10.0 * math.log10(2.0 * math.exp(-2.0) / 2.0)
    jitter_db = 3.0 * (10.0 / math.log(10.0)) * math.sqrt(2.0 / averages)
    excess = spec.correlation_db[peak_bin] - floor_db
    assert excess == pytest.approx(6.7159, abs=3.0 * jitter_db)
    others = np.delete(spec.correlation_db, peak_bin)
    assert np.all(np.abs(others - floor_db) < 3.0 * jitter_db)


def test_spectrum_flat_at_r0_without_signal():
    averages = 800
    spec = spectrum(
        0.0,
        SpectrumSettings(averages=averages),
        NOISELESS,
        RngStream(32).substream(0),
    )
    jitter_db = 3.0 * (10.0 / math.log(10.0)) * math.sqrt(2.0 / averages)
    assert np.all(np.abs(spec.snl_db) < jitter_db)
    assert np.all(np.abs(spec.correlation_db) < jitter_db)
    # The single-beam trace reads cosh(2r)/2 relative to the two-beam SNL,
    # i.e. -3 dB at r=0.
    assert np.all(np.abs(spec.single_beam_db - 10.0 * math.log10(0.5)) < jitter_db)


def test_spectrum_correlation_excess_dominates_single_beam_excess():
    # The decoded signal stands proud of the squeezed floor while staying
    # small against the single-beam noise.
    settings = SpectrumSettings(averages=2000, signal_freq_hz=2.0e6)
    spec = spectrum(
        1.0, settings, NOISELESS, RngStream(33).substream(0), signal_power=1.0
    )
    bin_index = int(np.round((settings.signal_freq_hz - 1.0e6) / 30.0e3))
    corr_floor = np.median(np.delete(spec.correlation_db, bin_index))
    single_floor = np.median(np.delete(spec.single_beam_db, bin_index))
    corr_excess = spec.correlation_db[bin_index] - corr_floor
    single_excess = spec.single_beam_db[bin_index] - single_floor
    assert corr_excess > single_excess
    # Closed-form expectations agree with the realized traces.
    assert 10.0 * math.log10(1.0 + 1.0 / (2.0 * math.exp(-2.0))) > 10.0 * math.log10(
        1.0 + 1.0 / math.cosh(2.0)
    )


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.0, 3.0),
    e=st.floats(0.0, 2.0),
    averages=st.integers(1, 400),
    signal_power=st.none() | st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32),
)
@example(
    r=0.4375, e=DEFAULT_ELECTRONIC_NOISE_VAR, averages=100, signal_power=1.0, seed=0
)
def test_spectrum_levels_are_their_closed_forms(r, e, averages, signal_power, seed):
    # 0 dB, (cosh 2r + s^2)/2 and (2e^-2r + e + s^2)/2 relative to the
    # two-beam SNL, each times its chi2 jitter redrawn from the same stream.
    span = SpectrumSettings(averages=averages)
    rng = RngStream(seed).substream(0)
    spec = spectrum(r, span, DetectorConfig(e), rng, signal_power)
    n_bins = spec.freq_hz.size
    jitter = rng.generator().chisquare(averages, size=(3, n_bins)) / averages
    s2 = np.zeros(n_bins)
    if signal_power is not None:
        s2[np.argmin(np.abs(spec.freq_hz - span.signal_freq_hz))] = signal_power
    levels = (
        1.0,
        (math.cosh(2.0 * r) + s2) / 2.0,
        (2.0 * math.exp(-2.0 * r) + e + s2) / 2.0,
    )
    traces = (spec.snl_db, spec.single_beam_db, spec.correlation_db)
    for trace, level, j in zip(traces, levels, jitter):
        assert np.allclose(trace, 10.0 * np.log10(level * j), rtol=0.0, atol=1e-9)


def test_spectrum_input_validation():
    with pytest.raises(DomainError, match="span"):
        SpectrumSettings(span_low_hz=3.0e6, span_high_hz=1.0e6)
    with pytest.raises(DomainError, match="rbw_hz"):
        SpectrumSettings(rbw_hz=0.0, averages=10)
    with pytest.raises(DomainError, match="rbw_hz"):
        SpectrumSettings(
            span_low_hz=1.0e6, span_high_hz=1.1e6, rbw_hz=0.5e6, signal_freq_hz=1.0e6
        )
    with pytest.raises(DomainError, match="averages"):
        SpectrumSettings(averages=0)
    with pytest.raises(DomainError, match="signal_freq_hz"):
        SpectrumSettings(averages=10, signal_freq_hz=5.0e6)
    # The cap is exact: 2 MHz in steps of 2e6/(cap - 1) Hz is the cap's
    # bins, in steps of 20 Hz one bin more.
    capped = SpectrumSettings(rbw_hz=2e6 / (MAX_SPECTRUM_BINS - 1))
    spec = spectrum(1.0, capped, NOISELESS, RngStream(1))
    assert spec.freq_hz.size == MAX_SPECTRUM_BINS
    with pytest.raises(DomainError, match="rbw_hz .* more than 100000 bins"):
        SpectrumSettings(rbw_hz=2e6 / MAX_SPECTRUM_BINS)
    # 2e9 bins would be asked of `spectrum`; an infinite span holds inf.
    with pytest.raises(DomainError, match="rbw_hz .* more than 100000 bins"):
        SpectrumSettings(rbw_hz=1e-3)
    with pytest.raises(DomainError, match="rbw_hz .* more than 100000 bins"):
        SpectrumSettings(span_low_hz=-1e308, span_high_hz=1e308)


def test_spectrum_deterministic_under_stream():
    kwargs = dict(r=1.0, settings=SpectrumSettings(averages=50), detector=NOISELESS)
    a = spectrum(rng=RngStream(36).substream(0), **kwargs)
    b = spectrum(rng=RngStream(36).substream(0), **kwargs)
    assert np.array_equal(a.snl_db, b.snl_db)
    assert np.array_equal(a.correlation_db, b.correlation_db)

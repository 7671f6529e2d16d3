import math

import numpy as np
import pytest

from qcsim.codec import decide_bits, decode_bit, encode_bit, signal_amplitude_for
from qcsim.detection import DetectorConfig, JointMeasurement, bell_measure
from qcsim.errors import DomainError, HidingWindowError, SignalBudgetError
from qcsim.quadrature import RngStream, hiding_window, sample_slots

NOISELESS = DetectorConfig(electronic_noise_var=0.0)


def _one_slot(x, y):
    """The signal beam of a block of one frame of one slot."""
    return np.array([[x]]), np.array([[y]])


def _encode(bits, amplitude, rows=None):
    """Encode `bits` at r=1 onto zero signal beams of one slot per bit row."""
    zeros = np.zeros((len(bits) if rows is None else rows, 1))
    return encode_bit(np.array(bits), amplitude, zeros, zeros, r=1.0)


def test_symbol_requires_positive_amplitude():
    with pytest.raises(DomainError):
        _encode([1], 0.0)
    with pytest.raises(DomainError):
        _encode([0], -1.0)
    with pytest.raises(DomainError):
        _encode([1], math.inf)


def test_frame_bit_symbol_consistency():
    _encode([1, 0], 1.0)
    _encode([True, False], 1.0)
    _encode([1.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        _encode([1, 2], 1.0)


@pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
def test_bit_block_rejects_non_binary_bits(bad):
    with pytest.raises(DomainError, match="bits must be 0 or 1"):
        _encode([0, 1, bad], 1.0)


def test_bit_checks_come_before_power_and_shape_checks():
    # A bad amplitude or bit is named before the hiding window or the
    # block shape is looked at.
    with pytest.raises(DomainError, match="amplitude"):
        _encode([2], 0.0, rows=3)
    with pytest.raises(DomainError, match="bits must be 0 or 1"):
        _encode([2], 100.0, rows=3)
    with pytest.raises(SignalBudgetError):
        _encode([1], 100.0, rows=3)


def test_symbol_for_bit_mapping():
    # Bit 1 rides on the amplitude quadrature, bit 0 on the phase quadrature.
    x, y = _encode([1, 0], 1.0)
    assert x.tolist() == [[1.0], [0.0]]
    assert y.tolist() == [[0.0], [1.0]]


def test_encode_am_displaces_amplitude_only():
    x, y = encode_bit(np.array([1]), 1.0, *_one_slot(0.2, -0.4), r=1.0)
    assert x[0, 0] == pytest.approx(1.2)
    assert y[0, 0] == -0.4


def test_encode_pm_displaces_phase_only():
    x, y = encode_bit(np.array([0]), 1.0, *_one_slot(0.2, -0.4), r=1.0)
    assert x[0, 0] == 0.2
    assert y[0, 0] == pytest.approx(0.6)


def test_encode_rejects_power_outside_window():
    # sqrt/square roundtrips wobble at the 1e-16 level, so probe the edges
    # with an unambiguous margin.
    w = hiding_window(1.0)
    edges = (
        w.lower * 0.5,
        w.lower * (1.0 - 1e-9),
        w.upper * (1.0 + 1e-9),
        w.upper * 2.0,
    )
    for power in edges:
        with pytest.raises(SignalBudgetError):
            encode_bit(np.array([1]), math.sqrt(power), *_one_slot(0.0, 0.0), r=1.0)


def test_encode_accepts_power_inside_window():
    # At r=1 a unit signal power sits inside (0.271, 3.762).
    encode_bit(np.array([1]), 1.0, *_one_slot(0.0, 0.0), r=1.0)


def test_encode_checks_batch_length():
    # One bit per row of a (frames, slots) block: other bit counts are
    # refused rather than broadcast over the rows, and so is a 1-D batch,
    # which three bits would otherwise turn into a (3, 16) block.
    block = sample_slots(1.0, RngStream(3).rows([1, 2, 3]), (3, 16))
    batch = sample_slots(1.0, RngStream(3).substream(0), 16)
    for bits, slots in (([1], block), ([1, 0], block), ([1, 0, 1], batch)):
        with pytest.raises(ValueError, match="bits need a"):
            encode_bit(np.array(bits), 1.0, slots.x1, slots.y1, r=1.0)


def test_amplitude_geometric_interpolation():
    s = signal_amplitude_for(1.0, 0.5)
    assert s * s == pytest.approx(1.0091162662888427, rel=1e-12)
    # Monotone in margin, pinned to the window edges in the limits.
    w = hiding_window(1.0)
    powers = [signal_amplitude_for(1.0, m) ** 2 for m in (0.01, 0.3, 0.5, 0.7, 0.99)]
    assert all(a < b for a, b in zip(powers, powers[1:]))
    assert w.lower < powers[0] < powers[-1] < w.upper


def test_amplitude_near_degenerate_window():
    s = signal_amplitude_for(math.log(3.0) / 4.0 + 1e-9, 0.5)
    assert s * s == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-6)


def test_amplitude_requires_open_window():
    with pytest.raises(HidingWindowError):
        signal_amplitude_for(0.2, 0.5)


@pytest.mark.parametrize("r, margin", [(0.4375, 1e-17), (60.0, 1e-300)])
def test_amplitude_rejects_margin_rounding_onto_window_edge(r, margin):
    # A valid margin this near 0 rounds s**2 onto or below the lower edge,
    # where encode_bit would refuse it; the error names the margin.
    with pytest.raises(SignalBudgetError, match=f"margin {margin!r} at r={r:g}"):
        signal_amplitude_for(r, margin)


@pytest.mark.parametrize("margin", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_amplitude_rejects_bad_margin(margin):
    with pytest.raises(DomainError):
        signal_amplitude_for(1.0, margin)


def test_decode_pure_amplitude_signal():
    joint = JointMeasurement(d_plus=np.full((1, 8), 1.0), d_minus=np.zeros((1, 8)))
    out = decode_bit(joint, noise_var=0.27)
    assert out.bit == [1]
    assert out.confidence[0] > 0


def test_decode_pure_phase_signal():
    joint = JointMeasurement(d_plus=np.zeros((1, 8)), d_minus=np.full((1, 8), 1.0))
    out = decode_bit(joint, noise_var=0.27)
    assert out.bit == [0]


def test_decode_tie_breaks_to_zero():
    joint = JointMeasurement(d_plus=np.full((1, 4), 0.5), d_minus=np.full((1, 4), -0.5))
    out = decode_bit(joint, noise_var=0.27)
    assert out.bit == [0]
    assert out.confidence == [0.0]


def test_decide_bits_is_the_decision_of_decode_bit():
    d_plus, d_minus = RngStream(61).standard_normal((2, 40, 3))
    d_minus[:5] = -d_plus[:5]  # exact ties decode as 0
    joint = JointMeasurement(d_plus, d_minus)
    assert decide_bits(joint) == decode_bit(joint, noise_var=0.27).bit
    assert decide_bits(joint)[:5] == [0] * 5
    with pytest.raises(ValueError):
        decide_bits(JointMeasurement(np.ones(2), np.ones(2)))
    with pytest.raises(ValueError):
        decide_bits(JointMeasurement(np.empty((1, 0)), np.empty((1, 0))))


def test_decode_accepts_measurement_sequence():
    # One bit per frame row.
    seq = JointMeasurement(
        np.array([[1.0, 0.8], [0.1, -0.1]]), np.array([[0.1, -0.1], [1.0, 0.8]])
    )
    assert decode_bit(seq, noise_var=0.27).bit == [1, 0]
    with pytest.raises(ValueError):
        decode_bit(JointMeasurement(np.ones(2), np.ones(2)), 0.27)


def test_decode_rejects_empty_frame():
    with pytest.raises(ValueError):
        decode_bit(JointMeasurement(np.empty((1, 0)), np.empty((1, 0))), 0.27)
    with pytest.raises(DomainError):
        decode_bit(JointMeasurement(np.ones((1, 2)), np.ones((1, 2))), 0.0)


def _decode_frames(r, amplitude, bits, m, seed):
    """Encode/measure/decode `bits` over a lossless noiseless channel, frame
    i drawn from substream i of `seed`."""
    corr_var = 2.0 * math.exp(-2.0 * r)
    root, frames = RngStream(seed), np.arange(bits.size)
    slots = sample_slots(r, root.rows(frames), (bits.size, m))
    encoded = encode_bit(bits, amplitude, slots.x1, slots.y1, r)
    joint = bell_measure(encoded, (slots.x2, slots.y2), NOISELESS, root.rows(frames, 1))
    result = decode_bit(joint, corr_var)
    return np.array(result.bit), np.array(result.confidence)


def test_decode_error_rate_mid_window():
    # Per-slot decoded SNR ~ 3.7 at r=1 with unit signal power; averaging
    # over 64 slots leaves essentially no errors.
    bits = (np.arange(10_000) % 2).astype(int)
    decoded, _ = _decode_frames(1.0, 1.0, bits, m=64, seed=71)
    ber = float(np.mean(decoded != bits))
    assert ber < 1e-3


def test_decoder_symmetry_between_bit_values():
    # Error statistics must not depend on the bit value; run in a noisy
    # regime (tiny frames, power near the squeezed floor) to see errors.
    r = 0.4375
    amplitude = math.sqrt(signal_amplitude_for(r, 0.1) ** 2)
    n = 20_000
    bits = (np.arange(n) % 2).astype(int)
    decoded, confidences = _decode_frames(r, amplitude, bits, m=2, seed=72)
    errors = decoded != bits
    p0 = float(np.mean(errors[bits == 0]))
    p1 = float(np.mean(errors[bits == 1]))
    assert 0.0 < p0 < 0.5 and 0.0 < p1 < 0.5
    p = (p0 + p1) / 2.0
    sigma = math.sqrt(p * (1.0 - p) * (2.0 / (n // 2)))
    assert abs(p0 - p1) <= 3.0 * sigma
    # Measured separation (confidence) is bit-independent too.
    c0 = float(np.mean(confidences[bits == 0]))
    c1 = float(np.mean(confidences[bits == 1]))
    s = math.sqrt(
        np.var(confidences[bits == 0]) / (n // 2)
        + np.var(confidences[bits == 1]) / (n // 2)
    )
    assert abs(c0 - c1) <= 3.0 * s


def test_concealment_inequalities_hold_for_accepted_symbols():
    rng = np.random.default_rng(14)
    for _ in range(50):
        r = float(rng.uniform(math.log(3.0) / 4.0 + 1e-6, 2.0))
        margin = float(rng.uniform(0.01, 0.99))
        power = signal_amplitude_for(r, margin) ** 2
        assert power / math.cosh(2.0 * r) < 1.0
        assert power / (2.0 * math.exp(-2.0 * r)) > 1.0

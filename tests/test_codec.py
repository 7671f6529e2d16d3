import math

import numpy as np
import pytest

from qcsim import (
    BitFrame,
    DetectorConfig,
    DomainError,
    HidingWindowError,
    JointMeasurement,
    Modulation,
    ModulationSymbol,
    RngStream,
    SignalBudgetError,
    SlotPair,
    bell_measure,
    decode_bit,
    encode_bit,
    hiding_window,
    sample_slots,
    signal_amplitude_for,
    symbol_for_bit,
)

NOISELESS = DetectorConfig(electronic_noise_var=0.0)


def test_symbol_requires_positive_amplitude():
    with pytest.raises(DomainError):
        ModulationSymbol(Modulation.AM, 0.0)
    with pytest.raises(DomainError):
        ModulationSymbol(Modulation.PM, -1.0)


def test_frame_bit_symbol_consistency():
    am = ModulationSymbol(Modulation.AM, 1.0)
    pm = ModulationSymbol(Modulation.PM, 1.0)
    BitFrame(0, 1, am, 4)
    BitFrame(0, 0, pm, 4)
    with pytest.raises(DomainError):
        BitFrame(0, 0, am, 4)
    with pytest.raises(DomainError):
        BitFrame(0, 1, pm, 4)
    with pytest.raises(DomainError):
        BitFrame(0, 2, am, 4)
    with pytest.raises(DomainError):
        BitFrame(0, 1, am, 0)


def test_symbol_for_bit_mapping():
    assert symbol_for_bit(1, 1.0).kind is Modulation.AM
    assert symbol_for_bit(0, 1.0).kind is Modulation.PM


def test_encode_am_displaces_amplitude_only():
    frame = BitFrame(0, 1, ModulationSymbol(Modulation.AM, 1.0), 1)
    slot = SlotPair(x1=0.2, y1=-0.4, x2=0.7, y2=0.1)
    out = encode_bit(frame, slot, r=1.0)
    assert out.x1 == pytest.approx(1.2)
    assert out.y1 == -0.4
    assert out.x2 == 0.7 and out.y2 == 0.1


def test_encode_pm_displaces_phase_only():
    frame = BitFrame(0, 0, ModulationSymbol(Modulation.PM, 1.0), 1)
    slot = SlotPair(x1=0.2, y1=-0.4, x2=0.7, y2=0.1)
    out = encode_bit(frame, slot, r=1.0)
    assert out.x1 == 0.2
    assert out.y1 == pytest.approx(0.6)


def test_encode_never_touches_idler_arrays():
    slots = sample_slots(1.0, RngStream(3).substream(0), 16)
    frame = BitFrame(0, 1, ModulationSymbol(Modulation.AM, 1.0), 16)
    out = encode_bit(frame, slots, r=1.0)
    assert out.x2 is slots.x2
    assert out.y2 is slots.y2


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
        symbol = ModulationSymbol(Modulation.AM, math.sqrt(power))
        frame = BitFrame(0, 1, symbol, 1)
        with pytest.raises(SignalBudgetError):
            encode_bit(frame, SlotPair(0.0, 0.0, 0.0, 0.0), r=1.0)


def test_encode_accepts_power_inside_window():
    # At r=1 a unit signal power sits inside (0.271, 3.762).
    frame = BitFrame(0, 1, ModulationSymbol(Modulation.AM, 1.0), 1)
    encode_bit(frame, SlotPair(0.0, 0.0, 0.0, 0.0), r=1.0)


def test_encode_checks_batch_length():
    frame = BitFrame(0, 1, ModulationSymbol(Modulation.AM, 1.0), 8)
    slots = sample_slots(1.0, RngStream(3).substream(1), 16)
    with pytest.raises(ValueError):
        encode_bit(frame, slots, r=1.0)


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


@pytest.mark.parametrize("margin", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_amplitude_rejects_bad_margin(margin):
    with pytest.raises(DomainError):
        signal_amplitude_for(1.0, margin)


def test_decode_pure_amplitude_signal():
    joint = JointMeasurement(d_plus=np.full(8, 1.0), d_minus=np.zeros(8))
    out = decode_bit(joint, amplitude=1.0, noise_var=0.27)
    assert out.bit == 1
    assert out.confidence > 0


def test_decode_pure_phase_signal():
    joint = JointMeasurement(d_plus=np.zeros(8), d_minus=np.full(8, 1.0))
    out = decode_bit(joint, amplitude=1.0, noise_var=0.27)
    assert out.bit == 0


def test_decode_tie_breaks_to_zero():
    joint = JointMeasurement(d_plus=np.full(4, 0.5), d_minus=np.full(4, -0.5))
    out = decode_bit(joint, amplitude=1.0, noise_var=0.27)
    assert out.bit == 0
    assert out.confidence == 0.0


def test_decode_accepts_measurement_sequence():
    seq = JointMeasurement(np.array([1.0, 0.8]), np.array([0.1, -0.1]))
    assert decode_bit(seq, amplitude=1.0, noise_var=0.27).bit == 1


def test_decode_rejects_empty_frame():
    with pytest.raises(ValueError):
        decode_bit(JointMeasurement(np.array([]), np.array([])), 1.0, 0.27)
    with pytest.raises(DomainError):
        decode_bit(JointMeasurement(np.ones(2), np.ones(2)), 1.0, 0.0)


def _decode_frames(r, amplitude, bits, m, seed):
    """Encode/measure/decode `bits` over a lossless noiseless channel."""
    corr_var = 2.0 * math.exp(-2.0 * r)
    decoded = []
    confidences = []
    root = RngStream(seed)
    for i, bit in enumerate(bits):
        slots = sample_slots(r, root.substream(i), m)
        frame = BitFrame(i, bit, symbol_for_bit(bit, amplitude), m)
        enc = encode_bit(frame, slots, r)
        joint = bell_measure(
            (enc.x1, enc.y1), (enc.x2, enc.y2), NOISELESS, root.substream(i, 1)
        )
        result = decode_bit(joint, amplitude, corr_var)
        decoded.append(result.bit)
        confidences.append(result.confidence)
    return np.array(decoded), np.array(confidences)


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

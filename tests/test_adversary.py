import math

import numpy as np
import pytest

from qcsim.adversary import (
    InterceptResend,
    InterceptResendEve,
    Qnd,
    Tap,
    back_action_var,
    qnd_measure,
    tap,
)
from qcsim.codec import signal_amplitude_for
from qcsim.detection import DetectorConfig, bell_measure
from qcsim.errors import DomainError
from qcsim.quadrature import Quadrature, RngStream, sample_slots

NOISELESS = DetectorConfig(electronic_noise_var=0.0)
COSH_0875 = 1.4078686568228032


def test_attack_spec_validation():
    with pytest.raises(DomainError):
        Tap(tau=1.5)
    with pytest.raises(DomainError):
        Tap(tau=-0.1)
    with pytest.raises(DomainError):
        InterceptResend(fake_r=-1.0)
    with pytest.raises(DomainError):
        Qnd(measurement_var=0.0)


def test_tap_zero_is_transparent():
    slots = sample_slots(0.4375, RngStream(41).substream(0), 10_000)
    result = tap(slots.x1, slots.y1, 0.0, RngStream(41).substream(1))
    assert np.array_equal(result.to_bob[0], slots.x1)
    assert np.array_equal(result.to_bob[1], slots.y1)
    # The eavesdropper port carries pure vacuum.
    assert np.var(result.eve) == pytest.approx(1.0, rel=0.05)
    assert abs(np.corrcoef(result.eve, slots.x1)[0, 1]) < 0.05


def test_tap_full_diversion_destroys_correlation():
    n = 1_000_000
    slots = sample_slots(0.4375, RngStream(42).substream(0), n)
    result = tap(slots.x1, slots.y1, 1.0, RngStream(42).substream(1))
    out = bell_measure(
        result.to_bob, (slots.x2, slots.y2), NOISELESS, RngStream(42).substream(2)
    )
    # Bob sees vacuum plus his own noisy beam: above the two-beam SNL.
    assert np.var(out.d_plus) == pytest.approx(1.0 + COSH_0875, rel=0.02)
    # Eve now holds the full beam.
    assert np.var(result.eve) == pytest.approx(COSH_0875, rel=0.02)


def test_tap_eavesdropper_port_variance():
    n = 400_000
    slots = sample_slots(0.4375, RngStream(43).substream(0), n)
    for tau in (0.2, 0.6):
        result = tap(slots.x1, slots.y1, tau, RngStream(43).substream(int(tau * 10)))
        expected = tau * COSH_0875 + (1.0 - tau)
        assert np.var(result.eve) == pytest.approx(expected, rel=0.02)


def test_tap_tradeoff_is_monotone():
    # Bob's correlation degrades while Eve's view of the beam sharpens.
    n = 200_000
    taus = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    cds = []
    eve_corrs = []
    for i, tau in enumerate(taus):
        slots = sample_slots(0.4375, RngStream(44).substream(i), n)
        result = tap(slots.x1, slots.y1, tau, RngStream(44).substream(i, 1))
        var_sum = float(np.var(result.to_bob[0] + slots.x2))
        cds.append(-10.0 * math.log10(var_sum / 2.0))
        eve_corrs.append(abs(float(np.corrcoef(result.eve, slots.x1)[0, 1])))
    assert all(a > b for a, b in zip(cds, cds[1:]))
    assert all(a < b for a, b in zip(eve_corrs, eve_corrs[1:]))


def test_qnd_product_of_readout_and_back_action_is_unity():
    for var in (0.25, 1.0, 7.5):
        assert var * back_action_var(var) == pytest.approx(1.0, rel=1e-12)
    # 1e-310 is positive and finite, but its back-action 1/var overflows.
    for var in (0.0, 1e-310):
        with pytest.raises(DomainError, match="measurement_var"):
            back_action_var(var)
        with pytest.raises(DomainError, match="measurement_var"):
            Qnd(measurement_var=var)


def test_qnd_negligible_disturbance_in_weak_limit():
    n = 400_000
    slots = sample_slots(0.4375, RngStream(45).substream(0), n)
    result = qnd_measure(
        slots.x1, slots.y1, Quadrature.X, 1.0e6, RngStream(45).substream(1)
    )
    out = bell_measure(
        result.to_bob, (slots.x2, slots.y2), NOISELESS, RngStream(45).substream(2)
    )
    corr = 2.0 * math.exp(-0.875)
    tol = 3.0 * corr * math.sqrt(2.0 / n)
    assert abs(np.var(out.d_minus) - corr) <= tol
    assert abs(np.var(out.d_plus) - corr) <= tol


def test_qnd_back_action_lands_on_conjugate_only():
    n = 1_000_000
    slots = sample_slots(0.4375, RngStream(46).substream(0), n)
    result = qnd_measure(
        slots.x1, slots.y1, Quadrature.X, 1.0, RngStream(46).substream(1)
    )
    # Measured quadrature forwarded unchanged.
    assert np.array_equal(result.to_bob[0], slots.x1)
    out = bell_measure(
        result.to_bob, (slots.x2, slots.y2), NOISELESS, RngStream(46).substream(2)
    )
    corr = 2.0 * math.exp(-0.875)
    assert np.var(out.d_minus) == pytest.approx(corr + 1.0, rel=0.02)
    assert np.var(out.d_plus) == pytest.approx(corr, rel=0.01)
    # Eve's readout carries the beam plus readout noise.
    assert np.var(result.eve) == pytest.approx(COSH_0875 + 1.0, rel=0.02)


def test_qnd_phase_probe_kicks_amplitude():
    n = 400_000
    slots = sample_slots(0.4375, RngStream(47).substream(0), n)
    result = qnd_measure(
        slots.x1, slots.y1, Quadrature.Y, 0.5, RngStream(47).substream(1)
    )
    out = bell_measure(
        result.to_bob, (slots.x2, slots.y2), NOISELESS, RngStream(47).substream(2)
    )
    corr = 2.0 * math.exp(-0.875)
    assert np.var(out.d_plus) == pytest.approx(corr + 2.0, rel=0.02)
    assert np.var(out.d_minus) == pytest.approx(corr, rel=0.02)


def _run_intercept_chain(fake_r, session_r, bits, m, seed):
    """Drive the intercept-resend relay over a lossless channel; returns
    (eve_bits, bob_bits, eve)."""
    from qcsim.codec import decode_bit

    amplitude = signal_amplitude_for(session_r, 0.5)
    eve = InterceptResendEve(fake_r, amplitude, session_r, RngStream(seed ^ 0xE5E))
    root = RngStream(seed)
    noise_var = 2.0 * math.exp(-2.0 * session_r)
    bob_bits = []
    for i, bit in enumerate(bits):
        slots = sample_slots(session_r, root.substream(i), m)
        frame = np.array([i])
        fake_x, fake_y = eve.substitute(frame, slots.x1[None], slots.y1[None])
        # The sender modulates the fake beam exactly as she would the real one.
        if bit == 1:
            fake_x = fake_x + amplitude
        else:
            fake_y = fake_y + amplitude
        to_bob_x, to_bob_y = eve.relay(frame, fake_x, fake_y, root.rows(frame, 2))
        joint = bell_measure(
            (to_bob_x, to_bob_y),
            (slots.x2[None], slots.y2[None]),
            NOISELESS,
            root.rows(frame, 1),
        )
        bob_bits.extend(decode_bit(joint, amplitude, noise_var).bit)
    return list(eve.record.decoded_bits), bob_bits, eve


def test_intercept_resend_relays_bits_invisibly():
    bits = [1, 0, 0, 1, 1, 0]
    eve_bits, bob_bits, eve = _run_intercept_chain(1.0, 0.4375, bits, 64, seed=48)
    assert eve_bits == bits
    assert bob_bits == bits
    assert list(eve.record.decoded_bits) == bits


def test_intercept_resend_with_uncorrelated_fake_source():
    # Even an uncorrelated substitute source lets the attacker decode the
    # block means: the concealment budget bounds the per-slot exposure only.
    bits = [1, 0] * 50
    eve_bits, bob_bits, _ = _run_intercept_chain(0.0, 0.4375, bits, 64, seed=49)
    eve_ber = float(np.mean(np.array(eve_bits) != np.array(bits)))
    assert eve_ber < 0.05
    assert bob_bits == eve_bits
    # Her per-slot view stays below unity signal-to-noise, as required of an
    # accepted symbol against any unit-floor observer.
    power = signal_amplitude_for(0.4375, 0.5) ** 2
    assert power / 2.0 < 1.0


def test_intercept_fake_beam_is_independent_of_idler():
    n = 10_000
    slots = sample_slots(0.4375, RngStream(50).substream(0), n)
    amplitude = signal_amplitude_for(0.4375, 0.5)
    eve = InterceptResendEve(1.0, amplitude, 0.4375, RngStream(51))
    fake_x, _ = eve.substitute(np.array([0]), slots.x1[None], slots.y1[None])
    assert abs(np.corrcoef(fake_x[0], slots.x2)[0, 1]) < 0.05
    # The genuine beam, by contrast, is strongly anticorrelated.
    assert np.corrcoef(slots.x1, slots.x2)[0, 1] < -0.5


def test_intercept_eve_drop_discards_frame_state():
    slots = sample_slots(0.4375, RngStream(52).substream(0), 16)
    amplitude = signal_amplitude_for(0.4375, 0.5)
    eve = InterceptResendEve(1.0, amplitude, 0.4375, RngStream(53))
    frame = np.array([0])
    eve.substitute(frame, slots.x1[None], slots.y1[None])
    eve.drop(frame)
    with pytest.raises(KeyError):
        eve.relay(frame, slots.x1[None], slots.y1[None], RngStream(54).rows(frame))


def test_intercept_eve_holds_exactly_the_last_substituted_chunk():
    frames = np.array([4, 5, 6])
    slots = sample_slots(0.4375, RngStream(55).rows(frames), (3, 16))
    amplitude = signal_amplitude_for(0.4375, 0.5)
    eve = InterceptResendEve(1.0, amplitude, 0.4375, RngStream(56))
    fake_x, fake_y = eve.substitute(frames, slots.x1, slots.y1)
    rng = RngStream(57).rows(frames)
    # A subset of the held chunk, or another chunk, is refused either way
    # and leaves the chunk held.
    for other in (frames[:2], frames[1:], np.array([7, 8, 9])):
        with pytest.raises(KeyError):
            eve.relay(other, fake_x[: other.size], fake_y[: other.size], rng)
        with pytest.raises(KeyError):
            eve.drop(other)
    eve.relay(frames, fake_x, fake_y, rng)
    # Once relayed, the chunk is gone.
    with pytest.raises(KeyError):
        eve.relay(frames, fake_x, fake_y, rng)
    with pytest.raises(KeyError):
        eve.drop(frames)


@pytest.mark.parametrize("bad_tau", [-0.01, 1.01, float("nan")])
def test_tap_rejects_bad_fraction(bad_tau):
    with pytest.raises(DomainError):
        tap(0.1, 0.1, bad_tau, RngStream(1))


def test_qnd_rejects_bad_variance():
    with pytest.raises(DomainError):
        qnd_measure(0.1, 0.1, Quadrature.X, 0.0, RngStream(1))

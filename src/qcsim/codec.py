"""Key-bit encoding onto quadrature displacements and block-mean decoding.

A bit occupies one frame of M slots carrying a constant displacement: bit 1
shifts the amplitude quadrature of the signal beam, bit 0 the phase
quadrature.  Only the choice of quadrature carries information; the
displacement sign is fixed positive.  The displacement power must sit
strictly inside the hiding window, above the squeezed floor (so the
receiver can decode it) but below the single-beam noise (so it stays
concealed from anyone holding the signal beam alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HidingWindowError, SignalBudgetError
from .quadrature import HIDING_THRESHOLD_R, SqueezeParam, hiding_window


def signal_amplitude_for(r: SqueezeParam, margin: float) -> float:
    """Displacement amplitude whose power interpolates across the hiding window.

    The power is lower**(1-margin) * upper**margin, the geometric
    interpolation between the window edges; margin 0.5 gives the geometric
    mean.  Raises HidingWindowError when the window is empty, and
    SignalBudgetError when a margin near 0 or 1 rounds the power onto or
    past a window edge, where `encode_bit` would refuse it.
    """
    margin = float(margin)
    if not (math.isfinite(margin) and 0.0 < margin < 1.0):
        raise DomainError(f"margin must lie strictly in (0, 1), got {margin!r}")
    window = hiding_window(r)
    if window.empty:
        raise HidingWindowError(
            f"no concealable signal power at r={r:g}; "
            f"requires r > ln(3)/4 ~ {HIDING_THRESHOLD_R:.4f}"
        )
    amplitude = math.sqrt(window.lower ** (1.0 - margin) * window.upper**margin)
    # The power that `encode_bit` checks is the squared amplitude.
    power = amplitude * amplitude
    if not window.contains(power):
        raise SignalBudgetError(
            f"margin {margin!r} at r={r:g} rounds the signal power {power!r} "
            f"onto or past an edge of the hiding window "
            f"({window.lower!r}, {window.upper!r}); choose a margin farther "
            f"from 0 and 1"
        )
    return amplitude


def encode_bit(bits, amplitude: float, x, y, r: SqueezeParam):
    """Displace each row of a (frames, slots) signal beam (x, y) by its own
    bit at one amplitude: bit 1 on the amplitude quadrature, bit 0 on the
    phase quadrature; returns the displaced (x, y).

    Refuses to encode a power outside the hiding window: such a signal
    would either be exposed in the single-beam noise or undecodable.
    """
    s = amplitude
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"modulation amplitude must be finite and > 0, got {s!r}")
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise DomainError("bits must be 0 or 1")
    window = hiding_window(r)
    if not window.contains(s * s):
        raise SignalBudgetError(
            f"signal power {s * s:g} outside the hiding window "
            f"({window.lower:g}, {window.upper:g}) at r={r:g}"
        )
    shape = np.shape(x)
    if len(shape) != 2 or bits.shape != shape[:1]:
        raise ValueError(
            f"{bits.size} bits need a (frames, slots) block of as many rows, "
            f"got shape {shape}"
        )
    am = (bits == 1)[:, None]
    return np.where(am, x + s, x), np.where(am, y, y + s)


@dataclass(frozen=True)
class DecodedBit:
    """Bits and confidences of a block of frames, one entry per frame."""

    bit: list[int]
    confidence: list[float]


def _block_means(joint):
    """|mean(d_plus)| and |mean(d_minus)| per frame of the two joint
    outputs, given as (frames, slots) arrays."""
    d_plus, d_minus = joint.d_plus, joint.d_minus
    if d_plus.ndim != 2 or d_plus.shape != d_minus.shape:
        raise ValueError("d_plus and d_minus must be equally shaped (frames, slots)")
    if d_plus.shape[-1] == 0:
        raise ValueError("cannot decode an empty frame")
    return np.abs(np.mean(d_plus, axis=-1)), np.abs(np.mean(d_minus, axis=-1))


def decide_bits(joint) -> list[int]:
    """Each frame's bit as `decode_bit` decides it, without a confidence."""
    m_plus, m_minus = _block_means(joint)
    return (m_plus > m_minus).astype(int).tolist()


def decode_bit(joint, noise_var: float) -> DecodedBit:
    """Decide each frame's bit from the block means of the two joint
    outputs, given as (frames, slots) arrays.

    The larger of |mean(d_plus)| and |mean(d_minus)| picks the modulated
    quadrature (amplitude -> 1, phase -> 0).  Confidence is the gap between
    the two magnitudes in units of the expected standard error of a block
    mean, sqrt(noise_var / M).  An exact tie decodes as 0 with confidence 0.
    """
    if not noise_var > 0.0:
        raise DomainError(f"noise_var must be > 0, got {noise_var!r}")
    m_plus, m_minus = _block_means(joint)
    sigma = math.sqrt(noise_var / joint.d_plus.shape[-1])
    # A tie gives bit 0 and a zero gap, hence confidence 0.
    return DecodedBit(
        bit=(m_plus > m_minus).astype(int).tolist(),
        confidence=(np.abs(m_plus - m_minus) / sigma).tolist(),
    )

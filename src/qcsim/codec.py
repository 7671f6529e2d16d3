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
from enum import Enum

import numpy as np

from .errors import DomainError, HidingWindowError, SignalBudgetError
from .quadrature import HIDING_THRESHOLD_R, SlotPair, SqueezeParam, hiding_window


class Modulation(Enum):
    AM = "am"  # amplitude-quadrature displacement, carries bit 1
    PM = "pm"  # phase-quadrature displacement, carries bit 0


@dataclass(frozen=True)
class ModulationSymbol:
    """A displacement of amplitude s > 0 on one quadrature; signal power is s**2."""

    kind: Modulation
    amplitude: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise DomainError(
                f"modulation amplitude must be finite and > 0, got {self.amplitude!r}"
            )

    @property
    def power(self) -> float:
        return self.amplitude * self.amplitude


@dataclass(frozen=True)
class BitFrame:
    """One key bit and the symbol that carries it over slot_count slots."""

    frame_index: int
    bit: int
    symbol: ModulationSymbol
    slot_count: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise DomainError(f"bit must be 0 or 1, got {self.bit!r}")
        if self.slot_count < 1:
            raise DomainError(f"slot_count must be >= 1, got {self.slot_count!r}")
        if (self.bit == 1) != (self.symbol.kind is Modulation.AM):
            raise DomainError("bit 1 must ride on AM, bit 0 on PM")

    @property
    def amplitude(self) -> float:
        return self.symbol.amplitude


@dataclass(frozen=True)
class BitBlock:
    """Key bits of a block of frames: row i of a (frames, slot_count) slot
    block carries bits[i], every row at one signal amplitude."""

    bits: np.ndarray
    amplitude: float
    slot_count: int

    def __post_init__(self):
        ModulationSymbol(Modulation.AM, self.amplitude)  # validates
        if not np.isin(self.bits, (0, 1)).all():
            raise DomainError("bits must be 0 or 1")
        if self.slot_count < 1:
            raise DomainError(f"slot_count must be >= 1, got {self.slot_count!r}")


def symbol_for_bit(bit: int, amplitude: float) -> ModulationSymbol:
    if bit not in (0, 1):
        raise DomainError(f"bit must be 0 or 1, got {bit!r}")
    return ModulationSymbol(Modulation.AM if bit == 1 else Modulation.PM, amplitude)


def signal_amplitude_for(r: SqueezeParam, margin: float) -> float:
    """Displacement amplitude whose power interpolates across the hiding window.

    The power is lower**(1-margin) * upper**margin, the geometric
    interpolation between the window edges; margin 0.5 gives the geometric
    mean.  Raises HidingWindowError when the window is empty.
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
    power = window.lower ** (1.0 - margin) * window.upper**margin
    return math.sqrt(power)


def encode_bit(frame: BitFrame | BitBlock, slot: SlotPair, r: SqueezeParam) -> SlotPair:
    """Displace the signal beam of `slot` by the frame's symbol, or each row
    of a (frames, slots) block by its own bit.

    The idler quadratures are returned untouched (the sender never holds
    them).  Refuses to encode a power outside the hiding window: such a
    signal would either be exposed in the single-beam noise or undecodable.
    """
    s = frame.amplitude
    window = hiding_window(r)
    if not window.contains(s * s):
        raise SignalBudgetError(
            f"signal power {s * s:g} outside the hiding window "
            f"({window.lower:g}, {window.upper:g}) at r={r:g}"
        )
    shape = np.shape(slot.x1)
    if shape and shape[-1] != frame.slot_count:
        raise ValueError(
            f"slot batch of length {shape[-1]} does not match frame slot_count "
            f"{frame.slot_count}"
        )
    if isinstance(frame, BitBlock):
        am = (np.asarray(frame.bits) == 1)[:, None]
        x1 = np.where(am, slot.x1 + s, slot.x1)
        y1 = np.where(am, slot.y1, slot.y1 + s)
        return SlotPair(x1, y1, slot.x2, slot.y2)
    if frame.symbol.kind is Modulation.AM:
        return SlotPair(slot.x1 + s, slot.y1, slot.x2, slot.y2)
    return SlotPair(slot.x1, slot.y1 + s, slot.x2, slot.y2)


@dataclass(frozen=True)
class DecodedBit:
    """A frame's bit and confidence; lists of them, one entry per frame,
    when decoded from a (frames, slots) block."""

    bit: int | list[int]
    confidence: float | list[float]


def decode_bit(joint, amplitude: float, noise_var: float) -> DecodedBit:
    """Decide a frame's bit from the block means of the two joint outputs.

    The larger of |mean(d_plus)| and |mean(d_minus)| picks the modulated
    quadrature (amplitude -> 1, phase -> 0).  Confidence is the gap between
    the two magnitudes in units of the expected standard error of a block
    mean, sqrt(noise_var / M).  An exact tie decodes as 0 with confidence 0.
    Block means run along the last axis, so a (frames, slots) block decodes
    one bit per frame.
    """
    if not amplitude > 0.0:
        raise DomainError(f"amplitude must be > 0, got {amplitude!r}")
    if not noise_var > 0.0:
        raise DomainError(f"noise_var must be > 0, got {noise_var!r}")
    d_plus = np.atleast_1d(np.asarray(joint.d_plus, dtype=float))
    d_minus = np.atleast_1d(np.asarray(joint.d_minus, dtype=float))
    if d_plus.shape[-1] == 0:
        raise ValueError("cannot decode an empty frame")
    if d_plus.shape != d_minus.shape:
        raise ValueError("d_plus and d_minus must have equal length")
    m_plus = np.abs(np.mean(d_plus, axis=-1))
    m_minus = np.abs(np.mean(d_minus, axis=-1))
    sigma = math.sqrt(noise_var / d_plus.shape[-1])
    # A tie gives bit 0 and a zero gap, hence confidence 0.
    return DecodedBit(
        bit=(m_plus > m_minus).astype(int).tolist(),
        confidence=(np.abs(m_plus - m_minus) / sigma).tolist(),
    )

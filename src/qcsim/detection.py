"""Joint measurement of the returned signal beam against the retained idler.

The detector gives simultaneous access to the amplitude-sum x1'+x2 and the
phase-difference y1'-y2 photocurrents; the optical internals (phase shifter,
50/50 splitter, photodiode pair) are subsumed in that definition.  Also
provides shot-noise calibration, correlation-degree reporting in dB below
the two-beam shot-noise limit, and a spectrum-analyzer style trace
generator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import FrameRows, Quadrature, RngStream

#: Shot-noise limit of a joint two-beam measurement, in shot-noise units.
TWO_BEAM_SNL = 2.0

#: Default electronic noise per output channel: 8 dB below the two-beam SNL.
DEFAULT_ELECTRONIC_NOISE_VAR = TWO_BEAM_SNL * 10.0 ** (-0.8)


@dataclass(frozen=True)
class DetectorConfig:
    electronic_noise_var: float = DEFAULT_ELECTRONIC_NOISE_VAR

    def __post_init__(self):
        if not (
            math.isfinite(self.electronic_noise_var)
            and self.electronic_noise_var >= 0.0
        ):
            raise DomainError(
                f"electronic noise variance must be finite and >= 0, "
                f"got {self.electronic_noise_var!r}"
            )


@dataclass(frozen=True)
class JointMeasurement:
    """Joint detector outputs; scalars or equally shaped arrays."""

    d_plus: float | np.ndarray  # x1' + x2 (+ electronic noise)
    d_minus: float | np.ndarray  # y1' - y2 (+ electronic noise)


def _bell_outputs(x1, y1, x2, y2, cfg: DetectorConfig, g):
    d_plus = x1 + x2
    d_minus = y1 - y2
    if cfg.electronic_noise_var > 0.0:
        scale = math.sqrt(cfg.electronic_noise_var)
        n_plus, n_minus = g.standard_normal((2, *np.shape(d_plus)))
        d_plus = d_plus + scale * n_plus
        d_minus = d_minus + scale * n_minus
    return JointMeasurement(d_plus=d_plus, d_minus=d_minus)


def bell_measure(
    received, idler, cfg: DetectorConfig, rng: RngStream | FrameRows
) -> JointMeasurement:
    """Measure the amplitude sum and phase difference of two beams.

    `received` and `idler` are (x, y) pairs; each output channel gains
    independent zero-mean electronic noise of the configured variance.
    """
    x1, y1 = received
    x2, y2 = idler
    return _bell_outputs(x1, y1, x2, y2, cfg, rng)


def snl_reference(n: int, cfg: DetectorConfig, rng: RngStream) -> float:
    """Calibrate the shot-noise reference from two independent vacuum beams.

    Returns the sample variance of the amplitude-sum output; expectation
    2 + electronic noise.  The calibration does not depend on the source
    correlation, only on the vacuum inputs.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    g = rng.generator()
    x1, y1, x2, y2 = g.standard_normal((4, n))
    out = _bell_outputs(x1, y1, x2, y2, cfg, g)
    if n == 1:
        warnings.warn(
            "single-sample shot-noise calibration is low precision",
            stacklevel=2,
        )
        return float(out.d_plus[0] ** 2)
    return float(np.var(out.d_plus, ddof=1))


@dataclass(frozen=True)
class CorrelationDegree:
    """dB below the two-beam SNL; > 0 indicates quantum correlation."""

    cd_db: float | list[float]


def correlation_degree(
    samples: JointMeasurement, channel: Quadrature = Quadrature.X
) -> CorrelationDegree:
    """-10*log10(Var(d)/2) of the chosen joint output (X -> d_plus, Y -> d_minus).

    The variance runs along the last axis: a (frames, slots) block gives a
    list with one value per frame.
    """
    d = np.asarray(samples.d_plus if channel is Quadrature.X else samples.d_minus)
    if d.ndim == 0 or d.shape[-1] < 2:
        raise ValueError("correlation degree needs at least two samples")
    var = np.var(d, axis=-1, ddof=1)
    cd_db = [-10.0 * math.log10(v / TWO_BEAM_SNL) for v in np.ravel(var).tolist()]
    return CorrelationDegree(cd_db=cd_db if var.ndim else cd_db[0])


@dataclass(frozen=True)
class SpectralSignal:
    """A modulation tone to place on the traces; power is the displacement s**2.

    Both quadratures produce statistically identical traces, so the choice
    only labels which joint output would carry the tone.
    """

    freq_hz: float
    power: float
    quadrature: Quadrature = Quadrature.X


@dataclass(frozen=True)
class NoiseSpectrum:
    """Three spectrum-analyzer traces, all in dB relative to the two-beam SNL."""

    freq_hz: np.ndarray
    snl_db: np.ndarray
    single_beam_db: np.ndarray
    correlation_db: np.ndarray
    rbw_hz: float
    span_hz: tuple[float, float]


def spectrum(
    r,
    span_hz,
    rbw_hz: float,
    averages: int,
    cfg: DetectorConfig,
    rng: RngStream,
    signal: SpectralSignal | None = None,
) -> NoiseSpectrum:
    """Emulate spectrum-analyzer traces over a frequency span.

    Bins sit at span start + k*rbw.  `r` is a scalar or one value per bin
    (frequency-dependent correlation).  Per bin, three powers are estimated:
    the shot-noise reference (0 dB by normalization), the single-beam noise
    (cosh 2r + signal)/2, and the correlation noise
    (2e^-2r + signal + electronic)/2.  Each estimate carries the
    multiplicative jitter of an `averages`-batch variance estimate,
    chi2(averages)/averages.  A signal tone is snapped to the nearest bin
    center and contributes to exactly one bin.
    """
    lo, hi = (float(span_hz[0]), float(span_hz[1]))
    rbw_hz = float(rbw_hz)
    averages = int(averages)
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError(f"span must be a non-empty interval, got ({lo!r}, {hi!r})")
    if not (math.isfinite(rbw_hz) and rbw_hz > 0.0):
        raise DomainError(f"resolution bandwidth must be > 0, got {rbw_hz!r}")
    if rbw_hz > hi - lo:
        raise DomainError(
            f"resolution bandwidth {rbw_hz:g} Hz exceeds the span {hi - lo:g} Hz"
        )
    if averages < 1:
        raise DomainError(f"averages must be >= 1, got {averages}")

    n_bins = int(math.floor((hi - lo) / rbw_hz + 1e-9)) + 1
    freqs = lo + rbw_hz * np.arange(n_bins)

    r_bins = np.broadcast_to(np.asarray(r, dtype=float), (n_bins,)).copy()
    if not (np.all(np.isfinite(r_bins)) and np.all(r_bins >= 0.0)):
        raise DomainError("per-bin correlation parameters must be finite and >= 0")

    sig_power = np.zeros(n_bins)
    if signal is not None:
        if not lo <= signal.freq_hz <= hi:
            raise DomainError(
                f"signal frequency {signal.freq_hz:g} Hz outside span "
                f"({lo:g}, {hi:g}) Hz"
            )
        if not signal.power > 0.0:
            raise DomainError(f"signal power must be > 0, got {signal.power!r}")
        bin_index = min(int(round((signal.freq_hz - lo) / rbw_hz)), n_bins - 1)
        sig_power[bin_index] = signal.power

    c = np.cosh(2.0 * r_bins)
    corr_floor = 2.0 * np.exp(-2.0 * r_bins) + cfg.electronic_noise_var

    jitter = rng.generator().chisquare(averages, size=(3, n_bins)) / averages
    snl_db = 10.0 * np.log10(jitter[0])
    single_beam_db = 10.0 * np.log10((c + sig_power) * jitter[1] / TWO_BEAM_SNL)
    correlation_db = 10.0 * np.log10(
        (corr_floor + sig_power) * jitter[2] / TWO_BEAM_SNL
    )
    return NoiseSpectrum(
        freq_hz=freqs,
        snl_db=snl_db,
        single_beam_db=single_beam_db,
        correlation_db=correlation_db,
        rbw_hz=rbw_hz,
        span_hz=(lo, hi),
    )

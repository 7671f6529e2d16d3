"""Joint measurement of the returned signal beam against the retained idler.

The detector gives simultaneous access to the amplitude-sum x1'+x2 and the
phase-difference y1'-y2 photocurrents; the optical internals (phase shifter,
50/50 splitter, photodiode pair) are subsumed in that definition.  Also
provides correlation-degree reporting in dB below the two-beam shot-noise
limit and a spectrum-analyzer style trace generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import (
    FrameRows, Quadrature, RngStream, _check_interval, _check_numbers, hiding_window,
)

#: Shot-noise limit of a joint two-beam measurement, in shot-noise units.
TWO_BEAM_SNL = 2.0

#: Default electronic noise per output channel: 8 dB below the two-beam SNL.
DEFAULT_ELECTRONIC_NOISE_VAR = TWO_BEAM_SNL * 10.0 ** (-0.8)

#: Most bins a spectrum may hold: its arrays and its CSV file grow with the
#: span over the resolution bandwidth.
MAX_SPECTRUM_BINS = 100_000


@dataclass(frozen=True)
class DetectorConfig:
    electronic_noise_var: float = DEFAULT_ELECTRONIC_NOISE_VAR

    def __post_init__(self):
        _check_numbers(self)
        if not self.electronic_noise_var >= 0.0:
            raise DomainError(
                f"electronic noise variance must be >= 0, got {self.electronic_noise_var!r}"
            )

    def add_noise(self, channels, rng: RngStream | FrameRows):
        """The two arrays `channels` yields, each plus independent zero-mean
        electronic noise of the configured variance, from one (2, *shape)
        draw; unchanged, and nothing drawn, when the variance is 0.  The sums
        are formed in the draw, as its (non-contiguous) rows, each before the
        next channel is taken, so a generator of channels holds one at a
        time.  No channel is written."""
        if self.electronic_noise_var == 0.0:
            return tuple(channels)
        channels = iter(channels)
        a = next(channels)
        noise = rng.standard_normal((2, *np.shape(a)))
        noise *= math.sqrt(self.electronic_noise_var)
        noise[0] += a
        del a
        noise[1] += next(channels)
        return noise[0], noise[1]


@dataclass(frozen=True)
class JointMeasurement:
    """Joint detector outputs; scalars or equally shaped arrays."""

    d_plus: float | np.ndarray  # x1' + x2 (+ electronic noise)
    d_minus: float | np.ndarray  # y1' - y2 (+ electronic noise)


def bell_measure(
    received, idler, cfg: DetectorConfig, rng: RngStream | FrameRows
) -> JointMeasurement:
    """Measure the amplitude sum and phase difference of two beams.

    `received` and `idler` are (x, y) pairs; each output channel gains
    independent zero-mean electronic noise of the configured variance.  The
    outputs may be the two (non-contiguous) rows of one noise draw.
    """
    return JointMeasurement(*cfg.add_noise(_joint_sums(received, idler), rng))


def _joint_sums(received, idler):
    """x1' + x2, then y1' - y2, each formed when it is asked for."""
    yield received[0] + idler[0]
    yield received[1] - idler[1]


@dataclass(frozen=True)
class CorrelationDegree:
    """dB below the two-beam SNL; > 0 indicates quantum correlation.  Also
    the sum of squared residuals about the mean it was computed from."""

    cd_db: float | list[float]
    residual_ss: float | list[float]


def correlation_degree(
    samples: JointMeasurement, channel: Quadrature = Quadrature.X
) -> CorrelationDegree:
    """-10*log10(Var(d)/2) of the chosen joint output (X -> d_plus, Y -> d_minus).

    The variance runs along the last axis: a (frames, slots) block gives a
    list with one value per frame.  It is the sum of squared residuals over
    n - 1, the same operations as ``np.var(d, axis=-1, ddof=1)``.
    """
    d = np.asarray(samples.d_plus if channel is Quadrature.X else samples.d_minus)
    if d.ndim == 0 or d.shape[-1] < 2:
        raise ValueError("correlation degree needs at least two samples")
    ss = np.sum((d - d.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    return CorrelationDegree(
        cd_db=db_below_snl(ss / (d.shape[-1] - 1)), residual_ss=ss.tolist()
    )


def db_below_snl(var):
    """-10*log10(var/2), the level of a variance in dB below the two-beam
    SNL; a list of levels for an array of variances."""
    v = np.asarray(var, dtype=float) / TWO_BEAM_SNL
    if not np.all((v > 0.0) & (v < math.inf)):
        raise DomainError(
            "a joint output variance is 0 or not finite: the sampled beams "
            "exceed double precision at these parameters"
        )
    db = [-10.0 * math.log10(x) for x in np.ravel(v).tolist()]
    return db if v.ndim else db[0]


@dataclass(frozen=True)
class SpectrumSettings:
    """The spectrum analyzer's span, resolution bandwidth and averaging, and
    the frequency of the modulation tone.  Both quadratures produce
    statistically identical traces, so no quadrature is chosen."""

    span_low_hz: float = 1.0e6
    span_high_hz: float = 3.0e6
    rbw_hz: float = 30.0e3
    averages: int = 100
    signal_freq_hz: float = 2.0e6

    def __post_init__(self):
        _check_numbers(self)
        lo, hi = self.span_low_hz, self.span_high_hz
        if not lo < hi:
            raise DomainError(f"span must be a non-empty interval, got ({lo!r}, {hi!r})")
        if not 0.0 < self.rbw_hz <= hi - lo:
            raise DomainError(
                f"rbw_hz must lie in (0, span], got {self.rbw_hz!r} "
                f"for a span of {hi - lo:g} Hz"
            )
        # `spectrum` makes floor(span / rbw + 1e-9) + 1 bins; the ratio is
        # compared unrounded, so that an infinite one is refused too.
        if not (hi - lo) / self.rbw_hz + 1e-9 < MAX_SPECTRUM_BINS:
            raise DomainError(
                f"rbw_hz {self.rbw_hz!r} splits the span of {hi - lo:g} Hz into "
                f"more than {MAX_SPECTRUM_BINS} bins"
            )
        if self.averages < 1:
            raise DomainError(f"averages must be >= 1, got {self.averages!r}")
        if not lo <= self.signal_freq_hz <= hi:
            raise DomainError(
                f"signal_freq_hz {self.signal_freq_hz!r} lies outside the span "
                f"({lo:g}, {hi:g}) Hz"
            )


@dataclass(frozen=True)
class NoiseSpectrum:
    """Three spectrum-analyzer traces, all in dB relative to the two-beam SNL."""

    freq_hz: np.ndarray
    snl_db: np.ndarray
    single_beam_db: np.ndarray
    correlation_db: np.ndarray


def spectrum(
    r: float,
    settings: SpectrumSettings,
    detector: DetectorConfig,
    rng: RngStream,
    signal_power: float | None = None,
) -> NoiseSpectrum:
    """Emulate spectrum-analyzer traces over the settings' span.

    Bins sit at span start + k*rbw.  Per bin, three powers are estimated:
    the shot-noise reference (0 dB by normalization), the single-beam noise
    (cosh 2r + signal)/2, and the correlation noise
    (2e^-2r + electronic + signal)/2, from the edges of `hiding_window(r)`.
    Each estimate carries the multiplicative jitter of an `averages`-batch
    variance estimate, chi2(averages)/averages, and is written in dB by
    `db_below_snl`, negated.  A tone of `signal_power` (the displacement
    s**2) is snapped to the bin center nearest `signal_freq_hz` and
    contributes to exactly one bin; a power that is no finite real number
    >= 0 raises DomainError.
    """
    lo, hi, rbw_hz = settings.span_low_hz, settings.span_high_hz, settings.rbw_hz
    n_bins = int(math.floor((hi - lo) / rbw_hz + 1e-9)) + 1
    freqs = lo + rbw_hz * np.arange(n_bins)
    window = hiding_window(r)

    sig_power = np.zeros(n_bins)
    if signal_power is not None:
        # The largest float as the upper bound refuses +-inf too.
        power = _check_interval(signal_power, "signal power", 0.0, np.finfo(float).max)
        tone = round((settings.signal_freq_hz - lo) / rbw_hz)
        sig_power[min(int(tone), n_bins - 1)] = power

    corr_floor = window.lower + detector.electronic_noise_var
    levels = (TWO_BEAM_SNL, window.upper + sig_power, corr_floor + sig_power)
    averages = settings.averages
    jitter = rng.generator().chisquare(averages, size=(3, n_bins)) / averages
    snl_db, single_beam_db, correlation_db = (
        -np.array(db_below_snl(level * draw)) for level, draw in zip(levels, jitter)
    )
    return NoiseSpectrum(freqs, snl_db, single_beam_db, correlation_db)

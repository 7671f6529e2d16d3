"""Post-session eavesdropper checks.

The sender randomly blocks the beam for whole frames while both parties
record fluctuation traces of what they hold; a substituted beam shows up as
lost anticorrelation and as equal rms sum/difference voltages.  Independent
of blocking, the measured correlation degree is monitored against the value
predicted by the configured channel losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .detection import DetectorConfig
from .errors import DomainError, ProtocolOrderError
from .quadrature import FrameRows, RngStream, SqueezeParam, _check_numbers, _check_r


def schedule_blocks(n_frames: int, block_prob: float, rng: RngStream) -> np.ndarray:
    """Frames the sender interrupts, drawn from the sender's private
    randomness: a boolean mask that blocks each frame independently with
    probability block_prob."""
    n_frames = int(n_frames)
    block_prob = float(block_prob)
    if n_frames < 0:
        raise DomainError(f"frame count must be >= 0, got {n_frames}")
    if not (math.isfinite(block_prob) and 0.0 <= block_prob <= 1.0):
        raise DomainError(f"block probability must lie in [0, 1], got {block_prob!r}")
    return rng.generator().random(n_frames) < block_prob


@dataclass(frozen=True)
class BlockTraces:
    """Both parties' traces of one blocked frame."""

    frame: int
    alice: np.ndarray
    bob: np.ndarray


def record_block_traces(
    blocked: np.ndarray,
    frames: np.ndarray,
    sender_beam_x: np.ndarray,
    idler_x: np.ndarray,
    cfg: DetectorConfig,
    rng: RngStream | FrameRows,
) -> tuple[np.ndarray, np.ndarray]:
    """Record both parties' oscilloscope traces of blocked frames, given one
    row of samples per frame; returns the (alice, bob) trace arrays.

    `blocked` is the session's blocked-frame mask.  The sender sees the
    amplitude quadrature of whatever beam arrived; the receiver's signal
    port is dark, so the receiver's trace is the retained idler's
    amplitude quadrature.  Each trace gains the recording detector's
    electronic noise; the two traces may be the rows of one noise draw.
    """
    unblocked = frames[~blocked[frames]]
    if unblocked.size:
        raise ProtocolOrderError(
            f"frame {unblocked.min()} is not blocked; traces are recorded only "
            f"while the beam is interrupted"
        )
    if sender_beam_x.shape != idler_x.shape:
        raise ValueError("sender and receiver traces must have equal length")
    return cfg.add_noise((sender_beam_x, idler_x), rng)


@dataclass(frozen=True)
class TraceStats:
    """Statistics of one frame's traces."""

    pearson: float
    rms_sum: float
    rms_diff: float


def trace_stats(alice: np.ndarray, bob: np.ndarray) -> list[TraceStats]:
    """Sample correlation and rms of the sum/difference of aligned traces,
    one `TraceStats` per row of the (frames, points) arrays."""
    a, b = alice, bob
    if a.shape != b.shape:
        raise ValueError(f"trace length mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[-1] < 2:
        raise ValueError("traces need one row per frame of at least two points")
    sa = np.std(a, axis=-1)
    sb = np.std(b, axis=-1)
    covariance = np.mean(
        (a - a.mean(axis=-1, keepdims=True)) * (b - b.mean(axis=-1, keepdims=True)),
        axis=-1,
    )
    flat = (sa == 0.0) | (sb == 0.0)
    pearson = np.divide(covariance, sa * sb, out=np.zeros_like(sa), where=~flat)
    return list(
        map(
            TraceStats,
            pearson.tolist(),
            np.sqrt(np.mean((a + b) ** 2, axis=-1)).tolist(),
            np.sqrt(np.mean((a - b) ** 2, axis=-1)).tolist(),
        )
    )


@dataclass(frozen=True)
class Thresholds:
    """Verdict thresholds; fields left as None resolve to r-aware defaults."""

    pearson: float | None = None
    rms_ratio: float | None = None
    cd_margin_db: float = 0.5

    def __post_init__(self):
        _check_numbers(self)
        if not self.cd_margin_db > 0.0:
            raise DomainError(f"cd margin must be > 0 dB, got {self.cd_margin_db!r}")

    def resolve(self, r: SqueezeParam) -> "Thresholds":
        r = _check_r(r)
        pearson = self.pearson
        if pearson is None:
            # Half the anticorrelation an honest lossless source would show.
            pearson = -math.tanh(2.0 * r) / 2.0
        rms_ratio = self.rms_ratio
        if rms_ratio is None:
            # Midpoint between the honest ratio e^-2r and the uncorrelated 1.
            rms_ratio = (math.exp(-2.0 * r) + 1.0) / 2.0
        return Thresholds(
            pearson=float(pearson),
            rms_ratio=float(rms_ratio),
            cd_margin_db=float(self.cd_margin_db),
        )


@dataclass(frozen=True)
class CdSummary:
    """Pooled correlation degree of both joint outputs against the loss model."""

    measured_plus_db: float
    measured_minus_db: float
    expected_db: float


class VerdictStatus(Enum):
    HONEST = "honest"
    EVE_SUSPECTED = "eve_suspected"


REASON_ANTICORRELATION = "trace_anticorrelation_lost"
REASON_RMS = "rms_sum_diff_equal"
REASON_CD = "correlation_degree_drop"


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    reasons: tuple[str, ...]


def verdict(
    stats: list[TraceStats] | tuple[TraceStats, ...],
    cd: CdSummary | None,
    thresholds: Thresholds,
) -> Verdict:
    """Combine blocked-frame trace evidence and correlation monitoring.

    `thresholds` must be resolved (no None fields).

    Suspicion is raised when the mean trace correlation is weaker than the
    pearson threshold, when the mean rms sum/difference ratio approaches the
    uncorrelated value 1, or when either pooled correlation degree falls
    more than the margin below the loss-model prediction.
    """
    stats = list(stats)
    if not stats and cd is None:
        raise ValueError("verdict needs blocked-frame stats or a correlation summary")
    reasons = []
    if stats:
        mean_pearson = float(np.mean([s.pearson for s in stats]))
        if mean_pearson > thresholds.pearson:
            reasons.append(REASON_ANTICORRELATION)
        ratios = []
        for s in stats:
            if s.rms_diff > 0.0:
                ratios.append(s.rms_sum / s.rms_diff)
            else:
                ratios.append(0.0 if s.rms_sum == 0.0 else math.inf)
        if float(np.mean(ratios)) > thresholds.rms_ratio:
            reasons.append(REASON_RMS)
    if cd is not None:
        floor = cd.expected_db - thresholds.cd_margin_db
        if cd.measured_plus_db < floor or cd.measured_minus_db < floor:
            reasons.append(REASON_CD)
    if reasons:
        return Verdict(VerdictStatus.EVE_SUSPECTED, tuple(reasons))
    return Verdict(VerdictStatus.HONEST, ())

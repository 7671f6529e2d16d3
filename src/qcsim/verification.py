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
from .quadrature import FrameRows, RngStream, SqueezeParam, _check_r


@dataclass(frozen=True)
class BlockSchedule:
    """Frames the sender interrupts; drawn from her private randomness."""

    blocked: frozenset[int]
    block_prob: float
    n_frames: int

    def is_blocked(self, frame_index: int) -> bool:
        return frame_index in self.blocked


def schedule_blocks(n_frames: int, block_prob: float, rng: RngStream) -> BlockSchedule:
    """Block each frame independently with probability block_prob."""
    n_frames = int(n_frames)
    block_prob = float(block_prob)
    if n_frames < 0:
        raise DomainError(f"frame count must be >= 0, got {n_frames}")
    if not (math.isfinite(block_prob) and 0.0 <= block_prob <= 1.0):
        raise DomainError(f"block probability must lie in [0, 1], got {block_prob!r}")
    if n_frames == 0:
        return BlockSchedule(frozenset(), block_prob, 0)
    mask = rng.generator().random(n_frames) < block_prob
    return BlockSchedule(
        blocked=frozenset(int(i) for i in np.flatnonzero(mask)),
        block_prob=block_prob,
        n_frames=n_frames,
    )


class TraceOwner(Enum):
    ALICE = "alice"
    BOB = "bob"


@dataclass(frozen=True)
class FluctuationTrace:
    """One party's trace of a blocked frame; of several frames at once when
    `frame_index` is an array and `samples` has one row per frame."""

    owner: TraceOwner
    frame_index: int | np.ndarray
    samples: np.ndarray


@dataclass(frozen=True)
class BlockTraces:
    alice: FluctuationTrace
    bob: FluctuationTrace


def record_block_traces(
    schedule: BlockSchedule,
    frame_index,
    sender_beam_x,
    idler_x,
    cfg: DetectorConfig,
    rng: RngStream | FrameRows,
) -> BlockTraces:
    """Record both parties' oscilloscope traces for one blocked frame, or
    for an array of blocked frames given one row of samples each.

    The sender sees the amplitude quadrature of whatever beam reached her;
    the receiver's signal port is dark, so his trace is the retained idler's
    amplitude quadrature.  Each trace gains the recording detector's
    electronic noise.
    """
    unblocked = set(np.atleast_1d(frame_index).tolist()) - schedule.blocked
    if unblocked:
        raise ProtocolOrderError(
            f"frame {min(unblocked)} is not blocked; traces are recorded only "
            f"while the beam is interrupted"
        )
    a = np.atleast_1d(np.asarray(sender_beam_x, dtype=float))
    b = np.atleast_1d(np.asarray(idler_x, dtype=float))
    if a.shape != b.shape:
        raise ValueError("sender and receiver traces must have equal length")
    if cfg.electronic_noise_var > 0.0:
        scale = math.sqrt(cfg.electronic_noise_var)
        noise_a, noise_b = rng.standard_normal((2, *a.shape))
        a = a + scale * noise_a
        b = b + scale * noise_b
    return BlockTraces(
        alice=FluctuationTrace(TraceOwner.ALICE, frame_index, a),
        bob=FluctuationTrace(TraceOwner.BOB, frame_index, b),
    )


@dataclass(frozen=True)
class TraceStats:
    """Statistics of one frame's traces; lists, one entry per frame, for
    traces of several frames."""

    pearson: float | list[float]
    rms_sum: float | list[float]
    rms_diff: float | list[float]


def trace_stats(alice: FluctuationTrace, bob: FluctuationTrace) -> TraceStats:
    """Sample correlation and rms of the sum/difference of two aligned
    traces, along the last axis of their samples."""
    a = np.asarray(alice.samples, dtype=float)
    b = np.asarray(bob.samples, dtype=float)
    if a.shape != b.shape:
        raise ValueError(
            f"trace length mismatch: {a.shape} vs {b.shape} "
            f"(frames {alice.frame_index} and {bob.frame_index})"
        )
    if a.ndim == 0 or a.shape[-1] < 2:
        raise ValueError("traces need at least two points")
    sa = np.std(a, axis=-1)
    sb = np.std(b, axis=-1)
    covariance = np.mean(
        (a - a.mean(axis=-1, keepdims=True)) * (b - b.mean(axis=-1, keepdims=True)),
        axis=-1,
    )
    flat = (sa == 0.0) | (sb == 0.0)
    pearson = np.divide(covariance, sa * sb, out=np.zeros_like(sa), where=~flat)
    return TraceStats(
        pearson=pearson.tolist(),
        rms_sum=np.sqrt(np.mean((a + b) ** 2, axis=-1)).tolist(),
        rms_diff=np.sqrt(np.mean((a - b) ** 2, axis=-1)).tolist(),
    )


@dataclass(frozen=True)
class Thresholds:
    """Verdict thresholds; fields left as None resolve to r-aware defaults."""

    pearson: float | None = None
    rms_ratio: float | None = None
    cd_margin_db: float = 0.5

    def resolve(self, r: SqueezeParam) -> "Thresholds":
        r = _check_r(r)
        if not (math.isfinite(self.cd_margin_db) and self.cd_margin_db > 0.0):
            raise DomainError(
                f"cd margin must be > 0 dB, got {self.cd_margin_db!r}"
            )
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

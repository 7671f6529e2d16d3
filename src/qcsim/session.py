"""Full protocol runs as a deterministic state machine.

One session: the receiver generates correlated beam pairs and keeps the
idler of each; the signal beam travels to the sender (outbound loss and
attack hooks), is modulated with a predetermined key bit or blocked for
trace recording, travels back (return hooks and loss), and is jointly
measured against the retained idler.  Verification runs only after all
frames complete, then the session is accepted or aborted.

Frames are simulated in chunks, each stage once per chunk over
(frames x slots) arrays.  Every frame draws from its own substreams, so
the transcript is the same as that of a frame-at-a-time run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversary import AttackSpec, Eavesdropper, EveRecord, NoAttack
from .codec import BitBlock, decode_bit, encode_bit, signal_amplitude_for
from .detection import DetectorConfig, bell_measure, correlation_degree
from .errors import ConfigError
from .quadrature import (
    Quadrature,
    RngStream,
    SlotPair,
    apply_loss,
    expected_sum_variance,
    sample_slots,
)
from .verification import (
    BlockSchedule,
    BlockTraces,
    CdSummary,
    FluctuationTrace,
    Thresholds,
    TraceOwner,
    TraceStats,
    Verdict,
    VerdictStatus,
    record_block_traces,
    schedule_blocks,
    trace_stats,
    verdict,
)

# Substream phases; each (phase, frame) pair keys an independent stream.
_PHASE_BLOCKS = 1
_PHASE_EPR = 2
_PHASE_LOSS_OUT = 3
_PHASE_LOSS_BACK = 4
_PHASE_DETECTOR = 5
_PHASE_SCOPES = 6
_PHASE_ATTACK = 7

# The attacker's private source randomness lives in its own keyspace.
_EVE_SEED_SALT = 0x517CC1B727220A95

ABORT_EVE_SUSPECTED = "eavesdropper_suspected"
ABORT_NO_KEY = "no_key_material"


@dataclass(frozen=True)
class SessionConfig:
    key_bits: str
    seed: int
    r: float = 0.4375
    frames: int = 6
    slots_per_frame: int = 64
    margin: float = 0.5
    eta_out: float = 1.0
    eta_back: float = 1.0
    block_prob: float = 0.0
    detector: DetectorConfig = DetectorConfig()
    attack: AttackSpec = NoAttack()
    thresholds: Thresholds = Thresholds()

    def validate(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ConfigError(f"r must be finite and >= 0, got {self.r!r}")
        if not self.key_bits:
            raise ConfigError("key_bits must contain at least one bit")
        if set(self.key_bits) - {"0", "1"}:
            raise ConfigError(f"key_bits must be a 0/1 string, got {self.key_bits!r}")
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames!r}")
        # Two slots per frame are the least that trace stats and the
        # per-frame correlation degree can be computed from.
        if self.slots_per_frame < 2:
            raise ConfigError(
                f"slots_per_frame must be >= 2, got {self.slots_per_frame!r}"
            )
        if not (math.isfinite(self.margin) and 0.0 < self.margin < 1.0):
            raise ConfigError(f"margin must lie in (0, 1), got {self.margin!r}")
        for name, eta in (("eta_out", self.eta_out), ("eta_back", self.eta_back)):
            if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {eta!r}")
        if not (math.isfinite(self.block_prob) and 0.0 <= self.block_prob <= 1.0):
            raise ConfigError(
                f"block_prob must lie in [0, 1], got {self.block_prob!r}"
            )
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class FrameCd:
    frame_index: int
    plus_db: float
    minus_db: float


@dataclass(frozen=True)
class SessionOutcome:
    accepted: bool
    key: str | None
    reason: str | None


@dataclass(frozen=True)
class KeyComparison:
    ber: float | None  # None when no bits were compared
    mismatches: tuple[int, ...]


@dataclass
class SessionTranscript:
    config: SessionConfig
    signal_amplitude: float
    schedule: BlockSchedule
    sent_bits: str
    decoded_bits: str
    confidences: tuple[float, ...]
    blocked_frames: tuple[int, ...]
    traces: tuple[BlockTraces, ...]
    trace_stats: tuple[TraceStats, ...]
    frame_cd: tuple[FrameCd, ...]
    cd: CdSummary | None
    verdict: Verdict
    outcome: SessionOutcome
    eve: EveRecord | None = None


def _pooled_residual_cd(residual_ss: list[float], slots_per_frame: int) -> float | None:
    """Correlation degree of the noise floor pooled over frames, from each
    frame's sum of squared residuals about its block mean.

    Subtracting the block mean (the modulation displacement) leaves the
    fluctuation variance only; degrees of freedom drop by one per frame.
    """
    if not residual_ss:
        return None
    k = len(residual_ss)
    n = k * slots_per_frame
    if n - k < 1:
        return None
    # A sequential sum over frames, in frame order.
    ss = sum(residual_ss)
    return -10.0 * math.log10(ss / (n - k) / 2.0)


def _residual_ss(d: np.ndarray) -> list[float]:
    """Per row of `d`, the sum of squared residuals about the row mean."""
    return np.sum((d - d.mean(axis=-1, keepdims=True)) ** 2, axis=-1).tolist()


def compare_keys(sent: str, decoded: str) -> KeyComparison:
    """Bit error rate and mismatch positions of two equal-length bit strings;
    the rate is None for empty strings."""
    if len(sent) != len(decoded):
        raise ValueError(
            f"bit strings differ in length: {len(sent)} vs {len(decoded)}"
        )
    mismatches = tuple(
        i for i, (a, b) in enumerate(zip(sent, decoded)) if a != b
    )
    ber = len(mismatches) / len(sent) if sent else None
    return KeyComparison(ber=ber, mismatches=mismatches)


def finalize(session_verdict: Verdict, decoded_bits: str) -> SessionOutcome:
    """Accept with the decoded bits as key iff the verdict is honest and at
    least one key bit was transferred."""
    if session_verdict.status is not VerdictStatus.HONEST:
        return SessionOutcome(accepted=False, key=None, reason=ABORT_EVE_SUSPECTED)
    if not decoded_bits:
        return SessionOutcome(accepted=False, key=None, reason=ABORT_NO_KEY)
    return SessionOutcome(accepted=True, key=decoded_bits, reason=None)


#: Most slots one chunk of frames holds; a frame longer than this is a
#: chunk of its own.  Keeps each chunk's arrays near cache size: one pass
#: over all frames of a long session was slower than walking it in chunks.
_CHUNK_SLOTS = 1 << 16


@dataclass
class _Tally:
    """What the chunks of a session produced, per frame in frame order."""

    decoded_bits: list[int] = field(default_factory=list)
    confidences: list[float] = field(default_factory=list)
    frame_cd: list[FrameCd] = field(default_factory=list)
    residual_ss_plus: list[float] = field(default_factory=list)
    residual_ss_minus: list[float] = field(default_factory=list)
    traces: list[BlockTraces] = field(default_factory=list)
    trace_stats: list[TraceStats] = field(default_factory=list)


def simulate_frame(
    cfg: SessionConfig,
    frames: np.ndarray,
    schedule: BlockSchedule,
    bits: np.ndarray,
    amplitude: float,
    noise_var: float,
    root: RngStream,
    eve: Eavesdropper | None,
    tally: _Tally,
) -> None:
    """Simulate a chunk of frames end to end, each quantity one row per frame.

    `frames` holds ascending frame indices and `bits` their key bits (any
    value for blocked frames).  Row f of every random draw comes from frame
    f's own substream, so the results equal those of simulating the frames
    one at a time.  The per-frame results are appended to `tally`.
    """
    blocked = np.isin(frames, list(schedule.blocked))
    slots = sample_slots(
        cfg.r, root.rows(frames, _PHASE_EPR), (frames.size, cfg.slots_per_frame)
    )
    idler_x, idler_y = slots.x2, slots.y2

    # Outbound leg: channel loss, then interception right before the sender.
    sig_x, sig_y = apply_loss(
        slots.x1, slots.y1, cfg.eta_out, root.rows(frames, _PHASE_LOSS_OUT)
    )
    if eve is not None:
        sig_x, sig_y = eve.substitute(frames, sig_x, sig_y)

    if blocked.any():
        held = frames[blocked]
        traces = record_block_traces(
            schedule,
            held,
            sig_x[blocked],
            idler_x[blocked],
            cfg.detector,
            root.rows(held, _PHASE_SCOPES),
        )
        stats = trace_stats(traces.alice, traces.bob)
        for f, a, b, *row in zip(
            held.tolist(),
            traces.alice.samples,
            traces.bob.samples,
            stats.pearson,
            stats.rms_sum,
            stats.rms_diff,
        ):
            tally.traces.append(
                BlockTraces(
                    alice=FluctuationTrace(TraceOwner.ALICE, f, a),
                    bob=FluctuationTrace(TraceOwner.BOB, f, b),
                )
            )
            tally.trace_stats.append(TraceStats(*row))
        if eve is not None:
            eve.drop(held)

    sent = ~blocked
    if not sent.any():
        return
    sent_frames = frames[sent]
    idler_x, idler_y = idler_x[sent], idler_y[sent]
    encoded = encode_bit(
        BitBlock(bits[sent], amplitude, cfg.slots_per_frame),
        SlotPair(sig_x[sent], sig_y[sent], idler_x, idler_y),
        cfg.r,
    )
    sig_x, sig_y = encoded.x1, encoded.y1

    # Return leg: attacker hooks near the sender's output, then channel loss.
    if eve is not None:
        sig_x, sig_y = eve.relay(
            sent_frames, sig_x, sig_y, root.rows(sent_frames, _PHASE_ATTACK)
        )
    sig_x, sig_y = apply_loss(
        sig_x, sig_y, cfg.eta_back, root.rows(sent_frames, _PHASE_LOSS_BACK)
    )

    measurement = bell_measure(
        (sig_x, sig_y),
        (idler_x, idler_y),
        cfg.detector,
        root.rows(sent_frames, _PHASE_DETECTOR),
    )
    decoded = decode_bit(measurement, amplitude, noise_var)
    tally.decoded_bits.extend(decoded.bit)
    tally.confidences.extend(decoded.confidence)
    tally.frame_cd.extend(
        map(
            FrameCd,
            sent_frames.tolist(),
            correlation_degree(measurement, Quadrature.X).cd_db,
            correlation_degree(measurement, Quadrature.Y).cd_db,
        )
    )
    tally.residual_ss_plus.extend(_residual_ss(measurement.d_plus))
    tally.residual_ss_minus.extend(_residual_ss(measurement.d_minus))


def run_session(cfg: SessionConfig) -> SessionTranscript:
    """Run a full session; the transcript is a pure function of the config."""
    cfg.validate()
    # Sizes the signal before any simulation; raises when the hiding window
    # at cfg.r is empty.
    amplitude = signal_amplitude_for(cfg.r, cfg.margin)
    eta_total = cfg.eta_out * cfg.eta_back
    noise_var = expected_sum_variance(
        cfg.r, eta_total, cfg.detector.electronic_noise_var
    )

    root = RngStream(cfg.seed)
    schedule = schedule_blocks(
        cfg.frames, cfg.block_prob, root.substream(0, _PHASE_BLOCKS)
    )

    eve = cfg.attack.begin(amplitude, cfg.r, RngStream(cfg.seed ^ _EVE_SEED_SALT))

    # Key bits cycle over the unblocked frames.
    sent = np.ones(cfg.frames, dtype=bool)
    sent[list(schedule.blocked)] = False
    key = np.array([int(b) for b in cfg.key_bits])
    bits = np.zeros(cfg.frames, dtype=int)
    bits[sent] = key[np.arange(np.count_nonzero(sent)) % key.size]

    tally = _Tally()
    chunk = max(1, _CHUNK_SLOTS // cfg.slots_per_frame)
    for start in range(0, cfg.frames, chunk):
        frames = np.arange(start, min(start + chunk, cfg.frames))
        simulate_frame(
            cfg, frames, schedule, bits[frames], amplitude, noise_var, root, eve, tally
        )

    cd_summary = None
    plus_db = _pooled_residual_cd(tally.residual_ss_plus, cfg.slots_per_frame)
    minus_db = _pooled_residual_cd(tally.residual_ss_minus, cfg.slots_per_frame)
    if plus_db is not None and minus_db is not None:
        cd_summary = CdSummary(
            measured_plus_db=plus_db,
            measured_minus_db=minus_db,
            expected_db=-10.0 * math.log10(noise_var / 2.0),
        )

    sent_bits = "".join(map(str, bits[sent].tolist()))
    decoded_bits = "".join(map(str, tally.decoded_bits))
    stats = tuple(tally.trace_stats)
    session_verdict = verdict(list(stats), cd_summary, cfg.thresholds.resolve(cfg.r))
    outcome = finalize(session_verdict, decoded_bits)

    return SessionTranscript(
        config=cfg,
        signal_amplitude=amplitude,
        schedule=schedule,
        sent_bits=sent_bits,
        decoded_bits=decoded_bits,
        confidences=tuple(tally.confidences),
        blocked_frames=tuple(sorted(schedule.blocked)),
        traces=tuple(tally.traces),
        trace_stats=stats,
        frame_cd=tuple(tally.frame_cd),
        cd=cd_summary,
        verdict=session_verdict,
        outcome=outcome,
        eve=eve.record if eve is not None else None,
    )

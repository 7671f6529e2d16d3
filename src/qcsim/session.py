"""Full protocol runs as a deterministic state machine.

One session: the receiver generates correlated beam pairs and keeps the
idler of each; the signal beam travels to the sender (outbound loss and
attack hooks), is modulated with a predetermined key bit or blocked for
trace recording, travels back (return hooks and loss), and is jointly
measured against the retained idler.  Verification runs only after all
frames complete, then the session is accepted or aborted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import AttackSpec, Eavesdropper, EveRecord, NoAttack
from .codec import (
    BitFrame,
    DecodedBit,
    decode_bit,
    encode_bit,
    signal_amplitude_for,
    symbol_for_bit,
)
from .detection import (
    DetectorConfig,
    JointMeasurement,
    bell_measure,
    correlation_degree,
)
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
    Thresholds,
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


@dataclass(frozen=True)
class FrameOutcome:
    """Everything one simulated frame produced; kept mostly for tests and
    trace recording, summarized into the transcript."""

    frame_index: int
    blocked: bool
    idler_x: np.ndarray
    idler_y: np.ndarray
    sender_beam_x: np.ndarray
    measurement: JointMeasurement | None
    decoded: DecodedBit | None
    sent_bit: int | None
    traces: BlockTraces | None


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


def _pooled_residual_cd(frame_outputs: list[np.ndarray]) -> float | None:
    """Correlation degree of the noise floor pooled over frames.

    Each frame's block mean (the modulation displacement) is subtracted
    before pooling, so the estimate reflects the fluctuation variance only;
    degrees of freedom drop by one per frame.
    """
    if not frame_outputs:
        return None
    n = sum(a.size for a in frame_outputs)
    k = len(frame_outputs)
    if n - k < 1:
        return None
    ss = sum(float(np.sum((a - a.mean()) ** 2)) for a in frame_outputs)
    return -10.0 * math.log10(ss / (n - k) / 2.0)


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


def simulate_frame(
    cfg: SessionConfig,
    frame_index: int,
    schedule: BlockSchedule,
    bit: int | None,
    amplitude: float,
    noise_var: float,
    root: RngStream,
    eve: Eavesdropper | None,
) -> FrameOutcome:
    """Simulate one frame end to end.  `bit` is None for blocked frames."""
    m = cfg.slots_per_frame
    blocked = schedule.is_blocked(frame_index)
    slots = sample_slots(cfg.r, root.substream(frame_index, _PHASE_EPR), m)
    idler_x, idler_y = slots.x2, slots.y2

    # Outbound leg: channel loss, then interception right before the sender.
    sig_x, sig_y = apply_loss(
        slots.x1, slots.y1, cfg.eta_out, root.substream(frame_index, _PHASE_LOSS_OUT)
    )
    if eve is not None:
        sig_x, sig_y = eve.substitute(frame_index, sig_x, sig_y, m)
    sender_beam_x = sig_x

    if blocked:
        traces = record_block_traces(
            schedule,
            frame_index,
            sender_beam_x,
            idler_x,
            cfg.detector,
            root.substream(frame_index, _PHASE_SCOPES),
        )
        if eve is not None:
            eve.drop(frame_index)
        return FrameOutcome(
            frame_index=frame_index,
            blocked=True,
            idler_x=idler_x,
            idler_y=idler_y,
            sender_beam_x=sender_beam_x,
            measurement=None,
            decoded=None,
            sent_bit=None,
            traces=traces,
        )

    frame = BitFrame(frame_index, bit, symbol_for_bit(bit, amplitude), m)
    encoded = encode_bit(frame, SlotPair(sig_x, sig_y, idler_x, idler_y), cfg.r)
    sig_x, sig_y = encoded.x1, encoded.y1

    # Return leg: attacker hooks near the sender's output, then channel loss.
    if eve is not None:
        sig_x, sig_y = eve.relay(
            frame_index, sig_x, sig_y, root.substream(frame_index, _PHASE_ATTACK)
        )
    sig_x, sig_y = apply_loss(
        sig_x, sig_y, cfg.eta_back, root.substream(frame_index, _PHASE_LOSS_BACK)
    )

    measurement = bell_measure(
        (sig_x, sig_y),
        (idler_x, idler_y),
        cfg.detector,
        root.substream(frame_index, _PHASE_DETECTOR),
    )
    decoded = decode_bit(measurement, amplitude, noise_var)
    return FrameOutcome(
        frame_index=frame_index,
        blocked=False,
        idler_x=idler_x,
        idler_y=idler_y,
        sender_beam_x=sender_beam_x,
        measurement=measurement,
        decoded=decoded,
        sent_bit=bit,
        traces=None,
    )


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

    outcomes: list[FrameOutcome] = []
    key_pos = 0
    for f in range(cfg.frames):
        bit = None
        if not schedule.is_blocked(f):
            bit = int(cfg.key_bits[key_pos % len(cfg.key_bits)])
            key_pos += 1
        outcomes.append(
            simulate_frame(cfg, f, schedule, bit, amplitude, noise_var, root, eve)
        )

    unblocked = [o for o in outcomes if not o.blocked]
    sent_bits = "".join(str(o.sent_bit) for o in unblocked)
    decoded_bits = "".join(str(o.decoded.bit) for o in unblocked)
    confidences = tuple(o.decoded.confidence for o in unblocked)

    frame_cd = tuple(
        FrameCd(
            o.frame_index,
            correlation_degree(o.measurement, Quadrature.X).cd_db,
            correlation_degree(o.measurement, Quadrature.Y).cd_db,
        )
        for o in unblocked
    )

    cd_summary = None
    plus_db = _pooled_residual_cd([np.atleast_1d(o.measurement.d_plus) for o in unblocked])
    minus_db = _pooled_residual_cd([np.atleast_1d(o.measurement.d_minus) for o in unblocked])
    if plus_db is not None and minus_db is not None:
        cd_summary = CdSummary(
            measured_plus_db=plus_db,
            measured_minus_db=minus_db,
            expected_db=-10.0 * math.log10(noise_var / 2.0),
        )

    blocked_outcomes = [o for o in outcomes if o.blocked]
    traces = tuple(o.traces for o in blocked_outcomes)
    stats = tuple(trace_stats(t.alice, t.bob) for t in traces)

    session_verdict = verdict(list(stats), cd_summary, cfg.thresholds.resolve(cfg.r))
    outcome = finalize(session_verdict, decoded_bits)

    return SessionTranscript(
        config=cfg,
        signal_amplitude=amplitude,
        schedule=schedule,
        sent_bits=sent_bits,
        decoded_bits=decoded_bits,
        confidences=confidences,
        blocked_frames=tuple(sorted(schedule.blocked)),
        traces=traces,
        trace_stats=stats,
        frame_cd=frame_cd,
        cd=cd_summary,
        verdict=session_verdict,
        outcome=outcome,
        eve=eve.record if eve is not None else None,
    )

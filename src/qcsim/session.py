"""Full protocol runs as a deterministic state machine.

One session: the receiver generates correlated beam pairs and keeps the
idler of each; the signal beam travels to the sender (outbound loss and
attack hooks), is modulated with a predetermined key bit or blocked for
trace recording, travels back (return hooks and loss), and is jointly
measured against the retained idler.  Verification runs only after all
frames complete, then the session is accepted or aborted.

Frames are simulated in chunks of one kind, the blocked frames first and
the sent frames after, each stage once per chunk over (frames x slots)
arrays.  Every frame draws from its own substreams, so the transcript is
the same as that of a frame-at-a-time run.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import (
    ATTACK_SWEEPS, AttackSpec, Eavesdropper, EveRecord, NoAttack, swept_attack,
)
from .codec import decode_bit, encode_bit, signal_amplitude_for
from .detection import DetectorConfig, bell_measure, correlation_degree, db_below_snl
from .errors import ConfigError, DomainError, HidingWindowError, SimulationError
from .quadrature import (
    Quadrature,
    RngStream,
    _check_interval,
    _check_numbers,
    _check_r,
    apply_loss,
    expected_sum_variance,
    sample_slots,
)
from .verification import (
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
_PHASE_SPECTRUM = 1000  # the CLI's spectrum traces
_PHASE_PROBE = 1001  # the sweep's unmodulated probe

# The attacker's private source randomness lives in its own keyspace.
_EVE_SEED_SALT = 0x517CC1B727220A95

#: Seeds lie in [0, SEED_SPAN), the seeds `RngStream` accepts: it keys on
#: 64 bits, so a seed outside that range would alias one inside it.
SEED_SPAN = 2**64

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

    def __post_init__(self):
        _check_numbers(self, ConfigError)
        try:
            _check_r(self.r)
        except DomainError as exc:
            raise ConfigError(f"r: {exc}") from None
        if not isinstance(self.key_bits, str) or set(self.key_bits) - {"0", "1"}:
            raise ConfigError(f"key_bits must be a 0/1 string, got {self.key_bits!r}")
        if not self.key_bits:
            raise ConfigError("key_bits must contain at least one bit")
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames!r}")
        # Two slots per frame are the least that trace stats and the
        # per-frame correlation degree can be computed from.
        if self.slots_per_frame < 2:
            raise ConfigError(
                f"slots_per_frame must be >= 2, got {self.slots_per_frame!r}"
            )
        if not 0.0 < self.margin < 1.0:
            raise ConfigError(f"margin must lie in (0, 1), got {self.margin!r}")
        for name in ("eta_out", "eta_back", "block_prob"):
            _check_interval(getattr(self, name), name, 0.0, 1.0, ConfigError)
        if not 0 <= self.seed < SEED_SPAN:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class FrameCd:
    frame: int
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


def _pooled_residual_cd(residual_ss: list[float], slots_per_frame: int) -> float:
    """Correlation degree of the noise floor pooled over frames, from each
    frame's (at least one) sum of squared residuals about its block mean.

    Subtracting the block mean (the modulation displacement) leaves the
    fluctuation variance only; degrees of freedom drop by one per frame.
    """
    k = len(residual_ss)
    n = k * slots_per_frame
    # A sequential sum over frames, in frame order.
    return db_below_snl(sum(residual_ss) / (n - k))


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
#: chunk of its own.  One chunk's arrays, and the next chunk's draws ahead,
#: are a session's whole working set, so this bounds its memory: beyond its
#: transcript, a 40 x 10 000 session holds at most 4.3-5.3 MB traced at
#: 2^15 slots against 8.6-10.6 MB at 2^16, at the same speed; 2^14 ran slower.
_CHUNK_SLOTS = 1 << 15

#: Slots per frame from which each chunk's rows are drawn ahead on the
#: helper thread; a shorter row costs more to hand over than it saves.
_DRAW_AHEAD_SLOTS = 2048


@dataclass
class _Tally:
    """What the chunks of a session produced, per frame in frame order
    within each kind of frame."""

    decoded_bits: list[int] = field(default_factory=list)
    confidences: list[float] = field(default_factory=list)
    frame_cd: list[FrameCd] = field(default_factory=list)
    residual_ss_plus: list[float] = field(default_factory=list)
    residual_ss_minus: list[float] = field(default_factory=list)
    traces: list[BlockTraces] = field(default_factory=list)
    trace_stats: list[TraceStats] = field(default_factory=list)


def _outbound(
    cfg: SessionConfig, frames: np.ndarray, rows, eve: Eavesdropper | None, phases: bool
):
    """Sample the slots of `frames` and carry their signal beams to the
    sender; returns the idler's (x, y) and the signal beam's (x, y) as it
    arrives, so the sampled signal beam is freed once no stage holds it.
    `rows(frames, phase)` gives the frame rows of each substream phase."""
    shape = (frames.size, cfg.slots_per_frame)
    slots = sample_slots(cfg.r, rows(frames, _PHASE_EPR), shape, phases=phases)
    # Outbound leg: channel loss, then interception right before the sender.
    sig_x, sig_y = apply_loss(
        slots.x1, slots.y1, cfg.eta_out, rows(frames, _PHASE_LOSS_OUT)
    )
    if eve is not None:
        sig_x, sig_y = eve.substitute(frames, sig_x, sig_y)
    return (slots.x2, slots.y2), sig_x, sig_y


def _chunks(frames: np.ndarray, slots_per_frame: int):
    """`frames` in runs of at most `_CHUNK_SLOTS` slots, one frame a run if
    a frame is longer."""
    step = max(1, _CHUNK_SLOTS // slots_per_frame)
    for start in range(0, frames.size, step):
        yield frames[start : start + step]


def _simulate_blocked(
    cfg: SessionConfig,
    frames: np.ndarray,
    blocked: np.ndarray,
    rows,
    eve: Eavesdropper | None,
    tally: _Tally,
) -> None:
    """Record the traces of a chunk of blocked frames and append them and
    their statistics to `tally`.  The traces read only amplitude
    quadratures, so no phase quadrature is drawn."""
    (idler_x, _), sig_x, _ = _outbound(cfg, frames, rows, eve, phases=False)
    alice, bob = record_block_traces(
        blocked, frames, sig_x, idler_x, cfg.detector, rows(frames, _PHASE_SCOPES)
    )
    tally.traces.extend(map(BlockTraces, frames.tolist(), alice, bob))
    tally.trace_stats.extend(trace_stats(alice, bob))
    if eve is not None:
        eve.drop(frames)


def simulate_frame(
    cfg: SessionConfig,
    frames: np.ndarray,
    bits: np.ndarray,
    amplitude: float,
    noise_var: float,
    rows,
    eve: Eavesdropper | None,
    tally: _Tally,
) -> None:
    """Simulate a chunk of sent frames end to end, each quantity one row per
    frame, and append the per-frame results to `tally`.

    `frames` holds ascending indices of frames the sender does not block;
    `bits` holds the session's key bit per frame.  Row f of every random
    draw comes from frame f's own substream, so the results equal those of
    simulating the frames one at a time.
    """
    idler, sig_x, sig_y = _outbound(cfg, frames, rows, eve, phases=True)
    sig_x, sig_y = encode_bit(bits[frames], amplitude, sig_x, sig_y, cfg.r)

    # Return leg: attacker hooks near the sender's output, then channel loss.
    if eve is not None:
        sig_x, sig_y = eve.relay(frames, sig_x, sig_y, rows(frames, _PHASE_ATTACK))
    sig_x, sig_y = apply_loss(sig_x, sig_y, cfg.eta_back, rows(frames, _PHASE_LOSS_BACK))

    measurement = bell_measure(
        (sig_x, sig_y), idler, cfg.detector, rows(frames, _PHASE_DETECTOR)
    )
    decoded = decode_bit(measurement, noise_var)
    tally.decoded_bits.extend(decoded.bit)
    tally.confidences.extend(decoded.confidence)
    plus = correlation_degree(measurement, Quadrature.X)
    minus = correlation_degree(measurement, Quadrature.Y)
    tally.frame_cd.extend(map(FrameCd, frames.tolist(), plus.cd_db, minus.cd_db))
    tally.residual_ss_plus.extend(plus.residual_ss)
    tally.residual_ss_minus.extend(minus.residual_ss)


def run_session(cfg: SessionConfig) -> SessionTranscript:
    """Run a full session; the transcript is a pure function of the config."""
    # Sizes the signal before any simulation; raises when the hiding window
    # at cfg.r is empty.
    amplitude = signal_amplitude_for(cfg.r, cfg.margin)
    eta_total = cfg.eta_out * cfg.eta_back
    noise_var = expected_sum_variance(
        cfg.r, eta_total, cfg.detector.electronic_noise_var
    )

    root = RngStream(cfg.seed)
    blocked = schedule_blocks(
        cfg.frames, cfg.block_prob, root.substream(0, _PHASE_BLOCKS)
    )

    eve = cfg.attack.begin(amplitude, cfg.r, RngStream(cfg.seed ^ _EVE_SEED_SALT))

    # Key bits cycle over the unblocked frames.
    sent = ~blocked
    key = np.array([int(b) for b in cfg.key_bits])
    bits = np.zeros(cfg.frames, dtype=int)
    bits[sent] = key[np.arange(np.count_nonzero(sent)) % key.size]

    # All blocked frames first, then all sent ones, each kind in frame order.
    chunks = [(f, False) for f in _chunks(np.flatnonzero(blocked), cfg.slots_per_frame)]
    chunks += [(f, True) for f in _chunks(np.flatnonzero(sent), cfg.slots_per_frame)]
    # With frames of `_DRAW_AHEAD_SLOTS` or more, the helper thread draws
    # each chunk's EPR, loss and detector-noise rows ahead, the first's at
    # once, in the shapes `_outbound`, `beam_splitter` and `add_noise` draw;
    # a draw of another shape raises.  Eve's draws are not drawn ahead: on
    # 2 CPUs that slowed attacked sessions of 40 x 10000 slots by 7-10 %.
    ahead = {}

    def rows(frames, phase):
        return ahead.pop((phase, int(frames[0])), None) or root.rows(frames, phase)

    def draw_ahead(frames, is_sent):
        draws = {_PHASE_EPR: 4 if is_sent else 2}
        if cfg.eta_out < 1.0:
            draws[_PHASE_LOSS_OUT] = 2 if is_sent else 1
        if is_sent and cfg.eta_back < 1.0:
            draws[_PHASE_LOSS_BACK] = 2
        if cfg.detector.electronic_noise_var != 0.0:
            draws[_PHASE_DETECTOR if is_sent else _PHASE_SCOPES] = 2
        for phase, k in draws.items():
            ahead[phase, int(frames[0])] = drawn = root.rows(frames, phase)
            drawn.prefetch((k, frames.size, cfg.slots_per_frame))

    tally = _Tally()
    threaded = cfg.slots_per_frame >= _DRAW_AHEAD_SLOTS
    try:
        if threaded:
            draw_ahead(*chunks[0])
        for i, (frames, is_sent) in enumerate(chunks):
            if threaded and i + 1 < len(chunks):
                draw_ahead(*chunks[i + 1])
            if is_sent:
                simulate_frame(cfg, frames, bits, amplitude, noise_var, rows, eve, tally)
            else:
                _simulate_blocked(cfg, frames, blocked, rows, eve, tally)
    finally:
        # No draw ahead outlives the session, also when a stage raised: an
        # untaken one is cancelled, its unclaimed rows left unfilled.
        for left in ahead.values():
            left.cancel()

    cd_summary = None
    if tally.residual_ss_plus:
        cd_summary = CdSummary(
            measured_plus_db=_pooled_residual_cd(
                tally.residual_ss_plus, cfg.slots_per_frame
            ),
            measured_minus_db=_pooled_residual_cd(
                tally.residual_ss_minus, cfg.slots_per_frame
            ),
            expected_db=db_below_snl(noise_var),
        )

    sent_bits = "".join(map(str, bits[sent].tolist()))
    decoded_bits = "".join(map(str, tally.decoded_bits))
    stats = tuple(tally.trace_stats)
    session_verdict = verdict(list(stats), cd_summary, cfg.thresholds.resolve(cfg.r))
    outcome = finalize(session_verdict, decoded_bits)

    return SessionTranscript(
        config=cfg,
        signal_amplitude=amplitude,
        sent_bits=sent_bits,
        decoded_bits=decoded_bits,
        confidences=tuple(tally.confidences),
        blocked_frames=tuple(np.flatnonzero(blocked).tolist()),
        traces=tuple(tally.traces),
        trace_stats=stats,
        frame_cd=tuple(tally.frame_cd),
        cd=cd_summary,
        verdict=session_verdict,
        outcome=outcome,
        eve=eve.record if eve is not None else None,
    )


#: Sweep parameters that set a session field: name -> SessionConfig field.
SESSION_SWEEPS = {"r": "r", "eta": "eta_out", "margin": "margin"}
SWEEP_PARAMS = (*SESSION_SWEEPS, *ATTACK_SWEEPS)

# Sweep point i, session k runs at seed + stride*(i+1) + k; more sessions per
# point than the stride would reuse seeds of the next point.
_POINT_SEED_STRIDE = 7919


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of `sweep`: the value, the config of its first session
    (session k runs at seed ``config.seed + k``) and its CSV columns, None
    where blank.  A `probe` point has an empty hiding window, so no session
    runs and `cd_db` is that of an unmodulated probe, None under an attack."""

    value: float
    config: SessionConfig
    probe: bool
    cd_db: float | None  # mean; NaN if no session sent a frame
    ber: float | None  # mean over the sessions that compared bits
    detection_rate: float | None  # share of EVE_SUSPECTED verdicts


def _point_config(cfg: SessionConfig, name: str, value: float):
    """The config of grid point `name`=`value`, and whether its hiding
    window is empty; ConfigError names a point outside the domain."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"grid point {name}={value!r}: expected a real number")
    try:
        if name in ATTACK_SWEEPS:
            point = replace(cfg, attack=swept_attack(cfg.attack, name, value))
        else:
            point = replace(cfg, **{SESSION_SWEEPS[name]: value})
        signal_amplitude_for(point.r, point.margin)
    except HidingWindowError:
        return point, True
    except SimulationError as exc:
        # The value as `report.fmt` writes it; `report` imports this module.
        raise ConfigError(f"grid point {name}={float(value):.10g}: {exc}") from None
    return point, False


def _cd_probe(cfg: SessionConfig) -> float:
    """Correlation degree of an unmodulated, unattacked session at
    `cfg.seed`, all slots one row (used when the hiding window is empty)."""
    root, eta = RngStream(cfg.seed), cfg.eta_out * cfg.eta_back
    shape = (1, cfg.frames * cfg.slots_per_frame)
    slots = sample_slots(cfg.r, root.rows([0], _PHASE_PROBE), shape)
    x, y = apply_loss(slots.x1, slots.y1, eta, root.rows([1], _PHASE_PROBE))
    joint = bell_measure(
        (x, y), (slots.x2, slots.y2), cfg.detector, root.rows([2], _PHASE_PROBE)
    )
    return correlation_degree(joint).cd_db[0]


def sweep(cfg: SessionConfig, param: str, values, sessions_per_point: int = 4):
    """One `SweepPoint` per value of `param`, one of `SWEEP_PARAMS`, in order;
    point i's session k runs at seed ``cfg.seed + 7919*(i+1) + k``.  Raises
    ConfigError before the first session on a bad count, name, point or seed."""
    count = sessions_per_point
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ConfigError(f"sessions_per_point must be an integer, got {count!r}")
    if not 1 <= count <= _POINT_SEED_STRIDE:
        raise ConfigError(f"sessions_per_point must lie in [1, {_POINT_SEED_STRIDE}], "
                          f"got {count}")
    if param not in SWEEP_PARAMS:
        expected = ", ".join(SWEEP_PARAMS)
        raise ConfigError(f"unknown sweep parameter {param!r}; expected one of {expected}")
    points = [(value, *_point_config(cfg, param, value)) for value in values]
    last_seed = cfg.seed + _POINT_SEED_STRIDE * len(points) + count - 1
    if last_seed >= SEED_SPAN:
        raise ConfigError(f"seed {cfg.seed} is too large for this sweep: its last session "
                          f"would run at seed {last_seed}, outside [0, 2**64)")
    done = []
    for i, (value, point, probe) in enumerate(points):
        point = replace(point, seed=cfg.seed + _POINT_SEED_STRIDE * (i + 1))
        if probe:
            cd_db = _cd_probe(point) if point.attack.kind == NoAttack.kind else None
            done.append(SweepPoint(value, point, True, cd_db, None, None))
            continue
        cds, bers, detections = [], [], []
        for k in range(count):  # one transcript at a time
            transcript = run_session(replace(point, seed=point.seed + k))
            if transcript.cd is not None:
                cds.append(transcript.cd.measured_plus_db)
            ber = compare_keys(transcript.sent_bits, transcript.decoded_bits).ber
            if ber is not None:
                bers.append(ber)
            detections.append(transcript.verdict.status is VerdictStatus.EVE_SUSPECTED)
        cd_db = float(np.mean(cds)) if cds else np.nan
        ber = float(np.mean(bers)) if bers else None
        rate = float(np.mean(detections))
        done.append(SweepPoint(value, point, False, cd_db, ber, rate))
    return tuple(done)

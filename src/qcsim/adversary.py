"""Channel attacks on the in-flight signal beam.

Three models: passive beam-splitter tapping, wholesale intercept-and-resend
with a substituted correlated source, and a single-quadrature probe that
pays the minimum-uncertainty back-action on the conjugate quadrature.

Each attack is one frozen spec class here: a class-level `kind` (its name
in config files and reports), a default for every field, and
`begin(amplitude, session_r, rng)`, which returns the per-session
`Eavesdropper` (None for the honest channel).  Config parsing, reports and
sweeps work from `ATTACKS` and `ATTACK_SWEEPS`, so a new attack touches
this module only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Protocol

import numpy as np

from .codec import decide_bits, encode_bit
from .detection import DetectorConfig, bell_measure
from .errors import DomainError
from .quadrature import (
    FrameRows,
    Quadrature,
    RngStream,
    SqueezeParam,
    _check_numbers,
    _check_r,
    _plus,
    beam_splitter,
    sample_slots,
)


@dataclass(frozen=True)
class NoAttack:
    """Honest channel."""

    kind: ClassVar[str] = "none"

    def begin(self, amplitude: float, session_r: SqueezeParam, rng: RngStream):
        return None


@dataclass(frozen=True)
class Tap:
    """Split a fraction tau of the beam off to the eavesdropper."""

    kind: ClassVar[str] = "tap"
    tau: float = 0.1

    def __post_init__(self):
        _check_numbers(self)
        _check_tau(self.tau)

    def begin(self, amplitude: float, session_r: SqueezeParam, rng: RngStream):
        return ProbeEve(tap, self.tau)


@dataclass(frozen=True)
class InterceptResend:
    """Substitute a fake correlated source toward the sender and relay
    re-modulated bits on the genuine beam."""

    kind: ClassVar[str] = "intercept_resend"
    fake_r: float = 1.0

    def __post_init__(self):
        _check_numbers(self)
        _check_r(self.fake_r)

    def begin(self, amplitude: float, session_r: SqueezeParam, rng: RngStream):
        return InterceptResendEve(self.fake_r, amplitude, session_r, rng)


@dataclass(frozen=True)
class Qnd:
    """Read one quadrature with readout noise measurement_var; the conjugate
    quadrature gains back-action noise 1/measurement_var."""

    kind: ClassVar[str] = "qnd"
    measured_quadrature: Quadrature = Quadrature.X
    measurement_var: float = 1.0

    def __post_init__(self):
        _check_numbers(self)
        back_action_var(self.measurement_var)

    def begin(self, amplitude: float, session_r: SqueezeParam, rng: RngStream):
        return ProbeEve(qnd_measure, self.measured_quadrature, self.measurement_var)


AttackSpec = NoAttack | Tap | InterceptResend | Qnd

#: Attack specs by the `kind` named in config files and reports.
ATTACKS = {cls.kind: cls for cls in (NoAttack, Tap, InterceptResend, Qnd)}

#: Sweep parameters that set an attack field: name -> (spec class, field).
ATTACK_SWEEPS = {
    "tau": (Tap, "tau"),
    "fake_r": (InterceptResend, "fake_r"),
    "sigma_m": (Qnd, "measurement_var"),
}


def swept_attack(attack: AttackSpec, name: str, value: float) -> AttackSpec:
    """`attack` with sweep parameter `name` set to `value`.  An attack of
    another kind is replaced by the parameter's kind at its defaults."""
    cls, field_name = ATTACK_SWEEPS[name]
    base = attack if type(attack) is cls else cls()
    return replace(base, **{field_name: value})


class Eavesdropper(Protocol):
    """Per-session state of an attack, returned by its spec's `begin`.

    The session walks the frames in chunks of one kind: all chunks of
    frames the sender blocks first, then all chunks of frames it sends.
    For each chunk it calls `substitute` on the outbound beams right before
    the sender, then, for a blocked chunk, `drop` with the same frames, or,
    for a sent chunk, `relay` on the same frames' returned beams right
    after the sender.  On blocked chunks `y` is None, because no output
    reads it.  A hook must treat each frame alike in either kind of chunk.
    `frames` holds ascending frame indices, `x` and `y` one row of slots
    per frame, and `rng` draws one row per frame from the frames' attack
    substreams.
    """

    record: EveRecord

    def substitute(self, frames: np.ndarray, x, y) -> tuple: ...

    def drop(self, frames: np.ndarray) -> None: ...

    def relay(self, frames: np.ndarray, x, y, rng: FrameRows) -> tuple: ...


@dataclass
class EveRecord:
    """What the eavesdropper learned: per-slot observations keyed by frame,
    and (intercept-resend only) her per-frame decoded bits."""

    observations: dict[int, np.ndarray] = field(default_factory=dict)
    decoded_bits: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class ProbeResult:
    """The (x, y) a probe forwards and the one record the eavesdropper keeps."""

    to_bob: tuple
    eve: float | np.ndarray


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not (math.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise DomainError(f"tap fraction must lie in [0, 1], got {tau!r}")
    return tau


def tap(x, y, tau: float, rng: RngStream | FrameRows) -> ProbeResult:
    """Beam-splitter tap: the forwarded beam keeps sqrt(1-tau) of the field,
    the eavesdropper port gets sqrt(tau), each with its vacuum counterpart.
    She keeps her port's amplitude quadrature."""
    tau = _check_tau(tau)
    return ProbeResult(*beam_splitter(x, y, math.sqrt(1.0 - tau), math.sqrt(tau), rng))


def back_action_var(measurement_var: float) -> float:
    """Minimum-uncertainty disturbance added to the conjugate quadrature.

    Raises DomainError unless measurement_var is finite and > 0 with a
    finite reciprocal: below about 1/1.8e308 the disturbance overflows.
    """
    measurement_var = float(measurement_var)
    disturbance = 1.0 / measurement_var if measurement_var > 0.0 else math.nan
    if not (math.isfinite(measurement_var) and math.isfinite(disturbance)):
        raise DomainError(
            f"measurement_var must be > 0 with a finite reciprocal, "
            f"got {measurement_var!r}"
        )
    return disturbance


def qnd_measure(
    x,
    y,
    quadrature: Quadrature,
    measurement_var: float,
    rng: RngStream | FrameRows,
) -> ProbeResult:
    """Probe one quadrature nondestructively.

    The measured quadrature is forwarded unchanged and read out with noise
    of variance measurement_var; the conjugate quadrature of the forwarded
    beam gains independent noise of variance 1/measurement_var.  `x` and
    `y` are not written.
    """
    sd, sm = math.sqrt(back_action_var(measurement_var)), math.sqrt(measurement_var)
    readout, kick = rng.standard_normal((2, *np.shape(x)))
    if quadrature is Quadrature.X:
        return ProbeResult(to_bob=(x, _plus(sd, kick, y)), eve=_plus(sm, readout, x))
    return ProbeResult(to_bob=(_plus(sd, kick, x), y), eve=_plus(sm, readout, y))


class ProbeEve:
    """Eavesdropper of an attack on the return leg only: per returned chunk
    she forwards what `probe(x, y, *params, rng) -> ProbeResult` passes on
    and keeps each frame's row of its `eve` record."""

    def __init__(self, probe, *params):
        self._probe = probe
        self._params = params
        self.record = EveRecord()

    def substitute(self, frames, x, y):
        return x, y

    def drop(self, frames) -> None:
        pass

    def relay(self, frames, x, y, rng: FrameRows):
        result = self._probe(x, y, *self._params, rng)
        self.record.observations.update(zip(np.asarray(frames).tolist(), result.eve))
        return result.to_bob


class InterceptResendEve:
    """Stateful intercept-resend attacker.

    Per chunk she holds the genuine beams, hands the sender one beam of a
    fake correlated pair per frame from her own source, decodes the
    sender's modulation against the retained fake idlers with an ideal
    (noiseless) joint detector, then re-modulates her decoded bits onto the
    held genuine beams with the protocol's public signal amplitude.
    """

    def __init__(
        self,
        fake_r: SqueezeParam,
        amplitude: float,
        session_r: SqueezeParam,
        rng: RngStream,
    ):
        self.fake_r = _check_r(fake_r)
        self.amplitude = float(amplitude)
        self.session_r = float(session_r)
        self._rng = rng
        # An ideal joint detector: it adds no electronic noise and so
        # draws nothing.
        self._detector = DetectorConfig(0.0)
        # The chunk of her last `substitute` until it is relayed or dropped:
        # its frames, the genuine beams and the fake idlers.
        self._chunk = None
        self.record = EveRecord()

    def substitute(self, frames, real_x, real_y):
        """Hold the genuine beams and return the fake beams sent to the sender.

        Without `real_y` (blocked frames) her source draws no phase
        quadratures either, and the fake y is None."""
        fake = sample_slots(
            self.fake_r,
            self._rng.rows(frames),
            np.shape(real_x),
            phases=real_y is not None,
        )
        self._chunk = (np.asarray(frames), (real_x, real_y), (fake.x2, fake.y2))
        return fake.x1, fake.y1

    def _take(self, frames) -> tuple:
        """The genuine beams and fake idlers of the held chunk, which must
        be exactly `frames`; the chunk is no longer held afterwards."""
        if self._chunk is None or not np.array_equal(self._chunk[0], frames):
            raise KeyError("frames are not the chunk of the last substitute")
        (_, real, fake_idler), self._chunk = self._chunk, None
        return real, fake_idler

    def drop(self, frames) -> None:
        """Discard the frames that never came back (the sender blocked them)."""
        self._take(frames)

    def relay(self, frames, encoded_x, encoded_y, rng: FrameRows):
        """Decode the returned fake beams and forward the re-modulated real beams.

        Returns (x, y) of the beams sent on toward the receiver; the decoded
        bits go to `record.decoded_bits`.  Her detector is noiseless and her
        source has its own stream, so nothing is drawn from `rng`.
        """
        real, idler = self._take(frames)
        measurement = bell_measure((encoded_x, encoded_y), idler, self._detector, rng)
        bits = decide_bits(measurement)
        self.record.decoded_bits.extend(bits)
        self.record.observations.update(
            zip(np.asarray(frames).tolist(), measurement.d_plus)
        )
        # Freed before the genuine beams are re-encoded, the chunk's peak.
        del idler, measurement
        return encode_bit(np.array(bits), self.amplitude, *real, self.session_r)

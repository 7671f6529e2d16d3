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

from .codec import BitBlock, decode_bit, encode_bit
from .detection import JointMeasurement
from .errors import DomainError
from .quadrature import (
    FrameRows,
    Quadrature,
    RngStream,
    SlotPair,
    SqueezeParam,
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
        if not (math.isfinite(self.tau) and 0.0 <= self.tau <= 1.0):
            raise DomainError(f"tap fraction must lie in [0, 1], got {self.tau!r}")

    def begin(self, amplitude: float, session_r: SqueezeParam, rng: RngStream):
        return ProbeEve(self.probe)

    def probe(self, x, y, rng: FrameRows):
        result = tap(x, y, self.tau, rng)
        return result.to_bob, result.eve[0]


@dataclass(frozen=True)
class InterceptResend:
    """Substitute a fake correlated source toward the sender and relay
    re-modulated bits on the genuine beam."""

    kind: ClassVar[str] = "intercept_resend"
    fake_r: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.fake_r) and self.fake_r >= 0.0):
            raise DomainError(
                f"fake source correlation must be finite and >= 0, got {self.fake_r!r}"
            )

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
        if not (math.isfinite(self.measurement_var) and self.measurement_var > 0.0):
            raise DomainError(
                f"measurement variance must be > 0, got {self.measurement_var!r}"
            )

    def begin(self, amplitude: float, session_r: SqueezeParam, rng: RngStream):
        return ProbeEve(self.probe)

    def probe(self, x, y, rng: FrameRows):
        result = qnd_measure(
            x, y, self.measured_quadrature, self.measurement_var, rng
        )
        return result.to_bob, result.eve_estimate


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

    The session walks the frames in chunks.  Per chunk it calls
    `substitute` on the outbound beams of all its frames right before the
    sender, `drop` with the frames the sender blocked, and `relay` on the
    returned beams of the other frames right after the sender.  `frames`
    holds ascending frame indices, `x` and `y` one row of slots per frame,
    and `rng` draws one row per frame from the frames' attack substreams.
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
class TapResult:
    to_bob: tuple
    eve: tuple


def tap(x, y, tau: float, rng: RngStream | FrameRows) -> TapResult:
    """Beam-splitter tap: the forwarded beam keeps sqrt(1-tau) of the field,
    the eavesdropper port gets sqrt(tau), each with its vacuum counterpart."""
    tau = float(tau)
    if not (math.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise DomainError(f"tap fraction must lie in [0, 1], got {tau!r}")
    vx, vy = rng.standard_normal((2, *np.shape(x)))
    keep = math.sqrt(1.0 - tau)
    take = math.sqrt(tau)
    x_bob = keep * x + take * vx
    y_bob = keep * y + take * vy
    x_eve = take * x - keep * vx
    y_eve = take * y - keep * vy
    return TapResult(to_bob=(x_bob, y_bob), eve=(x_eve, y_eve))


def back_action_var(measurement_var: float) -> float:
    """Minimum-uncertainty disturbance added to the conjugate quadrature."""
    measurement_var = float(measurement_var)
    if not (math.isfinite(measurement_var) and measurement_var > 0.0):
        raise DomainError(
            f"measurement variance must be > 0, got {measurement_var!r}"
        )
    return 1.0 / measurement_var


@dataclass(frozen=True)
class QndResult:
    eve_estimate: float | np.ndarray
    to_bob: tuple


def qnd_measure(
    x,
    y,
    quadrature: Quadrature,
    measurement_var: float,
    rng: RngStream | FrameRows,
) -> QndResult:
    """Probe one quadrature nondestructively.

    The measured quadrature is forwarded unchanged and read out with noise
    of variance measurement_var; the conjugate quadrature of the forwarded
    beam gains independent noise of variance 1/measurement_var.
    """
    disturbance = back_action_var(measurement_var)
    readout, kick = rng.standard_normal((2, *np.shape(x)))
    readout = math.sqrt(measurement_var) * readout
    kick = math.sqrt(disturbance) * kick
    if quadrature is Quadrature.X:
        return QndResult(eve_estimate=x + readout, to_bob=(x, y + kick))
    return QndResult(eve_estimate=y + readout, to_bob=(x + kick, y))


class ProbeEve:
    """Eavesdropper of an attack on the return leg only: she leaves the
    outbound beam alone, and per returned chunk forwards the beam her
    `probe(x, y, rng) -> ((x, y), observation)` passes on and keeps each
    frame's row of the observation."""

    def __init__(self, probe):
        self._probe = probe
        self.record = EveRecord()

    def substitute(self, frames, x, y):
        return x, y

    def drop(self, frames) -> None:
        pass

    def relay(self, frames, x, y, rng: FrameRows):
        to_bob, seen = self._probe(x, y, rng)
        self.record.observations.update(zip(np.asarray(frames).tolist(), seen))
        return to_bob


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
        spec = InterceptResend(fake_r)  # validates
        self.fake_r = spec.fake_r
        self.amplitude = float(amplitude)
        self.session_r = float(session_r)
        self._rng = rng
        # Her decode floor: ideal detection of her own pair.
        self._noise_var = 2.0 * math.exp(-2.0 * self.fake_r)
        # The chunk she holds: its frames, which of them still await their
        # return, the genuine beams and the fake idlers, one row per frame.
        self._frames = np.empty(0, dtype=np.int64)
        self._held = np.empty(0, dtype=bool)
        self._real = self._fake_idler = None
        self.record = EveRecord()

    def substitute(self, frames, real_x, real_y):
        """Hold the genuine beams and return the fake beams sent to the sender."""
        fake = sample_slots(self.fake_r, self._rng.rows(frames), np.shape(real_x))
        self._frames = np.asarray(frames)
        self._held = np.ones(self._frames.size, dtype=bool)
        self._real = (real_x, real_y)
        self._fake_idler = (fake.x2, fake.y2)
        return fake.x1, fake.y1

    def _release(self, frames) -> np.ndarray:
        """Rows of the held chunk for `frames`, no longer held afterwards."""
        frames = np.asarray(frames)
        rows = np.searchsorted(self._frames, frames)
        found = rows < self._frames.size
        found[found] = self._frames[rows[found]] == frames[found]
        found[found] = self._held[rows[found]]
        if not found.all():
            raise KeyError(f"frame {frames[~found][0]} is not held")
        self._held[rows] = False
        return rows

    def drop(self, frames) -> None:
        """Discard the frames that never came back (the sender blocked them)."""
        self._release(frames)

    def relay(self, frames, encoded_x, encoded_y, rng: FrameRows):
        """Decode the returned fake beams and forward the re-modulated real beams.

        Returns (x, y) of the beams sent on toward the receiver; the decoded
        bits go to `record.decoded_bits`.  `rng` is unused: her own source
        draws from the stream she was created with.
        """
        rows = self._release(frames)
        measurement = JointMeasurement(
            d_plus=encoded_x + self._fake_idler[0][rows],
            d_minus=encoded_y - self._fake_idler[1][rows],
        )
        decoded = decode_bit(measurement, self.amplitude, self._noise_var)
        self.record.decoded_bits.extend(decoded.bit)
        self.record.observations.update(
            zip(np.asarray(frames).tolist(), measurement.d_plus)
        )
        real_x, real_y = self._real[0][rows], self._real[1][rows]
        block = BitBlock(np.array(decoded.bit), self.amplitude, real_x.shape[-1])
        out = encode_bit(block, SlotPair(real_x, real_y, 0.0, 0.0), self.session_r)
        return out.x1, out.y1

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

from .codec import BitFrame, decode_bit, encode_bit, symbol_for_bit
from .detection import JointMeasurement
from .errors import DomainError
from .quadrature import Quadrature, RngStream, SlotPair, SqueezeParam, sample_slots


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

    def probe(self, x, y, rng: RngStream):
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

    def probe(self, x, y, rng: RngStream):
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

    The session calls `substitute` on every outbound frame right before the
    sender, `drop` for a frame the sender blocked, and `relay` on every
    returned frame right after the sender; `rng` is that frame's attack
    substream.
    """

    record: EveRecord

    def substitute(self, frame_index: int, x, y, n_slots: int) -> tuple: ...

    def drop(self, frame_index: int) -> None: ...

    def relay(self, frame_index: int, x, y, rng: RngStream) -> tuple: ...


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


def tap(x, y, tau: float, rng: RngStream) -> TapResult:
    """Beam-splitter tap: the forwarded beam keeps sqrt(1-tau) of the field,
    the eavesdropper port gets sqrt(tau), each with its vacuum counterpart."""
    tau = float(tau)
    if not (math.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise DomainError(f"tap fraction must lie in [0, 1], got {tau!r}")
    vx, vy = rng.generator().standard_normal((2, *np.shape(x)))
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
    x, y, quadrature: Quadrature, measurement_var: float, rng: RngStream
) -> QndResult:
    """Probe one quadrature nondestructively.

    The measured quadrature is forwarded unchanged and read out with noise
    of variance measurement_var; the conjugate quadrature of the forwarded
    beam gains independent noise of variance 1/measurement_var.
    """
    disturbance = back_action_var(measurement_var)
    readout, kick = rng.generator().standard_normal((2, *np.shape(x)))
    readout = math.sqrt(measurement_var) * readout
    kick = math.sqrt(disturbance) * kick
    if quadrature is Quadrature.X:
        return QndResult(eve_estimate=x + readout, to_bob=(x, y + kick))
    return QndResult(eve_estimate=y + readout, to_bob=(x + kick, y))


class ProbeEve:
    """Eavesdropper of an attack on the return leg only: she leaves the
    outbound beam alone, and per returned frame forwards the beam her
    `probe(x, y, rng) -> ((x, y), observation)` passes on and keeps the
    observation."""

    def __init__(self, probe):
        self._probe = probe
        self.record = EveRecord()

    def substitute(self, frame_index: int, x, y, n_slots: int):
        return x, y

    def drop(self, frame_index: int) -> None:
        pass

    def relay(self, frame_index: int, x, y, rng: RngStream):
        to_bob, seen = self._probe(x, y, rng)
        self.record.observations[frame_index] = np.atleast_1d(
            np.asarray(seen, dtype=float)
        )
        return to_bob


class InterceptResendEve:
    """Stateful intercept-resend attacker.

    Per frame she stores the genuine beam, hands the sender one beam of a
    fake correlated pair from her own source, decodes the sender's
    modulation against the retained fake idler with an ideal (noiseless)
    joint detector, then re-modulates her decoded bit onto the stored
    genuine beam with the protocol's public signal amplitude.
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
        self._real: dict[int, tuple] = {}
        self._fake_idler: dict[int, tuple] = {}
        self.record = EveRecord()

    def substitute(self, frame_index: int, real_x, real_y, n_slots: int):
        """Store the genuine beam and return the fake beam sent to the sender."""
        self._real[frame_index] = (real_x, real_y)
        fake = sample_slots(self.fake_r, self._rng.substream(frame_index), n_slots)
        self._fake_idler[frame_index] = (fake.x2, fake.y2)
        return fake.x1, fake.y1

    def drop(self, frame_index: int) -> None:
        """Discard state for a frame that never came back (sender blocked it)."""
        self._real.pop(frame_index, None)
        self._fake_idler.pop(frame_index, None)

    def relay(self, frame_index: int, encoded_x, encoded_y, rng: RngStream):
        """Decode the returned fake beam and forward the re-modulated real beam.

        Returns (x, y) of the beam sent on toward the receiver; the decoded
        bit goes to `record.decoded_bits`.  `rng` is unused: her own source
        draws from the stream she was created with.
        """
        idler_x, idler_y = self._fake_idler.pop(frame_index)
        real_x, real_y = self._real.pop(frame_index)
        measurement = JointMeasurement(
            d_plus=encoded_x + idler_x, d_minus=encoded_y - idler_y
        )
        decoded = decode_bit(measurement, self.amplitude, self._noise_var)
        self.record.decoded_bits.append(decoded.bit)
        self.record.observations[frame_index] = np.atleast_1d(
            np.asarray(measurement.d_plus, dtype=float)
        )
        frame = BitFrame(
            frame_index=frame_index,
            bit=decoded.bit,
            symbol=symbol_for_bit(decoded.bit, self.amplitude),
            slot_count=int(np.size(real_x)),
        )
        out = encode_bit(frame, SlotPair(real_x, real_y, 0.0, 0.0), self.session_r)
        return out.x1, out.y1

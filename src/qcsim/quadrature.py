"""EPR-correlated quadrature sampling and the closed-form variance algebra.

Everything is expressed in shot-noise units: a vacuum-limited beam has unit
quadrature variance, so a joint two-beam measurement sits at a shot-noise
limit of 2.  The correlation parameter ``r >= 0`` sets both the excess noise
of each individual beam, cosh(2r), and the squeezed variance of the
amplitude-sum / phase-difference combinations, 2*exp(-2r).  Each slot is an
independent sample of the four quadratures at the analysis frequency; there
are no time-domain cavity dynamics.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import threading
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import DomainError

#: Correlation parameter above which the hiding window opens (exp(4r) = 3).
HIDING_THRESHOLD_R = math.log(3.0) / 4.0

#: Largest correlation parameter accepted, far below where cosh(2r)
#: (r ~ 355) or the squared samples summed over a chunk overflow.
R_MAX = 100.0

# (pid, executor or None) of this process's row-filling helper thread.
_helper = None
_helper_lock = threading.Lock()

# A float for the correlation parameter r; kept as an alias for readability.
SqueezeParam = float


def _index(value, name: str, bits: int = 32) -> int:
    """`value` as a Python int, one word of a stream key: an integer in
    [0, 2**bits).  A bool, NumPy's included, is refused like a float."""
    if not isinstance(value, (bool, np.bool_)) and hasattr(value, "__index__"):
        value = operator.index(value)
        if 0 <= value < 1 << bits:
            return value
    raise DomainError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")


class Quadrature(Enum):
    """Amplitude-like (X) or phase-like (Y) component of the field."""

    X = "x"
    Y = "y"


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, substream_id) fully determine the samples.

    Substreams use independent Philox keys, so draws from different
    substreams are order-independent and safe to generate in parallel.
    Only a root stream (substream_id 0) derives children: a child's
    substream_id is its whole (phase, index) pair, so a child of a child
    would draw what a child of the root draws.
    """

    seed: int
    substream_id: int = 0

    def __post_init__(self):
        # NumPy integers become Python ints, which `FrameRows` keys Philox with.
        for name in ("seed", "substream_id"):
            object.__setattr__(self, name, _index(getattr(self, name), name, 64))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.substream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, shape) -> np.ndarray:
        """One draw of standard normals of `shape` from a fresh generator."""
        return self.generator().standard_normal(shape)

    def _check_root(self) -> None:
        if self.substream_id:
            raise DomainError(
                f"only a root stream derives child streams, got substream_id "
                f"{self.substream_id}"
            )

    def substream(self, index: int, phase: int = 0) -> "RngStream":
        """Child stream; distinct (phase, index) pairs never collide."""
        self._check_root()
        index, phase = _index(index, "index"), _index(phase, "phase")
        return RngStream(self.seed, phase << 32 | index)

    def rows(self, frames, phase: int = 0) -> "FrameRows":
        """Child streams `substream(f, phase)` of every frame index f in
        `frames`, drawn together as rows of one array."""
        self._check_root()
        # An integer array as a whole, anything else item by item:
        # np.asarray([1, True]) is int64.
        if not (isinstance(frames, np.ndarray) and frames.dtype.kind in "iu"):
            frames = [_index(f, "frames") for f in frames]
        elif frames.size and not (frames.min() >= 0 and frames.max() < 1 << 32):
            raise DomainError(f"frames must be integers in [0, 2**32), got {frames!r}")
        phase = _index(phase, "phase")
        return FrameRows(self.seed, np.uint64(phase << 32) | np.asarray(frames, np.uint64))


class FrameRows:
    """Substreams of one seed, one per frame of a batch, drawn row by row.

    A draw of shape (k, frames, *rest) fills frame i's (k, *rest) block with
    exactly what ``RngStream(seed, ids[i]).generator()`` would draw first,
    so batching frames moves no sample.  The rows come from one Philox
    bit generator per thread.  Before each row its state is assigned from
    plain Python ints: key (seed, ids[i]), counter 0 and an empty buffer,
    the state a fresh ``Philox(key=...)`` starts in.  Setting a state held
    in ints costs about half of setting one held in NumPy arrays, and
    skips the entropy pull of building a fresh generator.  A draw fills
    serially on the calling thread, unless `prefetch` started it ahead:
    with two or more usable CPUs that submits the draw, a `_Job`, to a
    helper thread, and the draw that takes it fills the rows the helper has
    not claimed yet.  NumPy releases the GIL while it fills.
    """

    def __init__(self, seed: int, ids: np.ndarray):
        self.seed = seed
        self.ids = ids
        self._ahead = None

    def _empty(self, shape) -> np.ndarray:
        k, n_frames, *rest = shape
        if n_frames != self.ids.size:
            raise ValueError(
                f"draw of {n_frames} frame rows from {self.ids.size} substreams"
            )
        # Frame-major, so that each frame's block is one contiguous fill.
        return np.empty((n_frames, k, *rest))

    def prefetch(self, shape) -> None:
        """Start the draw of `shape` on the helper thread, if there is one;
        the next `standard_normal` must draw that shape and returns it."""
        executor = _row_helper()
        if executor is not None:
            out = self._empty(shape)
            self._ahead = job = _Job(self.seed, self.ids.tolist(), out, tuple(shape))
            job.task = executor.submit(job.work)

    def cancel(self) -> None:
        """Drop the draw started by `prefetch`, if one is open: claim its
        unclaimed rows without filling them and wait for any in flight."""
        job, self._ahead = self._ahead, None
        if job is not None:
            job.finish(fill=False)

    def standard_normal(self, shape) -> np.ndarray:
        job, self._ahead = self._ahead, None
        if job is None:
            out = self._empty(shape)
            _fill_rows(self.seed, self.ids.tolist(), out)
            return out.swapaxes(0, 1)
        if tuple(shape) != job.shape:
            job.finish(fill=False)
            raise ValueError(f"draw of {shape} from rows drawn as {job.shape}")
        job.finish()
        return job.out.swapaxes(0, 1)


class _ThreadPhilox(threading.local):
    """Each thread's Philox, its normal draw and the state dict that resets
    it to a fresh key: counter 0, an empty buffer and no spare uint32."""

    def __init__(self):
        key = [0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        bit_generator = np.random.Philox(key=0)
        draw = np.random.Generator(bit_generator).standard_normal
        self.parts = key, state, bit_generator, draw


_philox = _ThreadPhilox()


def _fill_rows(seed: int, ids: list[int], rows: np.ndarray) -> None:
    """Fill rows[i] with the first draw of substream (seed, ids[i])."""
    key, state, bit_generator, draw = _philox.parts
    key[0] = seed
    for row, substream_id in zip(rows, ids):
        key[1] = substream_id
        bit_generator.state = state
        draw(out=row)


class _Job:
    """One shared draw: rows of `out` that any thread claims one at a time
    under the lock and fills from its own substream.  `task` is the
    helper's run of `work`, submitted by `FrameRows.prefetch`."""

    def __init__(self, seed: int, ids: list[int], out: np.ndarray, shape: tuple):
        self.seed, self.ids, self.out, self.shape = seed, ids, out, shape
        self._lock, self._next, self.task = threading.Lock(), 0, None

    def work(self, fill: bool = True) -> None:
        """Claim the unclaimed rows until none is left; fill each if `fill`."""
        while True:
            with self._lock:
                i = self._next
                if i == len(self.ids):
                    return
                self._next = i + 1
            if fill:
                _fill_rows(self.seed, self.ids[i : i + 1], self.out[i : i + 1])

    def finish(self, fill: bool = True) -> None:
        """Cancel the task if the helper has not started it, claim the rows
        left here, filling each if `fill`, and wait for the row in flight on
        the helper; with `fill`, raise the error the task raised."""
        started = not self.task.cancel()
        self.work(fill)
        if started:
            error = self.task.exception()
            if fill and error is not None:
                raise error


def usable_cpus() -> int:
    """The CPUs this process may run on; 0 where the platform cannot say."""
    return len(getattr(os, "sched_getaffinity", lambda pid: ())(0))


def _row_helper():
    """This process's helper thread, an executor of one worker made on
    first use; None with fewer than two usable CPUs.  Kept per pid, so a
    forked child makes its own."""
    global _helper
    with _helper_lock:
        if _helper is None or _helper[0] != os.getpid():
            executor = None
            if usable_cpus() >= 2:
                # Imported here: it pulls in `logging`, which a process that
                # never draws ahead need not load.
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(max_workers=1)
            _helper = (os.getpid(), executor)
        return _helper[1]


@dataclass(frozen=True)
class SlotPair:
    """Quadratures of one slot (or a batch of slots) of an EPR beam pair.

    Beam 1 (x1, y1) is the transmitted signal beam, beam 2 (x2, y2) the
    retained idler.  Fields hold scalars or equally shaped arrays; the
    phase quadratures y1 and y2 are None for slots sampled without them.
    """

    x1: float | np.ndarray
    y1: float | np.ndarray | None
    x2: float | np.ndarray
    y2: float | np.ndarray | None


@dataclass(frozen=True)
class HidingWindow:
    """Open interval of signal powers that stay below the single-beam noise
    yet above the squeezed floor: its edges are the variance of the pair's
    sum x1+x2 (and difference y1-y2) and that of one beam's quadrature."""

    lower: float  # 2*exp(-2r)
    upper: float  # cosh(2r)

    @property
    def empty(self) -> bool:
        return self.lower >= self.upper

    def contains(self, power: float) -> bool:
        """True if `power` lies strictly inside the window."""
        return self.lower < power < self.upper


def _check_numbers(record, error: type[Exception] = DomainError) -> None:
    """Store each `int` and `float` field of the frozen dataclass `record`
    as a Python int or float.  Raises `error` naming the first field that
    holds a bool, a string, None (unless its annotation allows None), any
    other value that is no integer or real number, or a NaN, +-inf or a
    number too large for a float."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "int":
            kind, ok, cast = "an integer", hasattr(value, "__index__"), operator.index
        elif f.type.startswith("float") and not (value is None and "None" in f.type):
            kind, ok, cast = "a real number", isinstance(value, numbers.Real), float
        else:
            continue
        if isinstance(value, (bool, np.bool_)) or not ok:
            raise error(f"{f.name} must be {kind}, got {value!r}")
        try:
            value = cast(value)
        except OverflowError:  # an int or a Fraction past the largest float
            raise error(
                f"{f.name} must be finite, got a number too large for a float"
            ) from None
        if cast is float and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")
        object.__setattr__(record, f.name, value)


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= R_MAX:
        raise DomainError(
            f"correlation parameter must lie in [0, {R_MAX:g}], got {r!r}"
        )
    return r


def hiding_window(r: SqueezeParam) -> HidingWindow:
    """Allowed signal-power interval (2e^-2r, cosh 2r); empty iff r <= ln(3)/4."""
    r = _check_r(r)
    return HidingWindow(lower=2.0 * math.exp(-2.0 * r), upper=math.cosh(2.0 * r))


def slot_from_normals(r, u, v, w=None, z=None):
    """Map four standard normals, or the amplitude pair u, v alone, to
    correlated quadratures.

    The combination gives anticorrelated amplitude quadratures and correlated
    phase quadratures: every single quadrature has variance cosh(2r) while
    x1+x2 and y1-y2 have variance 2*exp(-2r).  Inputs may be scalars or
    arrays and are not written.  Without `w` and `z` the phase quadratures
    are None.
    """
    r = _check_r(r)
    a = math.exp(-r) / math.sqrt(2.0)
    b = math.exp(r) / math.sqrt(2.0)
    x1, x2 = _sum_and_difference(a * u, b * v)
    y1 = y2 = None
    if w is not None:
        y1, y2 = _sum_and_difference(b * w, a * z)
    return SlotPair(x1=x1, y1=y1, x2=x2, y2=y2)


def _sum_and_difference(p, q):
    """(p + q, p - q), the sum formed in place in `p` after the difference."""
    diff = p - q
    p += q
    return p, diff


def sample_slots(
    r: SqueezeParam, rng: RngStream | FrameRows, n, *, phases: bool = True
) -> SlotPair:
    """Draw a batch of slots in a single vectorized pass: n slots from one
    stream, or with `n` a (frames, slots) shape, one row per frame from
    `FrameRows`.

    With `phases` false only the amplitude normals u and v are drawn, and
    y1 and y2 are None.  A stream fills each draw (each frame row) in
    order, u, v, w, z, so the x1 and x2 are those of the full draw.  Each
    quadrature is a contiguous array of its own; the draw is freed on return.
    """
    shape = tuple(int(s) for s in np.atleast_1d(n))
    if min(shape) < 1:
        raise DomainError(f"slot count must be >= 1, got {n}")
    return slot_from_normals(r, *rng.standard_normal((4 if phases else 2, *shape)))


def beam_splitter(
    x, y, t: float, r: float, rng: RngStream | FrameRows, *, reflect: bool = True
):
    """Mix (x, y) with fresh vacuum (vx, vy) at amplitude transmission `t`
    and reflection `r`; returns the transmitted (t*x + r*vx, t*y + r*vy)
    and the reflected amplitude r*x - t*vx, or None for it when `reflect`
    is false.  With `y` None only vx is drawn, and the transmitted y is
    None.  The vacuum is scaled in place in its draw; `x` and `y` are not
    written."""
    vacuum = rng.standard_normal((1 if y is None else 2, *np.shape(x)))
    # The reflected port reads the vacuum before it is scaled in place.
    reflected = _plus(r, x, -t * vacuum[0]) if reflect else None
    vacuum *= r
    out_y = None if y is None else _plus(t, y, vacuum[1])
    return (_plus(t, x, vacuum[0]), out_y), reflected


def _plus(c, beam, other):
    """c*beam + other, the sum formed in place in the product."""
    out = c * beam
    out += other
    return out


def apply_loss(x, y, eta: float, rng: RngStream | FrameRows):
    """Beam-splitter loss on one beam: keep sqrt(eta) of the field, admix
    sqrt(1-eta) of fresh vacuum on each quadrature independently.

    A lossless leg (eta = 1) returns `x` and `y` themselves and draws
    nothing: 1 * x + 0 * vacuum is x for every nonzero x.  With `y` None
    the returned y is None.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmission efficiency must lie in [0, 1], got {eta!r}")
    if eta == 1.0:
        return x, y
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    return beam_splitter(x, y, t, r, rng, reflect=False)[0]


def expected_sum_variance(
    r: SqueezeParam, eta: float = 1.0, electronic_noise_var: float = 0.0
) -> float:
    """Variance of x1'+x2 (equally of y1'-y2) after the signal beam is
    transmitted at total efficiency eta, plus detector electronic noise.

    Successive beam splitters compose into one with the product efficiency,
    so eta is the product over channel legs.
    """
    r = _check_r(r)
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"transmission efficiency must lie in [0, 1], got {eta!r}")
    if not (math.isfinite(electronic_noise_var) and electronic_noise_var >= 0.0):
        raise DomainError("electronic noise variance must be finite and >= 0")
    c = math.cosh(2.0 * r)
    s = math.sinh(2.0 * r)
    return (1.0 + eta) * c - 2.0 * math.sqrt(eta) * s + (1.0 - eta) + electronic_noise_var

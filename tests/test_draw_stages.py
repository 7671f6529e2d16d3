"""Each stage that draws normals computes the textbook expression of its
element, bit for bit, and writes no array its caller passed in.

The stages compute in place where they can, in their own draw or in a
product they made, so these tests guard that arithmetic without the sha256
digests: every expected value is written the plain way, on normals drawn
independently from each row's `RngStream(seed, id).generator()`.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsim.adversary import qnd_measure, tap
from qcsim.detection import DetectorConfig, bell_measure
from qcsim.quadrature import (
    FrameRows,
    Quadrature,
    RngStream,
    apply_loss,
    beam_splitter,
    sample_slots,
)


def _rng_and_shape(seed, frames, slots):
    """A 1-D stream when `frames` is None, else the rows of those frames."""
    root = RngStream(seed)
    if frames is None:
        return root.substream(3, 2), (slots,)
    return root.rows(frames, 2), (len(frames), slots)


def _normals(rng, k, shape):
    """The (k, *shape) normals `rng` draws, each row drawn on its own."""
    if isinstance(rng, FrameRows):
        rows = [
            RngStream(rng.seed, i).generator().standard_normal((k, shape[-1]))
            for i in rng.ids.tolist()
        ]
        return np.stack(rows, axis=1)
    generator = RngStream(rng.seed, rng.substream_id).generator()
    return generator.standard_normal((k, *shape))


def _same(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g is None and e is None) or np.array_equal(g, e)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    frames=st.none()
    | st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=4),
    slots=st.integers(min_value=1, max_value=40),
    r=st.floats(min_value=0.0, max_value=3.0),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    noise_var=st.floats(min_value=1e-6, max_value=1e3),
    measurement_var=st.floats(min_value=1e-3, max_value=1e3),
)
def test_each_drawing_stage_computes_its_textbook_expression(
    seed, frames, slots, r, eta, noise_var, measurement_var
):
    rng, shape = _rng_and_shape(seed, frames, slots)
    x, y = RngStream(seed ^ 1).standard_normal((2, *shape))

    a, b = math.exp(-r) / math.sqrt(2.0), math.exp(r) / math.sqrt(2.0)
    u, v, w, z = _normals(rng, 4, shape)
    s = sample_slots(r, rng, shape)
    x1, x2, y1, y2 = a * u + b * v, a * u - b * v, b * w + a * z, b * w - a * z
    _same((s.x1, s.y1, s.x2, s.y2), (x1, y1, x2, y2))
    s = sample_slots(r, rng, shape, phases=False)
    _same((s.x1, s.y1, s.x2, s.y2), (x1, None, x2, None))

    t, rf = math.sqrt(eta), math.sqrt(1.0 - eta)
    vx, vy = _normals(rng, 2, shape)
    out_x, out_y = t * x + rf * vx, t * y + rf * vy
    (got_x, got_y), reflected = beam_splitter(x, y, t, rf, rng)
    _same((got_x, got_y, reflected), (out_x, out_y, rf * x - t * vx))
    (got_x, got_y), reflected = beam_splitter(x, y, t, rf, rng, reflect=False)
    _same((got_x, got_y, reflected), (out_x, out_y, None))
    _same(apply_loss(x, y, eta, rng), (out_x, out_y))
    _same(apply_loss(x, None, eta, rng), (out_x, None))

    scale = math.sqrt(noise_var)
    noisy = DetectorConfig(noise_var).add_noise((x, y), rng)
    _same(noisy, (x + scale * vx, y + scale * vy))

    readout, kick = vx, vy
    sm, sd = math.sqrt(measurement_var), math.sqrt(1.0 / measurement_var)
    probe = qnd_measure(x, y, Quadrature.X, measurement_var, rng)
    _same((*probe.to_bob, probe.eve), (x, y + sd * kick, x + sm * readout))
    probe = qnd_measure(x, y, Quadrature.Y, measurement_var, rng)
    _same((*probe.to_bob, probe.eve), (x + sd * kick, y, y + sm * readout))


@pytest.mark.parametrize("frames", [None, [0, 3, 4]])
def test_no_stage_writes_its_callers_arrays(frames):
    # A stage that wrote one of these read-only beams would raise.
    rng, shape = _rng_and_shape(7, frames, 16)
    beams = RngStream(8).standard_normal((4, *shape))
    beams.flags.writeable = False
    x, y, idler_x, idler_y = beams
    for detector in (DetectorConfig(), DetectorConfig(0.0)):
        detector.add_noise((x, y), rng)
        bell_measure((x, y), (idler_x, idler_y), detector, rng)
    beam_splitter(x, y, 0.6, 0.8, rng)
    beam_splitter(x, None, 0.6, 0.8, rng)
    for eta in (0.3, 1.0):
        apply_loss(x, y, eta, rng)
        apply_loss(x, None, eta, rng)
    tap(x, y, 0.3, rng)
    for quadrature in Quadrature:
        qnd_measure(x, y, quadrature, 0.5, rng)


def _two_sums_bell_measure(received, idler, detector, rng):
    """The joint measurement as it was written before it formed its sums one
    at a time: both sums first, then the noise draw, then each added."""
    d_plus, d_minus = received[0] + idler[0], received[1] - idler[1]
    noise = rng.standard_normal((2, *np.shape(d_plus)))
    noise *= math.sqrt(detector.electronic_noise_var)
    noise[0] += d_plus
    noise[1] += d_minus
    return noise[0], noise[1]


@pytest.mark.parametrize("frames", [None, [0, 3, 4]])
@pytest.mark.parametrize("noise_var", [0.0, 0.3, 2.0])
def test_bell_measure_adds_each_sum_as_the_two_sums_form_did(frames, noise_var):
    detector = DetectorConfig(noise_var)
    for seed in (0, 5, 2**64 - 1):
        rng, shape = _rng_and_shape(seed, frames, 33)
        x, y, idler_x, idler_y = RngStream(seed ^ 1).standard_normal((4, *shape)) * 3.0
        got = bell_measure((x, y), (idler_x, idler_y), detector, rng)
        expected = _two_sums_bell_measure((x, y), (idler_x, idler_y), detector, rng)
        _same((got.d_plus, got.d_minus), expected)


def test_bell_measure_holds_one_joint_sum_beside_its_noise():
    # The noise draw is two chunks and the outputs are its rows, so forming
    # both sums before adding either would make the peak four chunks.
    chunk = 3 * 10_000 * 8
    beams = RngStream(8).standard_normal((4, 3, 10_000))
    for rng in (RngStream(3).rows([0, 4, 9], 5), RngStream(3).substream(1, 5)):
        tracemalloc.start()
        try:
            bell_measure((beams[0], beams[1]), (beams[2], beams[3]), DetectorConfig(), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3 * chunk <= peak < 3.5 * chunk

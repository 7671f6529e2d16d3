import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcsim import quadrature, session
from qcsim.errors import DomainError
from qcsim.quadrature import (
    HIDING_THRESHOLD_R,
    RngStream,
    apply_loss,
    beam_splitter,
    covariance_matrix,
    expected_sum_variance,
    hiding_window,
    sample_slots,
    slot_from_normals,
)

COSH_0875 = 1.4078686568228032
SINH_0875 = 0.9910066371442947
CORR_0875 = 0.8337240393570168


def test_epr_variance_vacuum():
    window = hiding_window(0.0)
    assert window.upper == 1.0
    assert window.lower == 2.0


@pytest.mark.parametrize(
    "r,beam,corr",
    [
        (0.4375, COSH_0875, CORR_0875),
        (1.0, 3.7621956910836314, 0.2706705664732254),
    ],
)
def test_epr_variance_closed_form(r, beam, corr):
    window = hiding_window(r)
    assert window.upper == pytest.approx(beam, rel=1e-12)
    assert window.lower == pytest.approx(corr, rel=1e-12)


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
def test_epr_variance_rejects_bad_r(bad):
    with pytest.raises(DomainError):
        hiding_window(bad)


def test_variance_pair_mutual_consistency():
    # The window's edges, the single-beam variance (upper) and the
    # sum/difference variance (lower), are tied through r:
    # (2/lower + lower/2)/2 == upper.
    for r in np.linspace(0.0, 2.0, 9):
        window = hiding_window(float(r))
        assert (2.0 / window.lower + window.lower / 2.0) / 2.0 == pytest.approx(
            window.upper, rel=1e-12
        )


def test_slot_construction_identity():
    slot = slot_from_normals(0.0, 1.0, 0.0, 0.0, 0.0)
    assert slot.x1 == pytest.approx(1.0 / math.sqrt(2.0))
    assert slot.x2 == pytest.approx(1.0 / math.sqrt(2.0))
    assert slot.y1 == 0.0
    assert slot.y2 == 0.0


@pytest.mark.parametrize("r", [0.0, 0.27, 0.4375, 1.0, 1.7])
def test_sampler_matches_covariance_matrix(r):
    # Columns of the sampling map, read off by feeding basis vectors; the
    # implied second moments must equal the covariance matrix exactly.
    cols = []
    for basis in np.eye(4):
        slot = slot_from_normals(r, *basis)
        cols.append([slot.x1, slot.y1, slot.x2, slot.y2])
    L = np.array(cols).T
    assert np.allclose(L @ L.T, covariance_matrix(r), atol=1e-12)


def test_sample_variances_match_closed_form():
    slots = sample_slots(0.4375, RngStream(2024).substream(0), 1_000_000)
    assert np.var(slots.x1) == pytest.approx(COSH_0875, rel=0.01)
    assert np.var(slots.x1 + slots.x2) == pytest.approx(CORR_0875, rel=0.01)
    assert np.var(slots.y1 - slots.y2) == pytest.approx(CORR_0875, rel=0.01)
    cov = float(np.mean(slots.x1 * slots.x2) - np.mean(slots.x1) * np.mean(slots.x2))
    assert cov == pytest.approx(-SINH_0875, rel=0.02)


def test_cholesky_oracle_agreement():
    # Independent sampling route: Cholesky factor of the covariance matrix.
    r, n = 0.7, 400_000
    sigma = covariance_matrix(r)
    chol = np.linalg.cholesky(sigma)
    g = RngStream(99).substream(1).generator()
    oracle = chol @ g.standard_normal((4, n))
    slots = sample_slots(r, RngStream(99).substream(2), n)
    mine = np.array([slots.x1, slots.y1, slots.x2, slots.y2])
    tol = 6.0 * math.cosh(2.0 * r) * math.sqrt(2.0 / n)
    assert np.allclose(np.cov(oracle), np.cov(mine), atol=tol)
    assert np.allclose(np.cov(mine), sigma, atol=tol)


def test_single_quadrature_variances_across_r_sweep():
    n = 1_000_000
    rng = np.random.default_rng(5)
    for r in [0.0, *rng.uniform(0.0, 2.0, 4)]:
        r = float(r)
        slots = sample_slots(r, RngStream(32).substream(int(r * 1e6)), n)
        c = math.cosh(2.0 * r)
        tol = 3.0 * c * math.sqrt(2.0 / n)
        for q in (slots.x1, slots.y1, slots.x2, slots.y2):
            assert abs(np.var(q) - c) <= tol
        corr = 2.0 * math.exp(-2.0 * r)
        tol_corr = 3.0 * corr * math.sqrt(2.0 / n)
        assert abs(np.var(slots.x1 + slots.x2) - corr) <= tol_corr
        assert abs(np.var(slots.y1 - slots.y2) - corr) <= tol_corr


def test_sampling_reproducibility():
    a = sample_slots(0.5, RngStream(123, 42), 1000)
    b = sample_slots(0.5, RngStream(123, 42), 1000)
    assert np.array_equal(a.x1, b.x1)
    assert np.array_equal(a.y2, b.y2)
    other = sample_slots(0.5, RngStream(123, 43), 1000)
    assert not np.array_equal(a.x1, other.x1)
    single = sample_slots(0.5, RngStream(123, 42), 1)
    again = sample_slots(0.5, RngStream(123, 42), 1)
    assert single == again


def test_substreams_are_disjoint():
    root = RngStream(7)
    a = sample_slots(0.3, root.substream(0, phase=2), 512)
    b = sample_slots(0.3, root.substream(1, phase=2), 512)
    c = sample_slots(0.3, root.substream(0, phase=3), 512)
    assert not np.array_equal(a.x1, b.x1)
    assert not np.array_equal(a.x1, c.x1)


def test_sample_slots_rejects_bad_count():
    with pytest.raises(DomainError):
        sample_slots(0.5, RngStream(1), 0)


class _NoDraws:
    def standard_normal(self, shape):
        raise AssertionError("a lossless leg drew vacuum")


def test_apply_loss_identity():
    slots = sample_slots(0.4375, RngStream(8).substream(0), 1000)
    x, y = apply_loss(slots.x1, slots.y1, 1.0, RngStream(8).substream(1))
    assert np.array_equal(x, slots.x1)
    assert np.array_equal(y, slots.y1)
    # A lossless leg admixes no vacuum: it draws nothing and returns its
    # inputs bit for bit.
    x, y = apply_loss(slots.x1, slots.y1, 1.0, _NoDraws())
    assert x.tobytes() == slots.x1.tobytes()
    assert y.tobytes() == slots.y1.tobytes()


def test_apply_loss_full_blockage_gives_vacuum():
    slots = sample_slots(1.0, RngStream(9).substream(0), 1_000_000)
    x, _ = apply_loss(slots.x1, slots.y1, 0.0, RngStream(9).substream(1))
    assert np.var(x) == pytest.approx(1.0, rel=0.01)


def test_apply_loss_partial_transmission():
    n = 1_000_000
    slots = sample_slots(0.4375, RngStream(10).substream(0), n)
    x, _ = apply_loss(slots.x1, slots.y1, 0.8, RngStream(10).substream(1))
    expected = expected_sum_variance(0.4375, 0.8)
    assert expected == pytest.approx(0.9613970168345567, rel=1e-12)
    assert np.var(x + slots.x2) == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_apply_loss_preserves_shot_noise_floor(eta):
    n = 400_000
    g = RngStream(11).substream(int(eta * 100)).generator()
    vac_x = g.standard_normal(n)
    vac_y = g.standard_normal(n)
    x, y = apply_loss(vac_x, vac_y, eta, RngStream(11).substream(int(eta * 100), 1))
    tol = 3.0 * math.sqrt(2.0 / n)
    assert abs(np.var(x) - 1.0) <= tol
    assert abs(np.var(y) - 1.0) <= tol


def test_beam_splitter_ports_share_one_vacuum_draw():
    x, y = RngStream(12).standard_normal((2, 5))
    t, r = math.sqrt(0.7), math.sqrt(0.3)
    vx, vy = RngStream(13).standard_normal((2, 5))
    (out_x, out_y), reflected = beam_splitter(x, y, t, r, RngStream(13))
    assert np.array_equal(out_x, t * x + r * vx)
    assert np.array_equal(out_y, t * y + r * vy)
    assert np.array_equal(reflected, r * x - t * vx)
    # Without a phase quadrature only vx is drawn, the first block.
    (out_x, out_y), reflected = beam_splitter(x, None, t, r, RngStream(13))
    assert out_y is None
    assert np.array_equal(out_x, t * x + r * vx)
    assert np.array_equal(reflected, r * x - t * vx)
    # Without the reflected port the same beam is transmitted.
    (out_x, out_y), reflected = beam_splitter(x, y, t, r, RngStream(13), reflect=False)
    assert reflected is None
    assert np.array_equal(out_x, t * x + r * vx)
    assert np.array_equal(out_y, t * y + r * vy)


@pytest.mark.parametrize("eta", [-0.1, 1.1, float("nan")])
def test_apply_loss_rejects_bad_eta(eta):
    with pytest.raises(DomainError):
        apply_loss(0.5, 0.5, eta, RngStream(1))


def test_hiding_window_below_threshold():
    w = hiding_window(0.2)
    assert w.empty
    assert w.lower == pytest.approx(1.3406400920712787, rel=1e-12)
    assert w.upper == pytest.approx(1.081072371838455, rel=1e-12)


def test_hiding_window_at_boundary():
    w = hiding_window(HIDING_THRESHOLD_R)
    assert w.empty
    assert w.lower == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)
    assert w.upper == pytest.approx(w.lower, rel=1e-12)


def test_hiding_window_above_threshold():
    w = hiding_window(1.0)
    assert not w.empty
    assert w.lower == pytest.approx(0.2706705664732254, rel=1e-12)
    assert w.upper == pytest.approx(3.7621956910836314, rel=1e-12)
    assert w.contains(1.0)
    assert not w.contains(0.2)
    assert not w.contains(4.0)


def test_hiding_window_empty_iff_below_threshold():
    for r in np.linspace(0.0, 1.0, 101):
        assert hiding_window(float(r)).empty == (r <= HIDING_THRESHOLD_R)
    assert hiding_window(HIDING_THRESHOLD_R - 1e-9).empty
    assert not hiding_window(HIDING_THRESHOLD_R + 1e-9).empty


def test_expected_sum_variance_limits():
    assert expected_sum_variance(0.4375, 1.0) == pytest.approx(CORR_0875, rel=1e-12)
    assert expected_sum_variance(0.4375, 0.0) == pytest.approx(
        1.0 + COSH_0875, rel=1e-12
    )
    assert expected_sum_variance(0.4375, 1.0, 0.3) == pytest.approx(
        CORR_0875 + 0.3, rel=1e-12
    )
    with pytest.raises(DomainError):
        expected_sum_variance(0.4375, 1.5)


@pytest.mark.parametrize("noise_var", [-0.1, math.inf, math.nan])
def test_expected_sum_variance_rejects_noise_that_a_detector_rejects(noise_var):
    # The same finite-and->=0 rule as DetectorConfig: an infinite electronic
    # noise would otherwise give an infinite variance.
    with pytest.raises(DomainError, match="finite and >= 0"):
        expected_sum_variance(0.4375, 1.0, noise_var)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    phase=st.integers(min_value=0, max_value=2**33),
    frames=st.lists(st.integers(min_value=0, max_value=2**33), min_size=1, max_size=5),
    k=st.integers(min_value=1, max_value=4),
    rest=st.lists(st.integers(min_value=0, max_value=9), max_size=2),
)
# Both ends of the key words: seeds 0 and 2**64 - 1, and a frame index and
# phase of 2**32 - 1, which make the largest substream id.
@example(seed=0, phase=2**32 - 1, frames=[2**32 - 1, 0], k=2, rest=[3])
@example(seed=2**64 - 1, phase=2**32 - 1, frames=[0, 2**32 - 1], k=1, rest=[5])
def test_frame_rows_draw_what_each_substream_draws(seed, phase, frames, k, rest):
    # Indices and phases past 32 bits are masked by RngStream; the batched
    # rows must mask them the same way.
    root = RngStream(seed)
    drawn = root.rows(frames, phase).standard_normal((k, len(frames), *rest))
    assert drawn.shape == (k, len(frames), *rest)
    for i, f in enumerate(frames):
        stream = root.substream(f, phase)
        expected = RngStream(seed, stream.substream_id).generator().standard_normal(
            (k, *rest)
        )
        assert np.array_equal(drawn[:, i], expected)


@pytest.mark.parametrize("np_int", [np.int64, np.uint32])
def test_numpy_integer_seed_index_and_phase_draw_what_python_ints_draw(np_int):
    root = RngStream(np_int(5))
    assert np.array_equal(
        root.generator().standard_normal(8), RngStream(5).generator().standard_normal(8)
    )
    expected = RngStream(5).substream(4, 2).generator().standard_normal(8)
    child = root.substream(np_int(4), np_int(2))
    assert np.array_equal(child.generator().standard_normal(8), expected)
    rows = root.rows(np.array([4], dtype=np_int), np_int(2))
    assert np.array_equal(rows.standard_normal((1, 1, 8))[0, 0], expected)


def test_numpy_bit_stream_is_pinned():
    # The first normals of one substream, as NumPy draws them today.  A
    # NumPy release that changes Philox or its normal sampler fails here,
    # by name, before the physics goldens that hash every sample.
    drawn = RngStream(0).substream(0, 2).generator().standard_normal(8)
    assert drawn.tolist() == [
        -2.411595260296375,
        0.35046640029081516,
        -0.7567565191616508,
        -0.2659625979777875,
        -1.3978601830950768,
        -0.5795762799781798,
        0.15762193809665298,
        -0.33321599317884826,
    ]


def test_frame_rows_reject_negative_indices_and_mismatched_draws():
    with pytest.raises(DomainError):
        RngStream(1).rows([0, -1], 2)
    with pytest.raises(DomainError):
        RngStream(1).rows([0], -1)
    with pytest.raises(DomainError):
        RngStream(1).substream(-1)
    with pytest.raises(ValueError):
        RngStream(1).rows([0, 1], 2).standard_normal((2, 3, 8))
    # A bool is no integer, NumPy's included, and a seed outside [0, 2**64)
    # would alias one inside it; each refusal names the argument.
    for build, name in [
        (lambda: RngStream(True), "seed"),
        (lambda: RngStream(np.True_), "seed"),
        (lambda: RngStream(1, False), "substream_id"),
        (lambda: RngStream(-1), "seed"),
        (lambda: RngStream(2**64), "seed"),
        (lambda: RngStream(1).substream(True, 0), "index"),
        (lambda: RngStream(1).substream(0, np.False_), "phase"),
        (lambda: RngStream(1).rows([True, False], 2), "frames"),
        (lambda: RngStream(1).rows([1, True], 2), "frames"),
        (lambda: RngStream(1).rows((0, np.True_), 2), "frames"),
        (lambda: RngStream(1).rows(np.array([1, 0], dtype=bool), 2), "frames"),
        (lambda: RngStream(1).rows([0, 1], True), "phase"),
    ]:
        with pytest.raises(DomainError, match=name):
            build()


def test_sample_slots_over_frame_rows_equals_per_frame_draws():
    root = RngStream(31)
    frames = np.array([0, 4, 5])
    batch = sample_slots(0.4375, root.rows(frames, 2), (frames.size, 16))
    for row, f in enumerate(frames.tolist()):
        single = sample_slots(0.4375, root.substream(f, 2), 16)
        for name in ("x1", "y1", "x2", "y2"):
            assert np.array_equal(getattr(batch, name)[row], getattr(single, name))


def _stream_and_shape(seed, frames, slots):
    """A 1-D stream when `frames` is None, else the rows of those frames."""
    root = RngStream(seed)
    if frames is None:
        return root.substream(3, 2), slots
    return root.rows(frames, 2), (len(frames), slots)


_FRAMES = st.none() | st.lists(
    st.integers(min_value=0, max_value=2**20), min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    r=st.floats(min_value=0.0, max_value=3.0),
    frames=_FRAMES,
    slots=st.integers(min_value=1, max_value=40),
)
def test_amplitude_only_draw_gives_the_full_draws_amplitudes(seed, r, frames, slots):
    # Each draw (each frame row) fills u, v, w, z in order, so stopping
    # after u and v moves no amplitude sample.
    rng, shape = _stream_and_shape(seed, frames, slots)
    full = sample_slots(r, rng, shape)
    amplitudes = sample_slots(r, rng, shape, phases=False)
    assert np.array_equal(amplitudes.x1, full.x1)
    assert np.array_equal(amplitudes.x2, full.x2)
    assert amplitudes.y1 is None and amplitudes.y2 is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    frames=_FRAMES,
    slots=st.integers(min_value=1, max_value=40),
)
def test_amplitude_only_loss_gives_the_full_loss_amplitude(seed, eta, frames, slots):
    rng, shape = _stream_and_shape(seed, frames, slots)
    x, y = RngStream(seed ^ 1).standard_normal((2, *np.atleast_1d(shape)))
    full_x, _ = apply_loss(x, y, eta, rng)
    lossy_x, lossy_y = apply_loss(x, None, eta, rng)
    assert np.array_equal(lossy_x, full_x)
    assert lossy_y is None


#: Normals in a sent frame's row at the slot count from which a session
#: draws its chunks ahead (four normals a slot).
_GATE = 4 * session._DRAW_AHEAD_SLOTS


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    first=st.integers(min_value=0, max_value=2**32 - 8),
    n_frames=st.sampled_from([1, 2, 3, 5]),
    k=st.sampled_from([1, 2, 4]),
    step=st.sampled_from([-1, 0, 1]),
)
@example(seed=0, first=0, n_frames=2, k=4, step=0)
@example(seed=0, first=0, n_frames=3, k=1, step=-1)
def test_threaded_fill_draws_what_each_substream_and_the_serial_fill_draw(
    seed, first, n_frames, k, step
):
    # Rows of k * slots normals just below, at and just above the gate.
    slots = _GATE // k + step
    shape = (k, n_frames, slots)
    rows = RngStream(seed).rows(range(first, first + n_frames), 2)
    fill, fills = quadrature._fill_rows, []

    def recorded(*args):
        fills.append((threading.get_ident(), list(args[1])))
        fill(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_fill_rows", recorded)
        rows.prefetch(shape)
        drawn = rows.standard_normal(shape)
        plain = rows.standard_normal(shape)
        mp.setattr(quadrature, "_row_helper", lambda: None)
        rows.prefetch(shape)
        serial = rows.standard_normal(shape)
    assert drawn.tobytes() == serial.tobytes()
    assert plain.tobytes() == serial.tobytes()
    for i, substream_id in enumerate(rows.ids.tolist()):
        expected = RngStream(seed, substream_id).generator().standard_normal((k, slots))
        assert np.array_equal(drawn[:, i], expected)
    # A draw ahead fills every row exactly once, one row a fill, on either
    # thread; a draw with no draw ahead, or with no helper to draw it, is
    # one fill on this thread at any row length.
    main, ids = threading.get_ident(), rows.ids.tolist()
    assert fills.pop() == (main, ids)
    assert fills.pop() == (main, ids)
    if quadrature._row_helper():
        assert sorted(row for _, row in fills) == [[i] for i in sorted(ids)]
        assert len({thread for thread, _ in fills}) <= 2
    else:
        assert fills == [(main, ids)]


def test_concurrent_draws_each_fill_their_own_rows():
    # More drawing threads than CPUs, switching often, share one helper:
    # no draw returns before its rows are filled or takes another's rows.
    ids = [0, 1, 2]
    expected = {
        seed: np.stack(
            [RngStream(seed, i).generator().standard_normal((2, _GATE)) for i in ids],
            axis=1,
        ).tobytes()
        for seed in range(6)
    }
    wrong = []

    def draw(seed):
        for _ in range(5):
            rows = RngStream(seed).rows(ids)
            rows.prefetch((2, 3, _GATE))
            drawn = rows.standard_normal((2, 3, _GATE))
            if drawn.tobytes() != expected[seed]:
                wrong.append(seed)

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in expected]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(quadrature, "_helper", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    threads = threading.active_count()
    rows = RngStream(3).rows([0, 1, 2], 2)
    rows.prefetch((4, 3, _GATE))
    drawn = rows.standard_normal((4, 3, _GATE))
    assert threading.active_count() == threads
    assert quadrature._helper == (os.getpid(), None)
    for i in range(3):
        expected = RngStream(3).substream(i, 2).generator().standard_normal((4, _GATE))
        assert np.array_equal(drawn[:, i], expected)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_long_rows_on_its_own_helper(monkeypatch):
    monkeypatch.setattr(quadrature, "_helper", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rows = RngStream(4).rows([5, 6, 7, 8], 2)
    rows.prefetch((2, 4, _GATE))
    parent = rows.standard_normal((2, 4, _GATE))
    assert quadrature._helper[1] is not None
    pid = os.fork()
    if pid == 0:
        try:
            rows.prefetch((2, 4, _GATE))
            child = rows.standard_normal((2, 4, _GATE))
            os._exit(0 if child.tobytes() == parent.tobytes() else 1)
        finally:
            os._exit(2)
    for _ in range(300):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on its threaded draw")
    assert os.waitstatus_to_exitcode(status) == 0


def test_interpreter_exits_after_a_threaded_draw():
    code = (
        "import os, threading\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from qcsim.quadrature import RngStream\n"
        "rows = RngStream(1).rows([0, 1], 2)\n"
        "rows.prefetch((4, 2, 10000))\n"
        "rows.standard_normal((4, 2, 10000))\n"
        "assert threading.active_count() == 2\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        timeout=20,
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()


def test_each_thread_keeps_one_philox_that_every_row_resets():
    # Two threads fill rows of several seeds in turn, switching often; each
    # keeps its own Philox and every row restarts it at its substream's key.
    lengths = [1, 3, 7, 64]
    expected = {
        seed: [RngStream(seed, i).generator().standard_normal(n) for i, n in
               enumerate(lengths)]
        for seed in range(4)
    }
    wrong, generators = [], {}

    def fill(seeds):
        for _ in range(50):
            for seed in seeds:
                for i, n in enumerate(lengths):
                    row = np.empty((1, n))
                    quadrature._fill_rows(seed, [i], row)
                    if not np.array_equal(row[0], expected[seed][i]):
                        wrong.append((seed, i))
        generators[threading.get_ident()] = quadrature._philox.parts[2]

    threads = [threading.Thread(target=fill, args=(s,)) for s in ([0, 1], [2, 3])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(set(map(id, generators.values()))) == 2
    fill([])
    assert generators[threading.get_ident()] is quadrature._philox.parts[2]


@pytest.fixture
def two_cpu_helper(monkeypatch):
    """A fresh helper thread, as with two usable CPUs, whatever the host has."""
    monkeypatch.setattr(quadrature, "_helper", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert quadrature._row_helper() is not None


def _held_helper(monkeypatch):
    """Make the helper thread's first fill wait for the returned `release`
    event, and set `held` when it starts waiting; records (thread, ids) of
    each fill in `fills` once the fill is done."""
    main, fill = threading.get_ident(), quadrature._fill_rows
    held, release, fills = threading.Event(), threading.Event(), []

    def gated(seed, ids, rows):
        if threading.get_ident() != main and not held.is_set():
            held.set()
            assert release.wait(timeout=60)
        fill(seed, ids, rows)
        fills.append((threading.get_ident(), list(ids)))

    monkeypatch.setattr(quadrature, "_fill_rows", gated)
    return held, release, fills


def test_a_draw_ahead_is_the_draw_and_others_fill_here_meanwhile(
    two_cpu_helper, open_jobs, monkeypatch
):
    held, release, fills = _held_helper(monkeypatch)
    ahead = RngStream(8).rows([0, 1, 2], 2)
    ahead.prefetch((4, 3, _GATE))
    assert held.wait(timeout=60)
    # The helper holds row 0 of the draw ahead: a long draw of several rows
    # is one serial fill on this thread meanwhile.
    others = RngStream(8).rows([3, 4], 2)
    other = others.standard_normal((2, 2, _GATE))
    main, ids = threading.get_ident(), ahead.ids.tolist()
    assert fills == [(main, others.ids.tolist())]
    # The draw that takes it fills rows 1 and 2 here and then waits only for
    # row 0, which the helper fills once released.
    threading.Timer(0.2, release.set).start()
    drawn = ahead.standard_normal((4, 3, _GATE))
    assert open_jobs == []
    assert fills[1:3] == [(main, [ids[1]]), (main, [ids[2]])]
    assert [row for thread, row in fills if thread != main] == [[ids[0]]]
    for i in range(3):
        assert np.array_equal(drawn[:, i], RngStream(8).substream(i, 2).generator()
                              .standard_normal((4, _GATE)))
    for i in range(2):
        assert np.array_equal(other[:, i], RngStream(8).substream(3 + i, 2)
                              .generator().standard_normal((2, _GATE)))
    # Taken once: the next draw of these rows fills them afresh.
    assert ahead._ahead is None
    assert ahead.standard_normal((4, 3, _GATE)).tobytes() == drawn.tobytes()


def test_a_draw_ahead_of_another_shape_raises(two_cpu_helper, open_jobs):
    rows = RngStream(8).rows([0, 1], 5)
    rows.prefetch((4, 2, 10))
    with pytest.raises(ValueError, match=r"drawn as \(4, 2, 10\)"):
        rows.standard_normal((2, 2, 10))
    assert open_jobs == []


def test_the_draw_that_takes_a_failed_draw_ahead_raises_its_error(
    two_cpu_helper, open_jobs, monkeypatch
):
    main, fill = threading.get_ident(), quadrature._fill_rows
    held, release = threading.Event(), threading.Event()

    def failing(seed, ids, rows):
        if threading.get_ident() != main:
            held.set()
            assert release.wait(timeout=60)
            raise RuntimeError("helper fill failed")
        fill(seed, ids, rows)

    monkeypatch.setattr(quadrature, "_fill_rows", failing)
    rows = RngStream(8).rows([0, 1, 2], 5)
    rows.prefetch((2, 3, 10))
    # The helper has claimed row 0 and fails it while this thread waits.
    assert held.wait(timeout=60)
    threading.Timer(0.1, release.set).start()
    with pytest.raises(RuntimeError, match="helper fill failed"):
        rows.standard_normal((2, 3, 10))
    assert open_jobs == []
    # The helper is ready for the next draw ahead, and fills its rows.
    helper_rows, started = [], threading.Event()

    def recorded(seed, ids, rows):
        if threading.get_ident() != main:
            helper_rows.extend(ids)
            started.set()
        fill(seed, ids, rows)

    monkeypatch.setattr(quadrature, "_fill_rows", recorded)
    rows.prefetch((2, 3, _GATE))
    assert started.wait(timeout=60)
    drawn = rows.standard_normal((2, 3, _GATE))
    assert open_jobs == []
    assert helper_rows
    for i in range(3):
        assert np.array_equal(drawn[:, i], RngStream(8).substream(i, 5).generator()
                              .standard_normal((2, _GATE)))


class _SlowLen(list):
    """Ids whose length takes a millisecond to read, in which time another
    thread runs."""

    def __len__(self):
        time.sleep(1e-3)
        return super().__len__()


def test_two_threads_claiming_at_once_fill_each_row_once(monkeypatch):
    # Both threads start claiming together and pause inside each claim:
    # the lock still hands every row to one thread only.
    fill, fills = quadrature._fill_rows, []

    def recorded(seed, ids, rows):
        fills.extend(ids)
        fill(seed, ids, rows)

    monkeypatch.setattr(quadrature, "_fill_rows", recorded)
    ids = list(range(8))
    job = quadrature._Job(5, _SlowLen(ids), np.empty((8, 2, 16)), (2, 8, 16))
    start = threading.Barrier(2)

    def work():
        start.wait(timeout=60)
        job.work()

    helper = threading.Thread(target=work)
    helper.start()
    work()
    helper.join(timeout=60)
    assert not helper.is_alive()
    assert job._next == len(ids)
    assert sorted(fills) == ids
    for i in ids:
        assert np.array_equal(job.out[i], RngStream(5, i).generator()
                              .standard_normal((2, 16)))

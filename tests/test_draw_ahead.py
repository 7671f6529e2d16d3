"""The session's draws ahead: `run_session` starts the first chunk's EPR,
loss-vacuum and detector-noise rows on the helper thread at once, and while
it computes one chunk, the helper draws the next chunk's.

The transcript must not move by a byte, every draw ahead must be taken by
the stage it was drawn for, and an error on either thread must reach the
caller and leave the helper ready for the next session.
"""

import os
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qcsim import quadrature, session
from qcsim.adversary import InterceptResend, NoAttack, Qnd, Tap
from qcsim.detection import DEFAULT_ELECTRONIC_NOISE_VAR, DetectorConfig
from qcsim.quadrature import FrameRows, Quadrature, RngStream
from qcsim.report import transcript_to_json
from qcsim.session import _CHUNK_SLOTS, SessionConfig, run_session

#: Slots per frame from which a session draws its chunks ahead.
GATE_SLOTS = session._DRAW_AHEAD_SLOTS

ATTACKS = [NoAttack(), Tap(0.3), InterceptResend(1.0), Qnd(Quadrature.Y, 0.5)]


@pytest.fixture(autouse=True)
def two_cpu_helper(monkeypatch, open_jobs):
    """A fresh helper thread, as with two usable CPUs, whatever the host has;
    no shared draw may be left open."""
    monkeypatch.setattr(quadrature, "_helper", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert quadrature._row_helper() is not None
    yield
    assert open_jobs == []


def _serial(cfg) -> str:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_row_helper", lambda: None)
        return transcript_to_json(run_session(cfg))


def _long(**overrides) -> SessionConfig:
    base = dict(key_bits="100110", seed=2028, frames=20, slots_per_frame=10_000,
                block_prob=0.35, attack=Tap(0.3))
    return SessionConfig(**{**base, **overrides})


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**64 - 1),
    attack=st.sampled_from(ATTACKS),
    slots=st.sampled_from([GATE_SLOTS - 1, GATE_SLOTS, GATE_SLOTS + 1]),
    # Up to three chunks of each kind of frame at these slot counts.
    frames=st.integers(1, 3 * _CHUNK_SLOTS // GATE_SLOTS),
    eta=st.sampled_from([1.0, 0.7]),
    noise=st.sampled_from([0.0, DEFAULT_ELECTRONIC_NOISE_VAR]),
    block_prob=st.sampled_from([0.0, 0.35, 1.0]),
)
@example(seed=5, attack=InterceptResend(1.0), slots=GATE_SLOTS, frames=70, eta=0.7,
         noise=DEFAULT_ELECTRONIC_NOISE_VAR, block_prob=0.35)
@example(seed=6, attack=Qnd(Quadrature.X, 1.0), slots=GATE_SLOTS - 1, frames=66,
         eta=1.0, noise=0.0, block_prob=0.35)
def test_drawing_ahead_moves_no_output_byte(
    seed, attack, slots, frames, eta, noise, block_prob
):
    cfg = SessionConfig(
        key_bits="10011", seed=seed, frames=frames, slots_per_frame=slots,
        eta_out=eta, eta_back=eta, block_prob=block_prob,
        detector=DetectorConfig(electronic_noise_var=noise), attack=attack,
    )
    assert transcript_to_json(run_session(cfg)) == _serial(cfg)


def _walk(cfg) -> tuple[list, list]:
    """Run `cfg`; returns the frame rows drawn ahead and those whose draw
    took a draw ahead, in order."""
    started, taken = [], []
    prefetch, draw = FrameRows.prefetch, FrameRows.standard_normal

    def recorded_prefetch(self, shape):
        prefetch(self, shape)
        started.append(self)

    def recorded_draw(self, shape):
        if self._ahead is not None:
            taken.append(self)
        return draw(self, shape)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FrameRows, "prefetch", recorded_prefetch)
        mp.setattr(FrameRows, "standard_normal", recorded_draw)
        run_session(cfg)
    return started, taken


@pytest.mark.parametrize("noise", [0.0, DEFAULT_ELECTRONIC_NOISE_VAR])
def test_every_draw_ahead_is_taken(noise):
    # 11 blocked frames in two chunks of six frames at most, so that a
    # blocked chunk is drawn ahead too, and 13 sent frames in three.
    cfg = _long(frames=24, block_prob=0.5,
                detector=DetectorConfig(electronic_noise_var=noise))
    assert len(run_session(cfg).blocked_frames) == 11
    started, taken = _walk(cfg)
    # Every chunk is drawn ahead, the first included: its EPR rows and,
    # with electronic noise, its detector or oscilloscope noise rows.
    assert len(started) == 5 * (2 if noise else 1)
    assert taken == started
    # On lossy legs each chunk's outbound loss vacuum is drawn ahead too,
    # and each of the three sent chunks' return loss vacuum.
    started, taken = _walk(_long(frames=24, block_prob=0.5, eta_out=0.7, eta_back=0.7,
                                 detector=DetectorConfig(electronic_noise_var=noise)))
    assert len(started) == 5 * (3 if noise else 2) + 3
    assert taken == started


def test_nothing_is_drawn_ahead_below_the_gate_or_with_one_cpu(monkeypatch):
    assert _walk(_long(slots_per_frame=GATE_SLOTS - 1)) == ([], [])
    # At the gate one chunk of blocked and one of sent frames: both are
    # drawn ahead, each its EPR and its noise rows.
    started, taken = _walk(_long(slots_per_frame=GATE_SLOTS))
    assert len(started) == 4 and taken == started
    monkeypatch.setattr(quadrature, "_helper", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    threads = threading.active_count()
    started, taken = _walk(_long())
    assert taken == [] and all(rows._ahead is None for rows in started)
    assert threading.active_count() == threads


def test_a_helper_error_reaches_the_session(monkeypatch):
    main, fill = threading.get_ident(), quadrature._fill_rows

    def failing(seed, ids, rows):
        if threading.get_ident() != main:
            raise RuntimeError("helper fill failed")
        fill(seed, ids, rows)

    monkeypatch.setattr(quadrature, "_fill_rows", failing)
    with pytest.raises(RuntimeError, match="helper fill failed"):
        run_session(_long())


def test_a_session_that_raises_mid_walk_leaves_the_helper_ready(
    monkeypatch, open_jobs
):
    cfg = _long(block_prob=0.0)
    expected = _serial(cfg)
    # Six frames a chunk: the third chunk's EPR rows are those of frames
    # 12-17, and the helper holds on the first of them.
    third = RngStream(cfg.seed).rows(range(12, 18), 2).ids.tolist()
    main, fill = threading.get_ident(), quadrature._fill_rows
    held, release, filled, encoded = threading.Event(), threading.Event(), [], []

    def gated(seed, ids, rows):
        if ids[0] == third[0] and threading.get_ident() != main:
            held.set()
            assert release.wait(timeout=60)
        fill(seed, ids, rows)
        filled.extend(ids)

    def failing(*args):
        encoded.append(args)
        if len(encoded) == 2:
            # The third chunk was drawn ahead; release its held row only
            # once the session has had time to cancel the rest.
            assert held.wait(timeout=60)
            threading.Timer(0.2, release.set).start()
            raise RuntimeError("stage failed")
        return encode_bit(*args)

    encode_bit = session.encode_bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_fill_rows", gated)
        mp.setattr(session, "encode_bit", failing)
        with pytest.raises(RuntimeError, match="stage failed"):
            run_session(cfg)
    # The session cancelled the third chunk's draw ahead: it filled none of
    # its unclaimed rows and waited for the one in flight, so the helper
    # is idle and takes the next session's draws ahead.
    assert release.is_set()
    assert [i for i in filled if i in third] == third[:1]
    assert open_jobs == []
    helper_rows = []

    def recorded(seed, ids, rows):
        if threading.get_ident() != main:
            helper_rows.append(len(ids))
        fill(seed, ids, rows)

    monkeypatch.setattr(quadrature, "_fill_rows", recorded)
    assert transcript_to_json(run_session(cfg)) == expected
    assert helper_rows

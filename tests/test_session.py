import math
import os
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qcsim import quadrature, session
from qcsim.adversary import InterceptResend, NoAttack, Qnd, Tap
from qcsim.detection import DetectorConfig, SpectrumSettings
from qcsim.errors import ConfigError, DomainError, HidingWindowError
from qcsim.quadrature import FrameRows, Quadrature, RngStream, sample_slots
from qcsim.report import transcript_to_json
from qcsim.session import (
    _EVE_SEED_SALT,
    _PHASE_EPR,
    _PHASE_LOSS_OUT,
    ABORT_EVE_SUSPECTED,
    ABORT_NO_KEY,
    SessionConfig,
    compare_keys,
    finalize,
    run_session,
)
from qcsim.verification import Thresholds, Verdict, VerdictStatus

NOISELESS = DetectorConfig(electronic_noise_var=0.0)


def _config(**overrides):
    base = dict(r=0.4375, key_bits="100110", seed=7)
    base.update(overrides)
    return SessionConfig(**base)


def test_six_bit_exchange_accepts():
    transcript = run_session(_config())
    assert transcript.sent_bits == "100110"
    assert transcript.decoded_bits == "100110"
    assert transcript.outcome.accepted
    assert transcript.outcome.key == "100110"
    assert compare_keys(transcript.sent_bits, transcript.decoded_bits).ber == 0.0
    assert len(transcript.confidences) == 6
    assert all(c > 0 for c in transcript.confidences)


def test_intercept_resend_preserves_bits_but_aborts():
    cfg = _config(
        frames=24,
        slots_per_frame=1000,
        block_prob=0.25,
        attack=InterceptResend(fake_r=1.0),
        seed=11,
    )
    transcript = run_session(cfg)
    assert transcript.decoded_bits == transcript.sent_bits
    assert not transcript.outcome.accepted
    assert transcript.outcome.reason == ABORT_EVE_SUSPECTED
    assert "trace_anticorrelation_lost" in transcript.verdict.reasons
    assert "rms_sum_diff_equal" in transcript.verdict.reasons
    assert list(transcript.eve.decoded_bits)  # she decoded every returned frame


def test_a_nan_threshold_cannot_accept_an_intercept_resend_session():
    # A NaN threshold makes its comparison in `verdict` false, so it would
    # flag nothing and accept this session, which the defaults abort.
    cfg = _config(key_bits="10110", seed=11, frames=60, slots_per_frame=1000,
                  block_prob=0.35, attack=InterceptResend())
    reasons = ("trace_anticorrelation_lost", "rms_sum_diff_equal")
    assert run_session(cfg).verdict.reasons == reasons
    with pytest.raises(DomainError, match="pearson must be finite"):
        replace(cfg, thresholds=Thresholds(pearson=math.nan, rms_ratio=math.nan))


def test_full_blocking_aborts_without_key():
    transcript = run_session(_config(block_prob=1.0, frames=8))
    assert transcript.sent_bits == ""
    assert transcript.decoded_bits == ""
    assert not transcript.outcome.accepted
    assert transcript.outcome.reason == ABORT_NO_KEY
    assert len(transcript.blocked_frames) == 8


def test_transcripts_are_deterministic():
    cfg = _config(frames=10, block_prob=0.3, slots_per_frame=50, seed=3)
    a = transcript_to_json(run_session(cfg))
    b = transcript_to_json(run_session(cfg))
    assert a == b
    other = transcript_to_json(run_session(replace(cfg, seed=4)))
    assert a != other


@pytest.mark.parametrize(
    "attack",
    [NoAttack(), Tap(tau=0.4), InterceptResend(fake_r=1.0), Qnd(Quadrature.X, 1.0)],
)
def test_idler_is_never_transformed(attack, monkeypatch):
    # The receiver's retained samples must be exactly the generated idler,
    # regardless of what happens to the signal beam: the idler reaches his
    # joint measurement (unblocked frames) and his scope (blocked frames)
    # untouched.
    cfg = _config(frames=4, slots_per_frame=32, block_prob=0.25, attack=attack, seed=13)
    import qcsim.session as session

    held = {}

    def measure(received, idler, detector, rng):
        held["measured"] = idler
        return bell_measure(received, idler, detector, rng)

    def record(blocked, frames, sender_beam_x, idler_x, detector, rng):
        held["blocked"] = (frames, idler_x)
        return record_block_traces(blocked, frames, sender_beam_x, idler_x, detector, rng)

    bell_measure = session.bell_measure
    record_block_traces = session.record_block_traces
    monkeypatch.setattr(session, "bell_measure", measure)
    monkeypatch.setattr(session, "record_block_traces", record)
    transcript = run_session(cfg)

    root = RngStream(cfg.seed)
    blocked_frames, blocked_idler_x = held.get("blocked", (np.empty(0, int), ()))
    assert blocked_frames.tolist() == list(transcript.blocked_frames)
    for f, idler_x in zip(blocked_frames, blocked_idler_x, strict=True):
        regenerated = sample_slots(cfg.r, root.substream(f, _PHASE_EPR), cfg.slots_per_frame)
        assert np.array_equal(idler_x, regenerated.x2)
    sent = [f for f in range(cfg.frames) if f not in transcript.blocked_frames]
    for f, idler_x, idler_y in zip(sent, *held["measured"], strict=True):
        regenerated = sample_slots(cfg.r, root.substream(f, _PHASE_EPR), cfg.slots_per_frame)
        assert np.array_equal(idler_x, regenerated.x2)
        assert np.array_equal(idler_y, regenerated.y2)


def test_blocked_frames_draw_no_phase_normals(monkeypatch):
    # A blocked frame's traces read amplitude quadratures only, so neither
    # the EPR source, the outbound loss nor intercept-resend's fake source
    # draws its phase normals.
    slots = 16
    cfg = _config(
        frames=10,
        slots_per_frame=slots,
        block_prob=0.5,
        eta_out=0.6,
        attack=InterceptResend(fake_r=1.0),
    )
    drawn = Counter()  # (seed, phase, frame) -> normals drawn
    standard_normal = FrameRows.standard_normal

    def counting(self, shape):
        per_row = math.prod(shape) // shape[1]
        for substream_id in self.ids.tolist():
            drawn[self.seed, substream_id >> 32, substream_id & 0xFFFFFFFF] += per_row
        return standard_normal(self, shape)

    monkeypatch.setattr(FrameRows, "standard_normal", counting)
    transcript = run_session(cfg)

    blocked = set(transcript.blocked_frames)
    assert 0 < len(blocked) < cfg.frames
    eve_seed = (cfg.seed ^ _EVE_SEED_SALT) & (2**64 - 1)
    for f in range(cfg.frames):
        quadratures = 2 if f in blocked else 4
        assert drawn[cfg.seed, _PHASE_EPR, f] == quadratures * slots
        assert drawn[eve_seed, 0, f] == quadratures * slots
        assert drawn[cfg.seed, _PHASE_LOSS_OUT, f] == quadratures // 2 * slots


def test_key_bits_cycle_over_unblocked_frames():
    transcript = run_session(_config(key_bits="10", frames=9))
    assert transcript.sent_bits == "101010101"
    assert len(transcript.decoded_bits) == 9


def test_key_length_equals_unblocked_frame_count():
    transcript = run_session(_config(frames=40, block_prob=0.4, seed=21))
    unblocked = 40 - len(transcript.blocked_frames)
    assert len(transcript.decoded_bits) == unblocked
    assert len(transcript.sent_bits) == unblocked


def test_compare_keys():
    assert compare_keys("100110", "100110").ber == 0.0
    result = compare_keys("100110", "000110")
    assert result.ber == pytest.approx(1.0 / 6.0)
    assert result.mismatches == (0,)
    assert compare_keys("", "").ber is None
    with pytest.raises(ValueError):
        compare_keys("101", "10")


def test_low_error_rate_in_clean_long_run():
    cfg = _config(r=1.0, frames=1000, slots_per_frame=64, key_bits="1001101011", seed=23)
    transcript = run_session(cfg)
    assert compare_keys(transcript.sent_bits, transcript.decoded_bits).ber < 1e-3


def test_ber_degrades_monotonically_with_loss():
    # Noisy regime on purpose: short frames and a signal close to the
    # squeezed floor, so losses visibly move the error rate.
    bers = []
    for i, eta in enumerate([1.0, 0.85, 0.7, 0.55]):
        cfg = _config(
            frames=2000,
            slots_per_frame=2,
            margin=0.1,
            key_bits="10",
            eta_out=eta,
            eta_back=eta,
            detector=NOISELESS,
            seed=29 + i,
            thresholds=Thresholds(cd_margin_db=10.0),  # isolate decoding
        )
        t = run_session(cfg)
        bers.append(compare_keys(t.sent_bits, t.decoded_bits).ber)
    n = 2000
    for a, b in zip(bers, bers[1:]):
        sigma = math.sqrt(max(a, 1e-4) * (1 - max(a, 1e-4)) / n) * 3.0
        assert b >= a - 3.0 * sigma
    assert bers[-1] > bers[0]


def test_tap_session_flags_correlation_drop():
    cfg = _config(
        frames=30, slots_per_frame=1000, block_prob=0.2, attack=Tap(tau=0.3), seed=31
    )
    transcript = run_session(cfg)
    assert transcript.outcome.reason == ABORT_EVE_SUSPECTED
    assert transcript.verdict.reasons == ("correlation_degree_drop",)
    # Tapping is not a substitution: the blocked traces stay anticorrelated.
    assert all(s.pearson < -0.4 for s in transcript.trace_stats)


def test_qnd_session_flags_conjugate_disturbance():
    cfg = _config(
        frames=30,
        slots_per_frame=1000,
        block_prob=0.2,
        attack=Qnd(Quadrature.X, 1.0),
        seed=33,
    )
    transcript = run_session(cfg)
    assert "correlation_degree_drop" in transcript.verdict.reasons
    assert transcript.cd.measured_minus_db < transcript.cd.expected_db - 1.0
    assert transcript.cd.measured_plus_db > transcript.cd.expected_db - 0.5


def test_session_rejects_empty_hiding_window_before_simulating():
    with pytest.raises(HidingWindowError):
        run_session(_config(r=0.2, frames=10**9))


def test_config_validation_messages_name_fields():
    with pytest.raises(ConfigError, match="key_bits"):
        run_session(_config(key_bits=""))
    with pytest.raises(ConfigError, match="block_prob"):
        run_session(_config(block_prob=1.5))
    with pytest.raises(ConfigError, match="eta_out"):
        run_session(_config(eta_out=-0.2))
    with pytest.raises(ConfigError, match="margin"):
        run_session(_config(margin=1.0))
    with pytest.raises(ConfigError, match="frames"):
        run_session(_config(frames=0))
    # A non-integer or a bool is refused up front, by the field's name.
    for name, value in [("frames", 2.5), ("slots_per_frame", 64.5), ("frames", True),
                        ("seed", True), ("seed", 7.0), ("seed", np.float64(7))]:
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            run_session(_config(**{name: value}))
    # A key that is not a string is refused by name, not run and echoed.
    for value in (["1", "0"], 101):
        with pytest.raises(ConfigError, match="key_bits must be a 0/1 string"):
            run_session(_config(key_bits=value))
    # A float field holding a string, a bool or None is refused by name, not
    # run on a converted value or left to raise a bare TypeError.
    for name, value in [("r", "0.4375"), ("margin", "0.5"), ("eta_out", None),
                        ("eta_back", np.bool_(True)), ("block_prob", True)]:
        with pytest.raises(ConfigError, match=f"{name} must be a real number"):
            run_session(_config(**{name: value}))
    # So is one of a section or an attack, which raise DomainError.
    for cls, name, value in [
        (DetectorConfig, "electronic_noise_var", "0.1"),
        (Thresholds, "cd_margin_db", "0.5"),
        (Thresholds, "pearson", True),
        (SpectrumSettings, "rbw_hz", None),
        (Tap, "tau", "0.1"),
        (InterceptResend, "fake_r", "1.0"),
        (Qnd, "measurement_var", "1.0"),
    ]:
        with pytest.raises(DomainError, match=f"{name} must be a real number"):
            cls(**{name: value})
    # A NaN or an infinity in any float field is refused by the field's name.
    for name, value in [("r", math.nan), ("margin", math.inf),
                        ("eta_back", -math.inf), ("block_prob", math.nan)]:
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            _config(**{name: value})
    for cls, name, value in [
        (DetectorConfig, "electronic_noise_var", math.inf),
        (SpectrumSettings, "span_high_hz", math.inf),
        (Tap, "tau", math.nan),
        (InterceptResend, "fake_r", math.inf),
        (Qnd, "measurement_var", math.nan),
    ]:
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            cls(**{name: value})
    # So is an integer or a fraction too large for a float, not left to
    # raise a bare OverflowError.
    too_large = "must be finite, got a number too large for a float"
    for name, value in [("r", 10**400), ("margin", -(10**400)),
                        ("eta_out", Fraction(10**400, 3))]:
        with pytest.raises(ConfigError, match=f"{name} {too_large}"):
            _config(**{name: value})
    for cls, name in [(Tap, "tau"), (Thresholds, "pearson"),
                      (DetectorConfig, "electronic_noise_var")]:
        with pytest.raises(DomainError, match=f"{name} {too_large}"):
            cls(**{name: 10**400})


@pytest.mark.parametrize("np_int", [np.int64, np.uint64])
def test_numpy_integer_fields_run_as_python_ints(np_int):
    cfg = _config(seed=np_int(7), frames=np_int(6), slots_per_frame=np_int(64))
    assert all(type(v) is int for v in (cfg.seed, cfg.frames, cfg.slots_per_frame))
    expected = transcript_to_json(run_session(_config(frames=6, slots_per_frame=64)))
    assert transcript_to_json(run_session(cfg)) == expected


def test_numpy_float_fields_run_as_python_floats():
    cfg = _config(r=np.float64(0.4375), margin=np.float32(0.5), eta_out=1,
                  attack=Tap(np.float64(0.3)), thresholds=Thresholds(np.float64(-0.2)))
    assert all(type(v) is float for v in (cfg.r, cfg.margin, cfg.eta_out,
                                           cfg.attack.tau, cfg.thresholds.pearson))
    expected = _config(r=0.4375, margin=0.5, eta_out=1.0, attack=Tap(0.3),
                       thresholds=Thresholds(-0.2))
    assert transcript_to_json(run_session(cfg)) == transcript_to_json(
        run_session(expected)
    )


#: Most traced bytes a 40 x 10 000 session may hold beyond its transcript,
#: with its draws filled serially or the next chunk's drawn ahead.
WORKING_SET_BOUND_MB = {"serial": 4.5, "drawn_ahead": 7.0}


@pytest.mark.parametrize("draws", sorted(WORKING_SET_BOUND_MB))
@pytest.mark.parametrize(
    "attack", [NoAttack(), Tap(0.3), InterceptResend(1.0), Qnd(Quadrature.X, 1.0)],
    ids=lambda attack: attack.kind,
)
def test_a_long_session_holds_one_chunk_at_a_time(monkeypatch, draws, attack):
    # A session's working set is one chunk's arrays, and the next chunk's
    # draws when they are drawn ahead on the helper thread, whatever the
    # session's length.  Measured: 3.0-3.6 MB serial and 4.3-5.3 MB drawn
    # ahead, against 5.7-7.2 and 8.6-10.6 MB with chunks of twice the slots.
    if draws == "serial":
        monkeypatch.setattr(quadrature, "_row_helper", lambda: None)
    else:
        monkeypatch.setattr(quadrature, "_helper", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _config(frames=40, slots_per_frame=10_000, block_prob=0.35, attack=attack)
    tracemalloc.start()
    try:
        transcript = run_session(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert transcript.blocked_frames and transcript.decoded_bits
    assert (peak - held) / 1e6 < WORKING_SET_BOUND_MB[draws]


def test_finalize_rules():
    honest = Verdict(VerdictStatus.HONEST, ())
    suspected = Verdict(VerdictStatus.EVE_SUSPECTED, ("correlation_degree_drop",))
    accepted = finalize(honest, "100110")
    assert accepted.accepted and accepted.key == "100110"
    aborted = finalize(suspected, "100110")
    assert not aborted.accepted and aborted.reason == ABORT_EVE_SUSPECTED
    empty = finalize(honest, "")
    assert not empty.accepted and empty.reason == ABORT_NO_KEY


def test_blocked_frames_record_traces_of_frame_length():
    cfg = _config(frames=12, block_prob=0.5, slots_per_frame=40, seed=37)
    transcript = run_session(cfg)
    assert len(transcript.traces) == len(transcript.blocked_frames)
    for traces in transcript.traces:
        assert traces.frame in transcript.blocked_frames
        assert traces.alice.size == 40
        assert traces.bob.size == 40
    assert len(transcript.frame_cd) == 12 - len(transcript.blocked_frames)


def test_substream_phases_are_distinct():
    # Every substream phase, the CLI's included, lives in the session
    # module; two equal phases would key the same streams.
    phases = {k: v for k, v in vars(session).items() if k.startswith("_PHASE_")}
    assert {"_PHASE_EPR", "_PHASE_SPECTRUM", "_PHASE_PROBE"} <= phases.keys()
    assert len(set(phases.values())) == len(phases)

import math
from dataclasses import replace

import numpy as np
import pytest

from qcsim import (
    ConfigError,
    DetectorConfig,
    HidingWindowError,
    InterceptResend,
    NoAttack,
    Qnd,
    Quadrature,
    RngStream,
    SessionConfig,
    Tap,
    Thresholds,
    Verdict,
    VerdictStatus,
    compare_keys,
    finalize,
    run_session,
    sample_slots,
    transcript_to_json,
)
from qcsim.session import ABORT_EVE_SUSPECTED, ABORT_NO_KEY, _PHASE_EPR

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

    def record(schedule, frames, sender_beam_x, idler_x, detector, rng):
        held["blocked"] = (frames, idler_x)
        return record_block_traces(schedule, frames, sender_beam_x, idler_x, detector, rng)

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
        assert traces.alice.samples.size == 40
        assert traces.bob.samples.size == 40
    assert len(transcript.frame_cd) == 12 - len(transcript.blocked_frames)

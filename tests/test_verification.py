import math

import numpy as np
import pytest

from qcsim.adversary import InterceptResendEve
from qcsim.codec import signal_amplitude_for
from qcsim.detection import DetectorConfig
from qcsim.errors import DomainError, ProtocolOrderError
from qcsim.quadrature import RngStream, sample_slots
from qcsim.verification import (
    CdSummary,
    Thresholds,
    TraceStats,
    VerdictStatus,
    record_block_traces,
    schedule_blocks,
    trace_stats,
    verdict,
)
from qcsim.verification import REASON_ANTICORRELATION, REASON_CD, REASON_RMS

NOISELESS = DetectorConfig(electronic_noise_var=0.0)
TANH_0875 = 0.7039056039366212


def test_schedule_extremes():
    none = schedule_blocks(100, 0.0, RngStream(61))
    assert none.dtype == bool and none.shape == (100,) and not none.any()
    full = schedule_blocks(100, 1.0, RngStream(61))
    assert full.shape == (100,) and full.all()
    assert schedule_blocks(0, 0.5, RngStream(61)).shape == (0,)


def test_schedule_binomial_count():
    blocked = schedule_blocks(1000, 0.1, RngStream(62))
    assert blocked.dtype == bool and blocked.shape == (1000,)
    assert abs(np.count_nonzero(blocked) - 100) <= 30


def test_schedule_deterministic_and_validated():
    a = schedule_blocks(50, 0.3, RngStream(63))
    b = schedule_blocks(50, 0.3, RngStream(63))
    assert np.array_equal(a, b)
    with pytest.raises(DomainError):
        schedule_blocks(50, 1.5, RngStream(63))
    with pytest.raises(DomainError):
        schedule_blocks(-1, 0.5, RngStream(63))


def _blocked_schedule(frame):
    blocked = np.zeros(frame + 1, dtype=bool)
    blocked[frame] = True
    return blocked


def test_record_traces_requires_blocked_frame():
    slots = sample_slots(0.4375, RngStream(64).substream(0), 100)
    with pytest.raises(ProtocolOrderError):
        record_block_traces(
            _blocked_schedule(3),
            np.array([1]),
            slots.x1[None],
            slots.x2[None],
            NOISELESS,
            RngStream(64),
        )


def test_honest_blocked_traces_anticorrelate():
    n = 10_000
    slots = sample_slots(0.4375, RngStream(65).substream(0), n)
    alice, bob = record_block_traces(
        _blocked_schedule(0),
        np.array([0]),
        slots.x1[None],
        slots.x2[None],
        NOISELESS,
        RngStream(65).rows([1]),
    )
    [stats] = trace_stats(alice, bob)
    assert stats.pearson == pytest.approx(-TANH_0875, abs=0.02)
    assert stats.rms_sum / stats.rms_diff == pytest.approx(
        math.exp(-0.875), abs=0.02
    )


def test_blocked_traces_with_electronic_noise():
    # Noise on both scopes dilutes the anticorrelation to
    # -sinh(2r)/(cosh(2r) + noise_var).
    n = 40_000
    noise = 0.4
    slots = sample_slots(0.4375, RngStream(66).substream(0), n)
    alice, bob = record_block_traces(
        _blocked_schedule(0),
        np.array([0]),
        slots.x1[None],
        slots.x2[None],
        DetectorConfig(electronic_noise_var=noise),
        RngStream(66).rows([1]),
    )
    [stats] = trace_stats(alice, bob)
    expected = -math.sinh(0.875) / (math.cosh(0.875) + noise)
    assert stats.pearson == pytest.approx(expected, abs=0.02)


def test_uncorrelated_beams_give_flat_pearson():
    n = 10_000
    slots = sample_slots(0.0, RngStream(67).substream(0), n)
    alice, bob = record_block_traces(
        _blocked_schedule(0),
        np.array([0]),
        slots.x1[None],
        slots.x2[None],
        NOISELESS,
        RngStream(67).rows([1]),
    )
    [stats] = trace_stats(alice, bob)
    assert abs(stats.pearson) < 0.05
    assert stats.rms_sum / stats.rms_diff == pytest.approx(1.0, abs=0.03)


def test_substituted_beam_shows_no_anticorrelation():
    n = 10_000
    slots = sample_slots(0.4375, RngStream(68).substream(0), n)
    eve = InterceptResendEve(
        1.0, signal_amplitude_for(0.4375, 0.5), 0.4375, RngStream(69)
    )
    fake_x, _ = eve.substitute(np.array([0]), slots.x1[None], slots.y1[None])
    alice, bob = record_block_traces(
        _blocked_schedule(0),
        np.array([0]),
        fake_x,
        slots.x2[None],
        NOISELESS,
        RngStream(68).rows([1]),
    )
    [stats] = trace_stats(alice, bob)
    assert abs(stats.pearson) < 0.05
    assert stats.rms_sum / stats.rms_diff == pytest.approx(1.0, abs=0.03)


def test_trace_stats_exact_anticorrelation():
    a = np.array([[0.5, -1.0, 2.0, -0.3]])
    [stats] = trace_stats(a, -a)
    assert stats.pearson == pytest.approx(-1.0)
    assert stats.rms_sum == 0.0
    assert stats.rms_diff > 0.0


def test_trace_stats_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        trace_stats(np.zeros((1, 10)), np.zeros((1, 11)))
    with pytest.raises(ValueError):
        trace_stats(np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError, match="must have equal length"):
        record_block_traces(
            _blocked_schedule(0),
            np.array([0]),
            np.zeros((1, 10)),
            np.zeros((1, 11)),
            NOISELESS,
            RngStream(1),
        )


def test_rms_sum_equals_rms_diff_for_independent_traces():
    # Averaged over many independent trace pairs the two rms values agree.
    g = RngStream(70).generator()
    sums, diffs = [], []
    for _ in range(50):
        a = g.standard_normal(2000)
        b = g.standard_normal(2000)
        sums.append(math.sqrt(np.mean((a + b) ** 2)))
        diffs.append(math.sqrt(np.mean((a - b) ** 2)))
    gap = np.mean(sums) - np.mean(diffs)
    scatter = math.sqrt((np.var(sums) + np.var(diffs)) / 50)
    assert abs(gap) <= 3.0 * scatter


def test_thresholds_resolve_r_aware_defaults():
    resolved = Thresholds().resolve(0.4375)
    assert resolved.pearson == pytest.approx(-TANH_0875 / 2.0)
    assert resolved.rms_ratio == pytest.approx((math.exp(-0.875) + 1.0) / 2.0)
    assert resolved.cd_margin_db == 0.5
    custom = Thresholds(pearson=-0.2, rms_ratio=0.9, cd_margin_db=1.0).resolve(0.4375)
    assert custom.pearson == -0.2
    assert custom.rms_ratio == 0.9
    assert custom.cd_margin_db == 1.0


@pytest.mark.parametrize("margin", [0.0, -1.0, math.inf, math.nan])
def test_thresholds_reject_non_positive_cd_margin(margin):
    with pytest.raises(DomainError, match="cd margin"):
        Thresholds(cd_margin_db=margin)


def _honest_stats():
    return TraceStats(pearson=-0.70, rms_sum=0.41, rms_diff=1.0)


def _substituted_stats():
    return TraceStats(pearson=0.01, rms_sum=1.0, rms_diff=1.0)


def test_verdict_honest_evidence_passes():
    thresholds = Thresholds().resolve(0.4375)
    cd = CdSummary(measured_plus_db=3.78, measured_minus_db=3.82, expected_db=3.80)
    result = verdict([_honest_stats()] * 5, cd, thresholds)
    assert result.status is VerdictStatus.HONEST
    assert result.reasons == ()


def test_verdict_flags_substituted_beam():
    thresholds = Thresholds().resolve(0.4375)
    result = verdict([_substituted_stats()] * 5, None, thresholds)
    assert result.status is VerdictStatus.EVE_SUSPECTED
    assert REASON_ANTICORRELATION in result.reasons
    assert REASON_RMS in result.reasons


def test_verdict_flags_correlation_drop_on_either_channel():
    thresholds = Thresholds().resolve(0.4375)
    cd = CdSummary(measured_plus_db=3.0, measured_minus_db=3.8, expected_db=3.80)
    assert REASON_CD in verdict([], cd, thresholds).reasons
    cd = CdSummary(measured_plus_db=3.8, measured_minus_db=0.4, expected_db=3.80)
    assert REASON_CD in verdict([], cd, thresholds).reasons
    cd = CdSummary(measured_plus_db=3.75, measured_minus_db=3.85, expected_db=3.80)
    assert verdict([], cd, thresholds).status is VerdictStatus.HONEST


def test_verdict_rms_ratio_of_identical_traces():
    # Identical traces have rms_diff == 0.  Two dark traces (rms_sum == 0
    # too) contribute the ratio 0, so beside a frame of ratio 0.9 the mean
    # stays under 0.5; any other traces contribute an infinite ratio.
    thresholds = Thresholds(pearson=0.0, rms_ratio=0.5).resolve(0.4375)
    dark = TraceStats(pearson=-0.70, rms_sum=0.0, rms_diff=0.0)
    below = TraceStats(pearson=-0.70, rms_sum=0.9, rms_diff=1.0)
    assert verdict([dark, below], None, thresholds).status is VerdictStatus.HONEST
    equal = TraceStats(pearson=-0.70, rms_sum=0.41, rms_diff=0.0)
    thresholds = Thresholds().resolve(0.4375)
    result = verdict([equal] + [_honest_stats()] * 4, None, thresholds)
    assert result.status is VerdictStatus.EVE_SUSPECTED
    assert result.reasons == (REASON_RMS,)


def test_verdict_requires_some_evidence():
    with pytest.raises(ValueError):
        verdict([], None, Thresholds().resolve(0.4375))

"""`qcsim.sweep`, the library call behind `qcsim sweep`: each grid point's
results equal those of its sessions run by hand, and every refusal comes
before the first session."""

import itertools
import math
from dataclasses import replace

import pytest

from qcsim import SweepPoint, sweep
from qcsim.adversary import Tap
from qcsim.detection import DetectorConfig, bell_measure, correlation_degree
from qcsim.errors import ConfigError
from qcsim.quadrature import HIDING_THRESHOLD_R, RngStream, apply_loss, sample_slots
from qcsim.session import (
    _PHASE_PROBE,
    SessionConfig,
    _cd_probe,
    compare_keys,
    run_session,
)
from qcsim.verification import VerdictStatus

BASE = SessionConfig(
    key_bits="1011", seed=41, frames=8, slots_per_frame=48, block_prob=0.3
)


def _scalar_probe(cfg: SessionConfig) -> float:
    """The probe as it drew before its rows: one scalar substream a stage,
    all slots in one 1-D array."""
    n, eta = cfg.frames * cfg.slots_per_frame, cfg.eta_out * cfg.eta_back
    root = RngStream(cfg.seed)
    slots = sample_slots(cfg.r, root.substream(0, _PHASE_PROBE), n)
    x, y = apply_loss(slots.x1, slots.y1, eta, root.substream(1, _PHASE_PROBE))
    joint = bell_measure(
        (x, y), (slots.x2, slots.y2), cfg.detector, root.substream(2, _PHASE_PROBE)
    )
    return correlation_degree(joint).cd_db


def _by_hand(cfg: SessionConfig, sessions: int) -> tuple:
    """(cd_db, ber, detection_rate) of `sessions` sessions from cfg.seed on,
    averaged the plain way."""
    transcripts = [run_session(replace(cfg, seed=cfg.seed + k)) for k in range(sessions)]
    cds = [t.cd.measured_plus_db for t in transcripts if t.cd is not None]
    bers = [compare_keys(t.sent_bits, t.decoded_bits).ber for t in transcripts]
    bers = [ber for ber in bers if ber is not None]
    detected = [t.verdict.status is VerdictStatus.EVE_SUSPECTED for t in transcripts]
    return (
        sum(cds) / len(cds) if cds else math.nan,
        sum(bers) / len(bers) if bers else None,
        sum(detected) / len(detected),
    )


def _same_results(point: SweepPoint, expected: tuple) -> None:
    cd_db, ber, detection_rate = expected
    assert point.cd_db == cd_db or math.isnan(point.cd_db) and math.isnan(cd_db)
    assert (point.ber, point.detection_rate) == (ber, detection_rate)


@pytest.mark.parametrize(
    "seed, eta, noise_var, shape",
    itertools.product(
        (0, 17, 2**64 - 1), (1.0, 0.7, 0.2), (0.0, None), ((1, 17), (3, 19), (4, 56))
    ),
)
def test_cd_probe_draws_what_the_scalar_streams_drew(seed, eta, noise_var, shape):
    detector = DetectorConfig() if noise_var is None else DetectorConfig(noise_var)
    cfg = replace(BASE, seed=seed, r=0.2, eta_out=eta, detector=detector,
                  frames=shape[0], slots_per_frame=shape[1])
    assert _cd_probe(cfg) == _scalar_probe(cfg)


def test_sweep_equals_sessions_run_by_hand_on_a_tau_grid():
    cfg = replace(BASE, attack=Tap(tau=0.5))
    points = sweep(cfg, "tau", [0.0, 0.4], sessions_per_point=3)
    assert len(points) == 2
    for i, (point, tau) in enumerate(zip(points, (0.0, 0.4))):
        point_cfg = replace(cfg, attack=Tap(tau=tau), seed=cfg.seed + 7919 * (i + 1))
        assert (point.value, point.config, point.probe) == (tau, point_cfg, False)
        _same_results(point, _by_hand(point_cfg, 3))
    # The tap costs correlation, and the verdict sees it.
    assert points[1].cd_db < points[0].cd_db - 1.0
    assert points[1].detection_rate > points[0].detection_rate


@pytest.mark.parametrize("attack", [None, Tap(tau=0.2)], ids=["honest", "tap"])
def test_sweep_equals_sessions_run_by_hand_on_an_r_grid_across_the_threshold(attack):
    cfg = BASE if attack is None else replace(BASE, attack=attack)
    values = [0.15, HIDING_THRESHOLD_R, 0.45]
    points = sweep(cfg, "r", values, sessions_per_point=2)
    assert [p.probe for p in points] == [True, True, False]
    for i, (point, r) in enumerate(zip(points, values)):
        point_cfg = replace(cfg, r=r, seed=cfg.seed + 7919 * (i + 1))
        assert (point.value, point.config) == (r, point_cfg)
        if point.probe:
            # The probe runs no attack, so an attacked point has no cd_db.
            cd_db = _scalar_probe(point_cfg) if attack is None else None
            assert (point.cd_db, point.ber, point.detection_rate) == (cd_db, None, None)
        else:
            _same_results(point, _by_hand(point_cfg, 2))


def test_sweep_marks_what_no_session_measured():
    # Every frame blocked: no session sends a frame or compares a bit, and
    # each aborts for want of key bits with an honest verdict.
    cfg = replace(BASE, block_prob=1.0)
    (point,) = sweep(cfg, "margin", [0.4], sessions_per_point=2)
    assert math.isnan(point.cd_db)
    assert point.ber is None
    assert point.detection_rate == 0.0


def _no_session(cfg):
    raise AssertionError("a session ran")


@pytest.mark.parametrize(
    "param, values, sessions, seed, named",
    [
        ("tau", [0.1], 0, 41, "--sessions-per-point must lie in [1, 7919], got 0"),
        ("tau", [0.1], 7920, 41, "--sessions-per-point must lie in [1, 7919], got 7920"),
        ("bogus", [0.1], 1, 41, "unknown sweep parameter 'bogus'; expected one of r, "),
        # A bad point after a probe point and a session point.
        ("r", [0.1, 0.4, 200.0], 1, 41, "grid point r=200: r: correlation"),
        ("tau", [0.0, 1.5], 1, 41, "grid point tau=1.5: tap fraction"),
        ("sigma_m", [0.0], 1, 41, "grid point sigma_m=0: measurement"),
        # Two points of four sessions: the last runs at seed + 2*7919 + 3.
        ("r", [0.1, 0.4], 4, 2**64 - 2 * 7919 - 3, f"would run at seed {2**64}, outside"),
    ],
)
def test_sweep_refuses_before_any_session(monkeypatch, param, values, sessions, seed,
                                          named):
    monkeypatch.setattr("qcsim.session.run_session", _no_session)
    monkeypatch.setattr("qcsim.session._cd_probe", _no_session)
    with pytest.raises(ConfigError) as refused:
        sweep(replace(BASE, seed=seed), param, values, sessions)
    assert named in str(refused.value)


def test_sweep_runs_up_to_the_last_seed_below_two_to_the_64():
    seed = 2**64 - 2 * 7919 - 4
    points = sweep(replace(BASE, seed=seed), "r", [0.1, 0.4], sessions_per_point=4)
    assert points[-1].config.seed + 3 == 2**64 - 1

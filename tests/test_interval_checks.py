"""The bounded scalars of the public stages (r, the transmissions, the
block probability and the tap fraction) and their counts (slots and
frames): what each stage refuses, with which exception and text."""

import math

import numpy as np
import pytest

from qcsim.adversary import InterceptResend, InterceptResendEve, Tap, tap
from qcsim.detection import DetectorConfig, SpectrumSettings, spectrum
from qcsim.errors import ConfigError, DomainError
from qcsim.quadrature import (
    RngStream,
    apply_loss,
    expected_sum_variance,
    hiding_window,
    sample_slots,
    slot_from_normals,
)
from qcsim.session import SessionConfig
from qcsim.verification import Thresholds, schedule_blocks

RNG = RngStream(1)
BEAM = np.ones(4)
NAN, INF = math.nan, math.inf
R_RANGE = "correlation parameter must lie in [0, 100], got "
ETA_RANGE = "transmission efficiency must lie in [0, 1], got "
TAU_RANGE = "tap fraction must lie in [0, 1], got "
BLOCK_RANGE = "block probability must lie in [0, 1], got "
SLOTS = "slot count must be an integer in [0, 2**64), got "
FRAMES = "frame count must be an integer in [0, 2**64), got "


def _session(**kwargs):
    return SessionConfig(key_bits="1", seed=1, **kwargs)


def _case(call, error, message):
    """One refused call, named by its source text."""
    call_id = call.replace(" ", "")
    return pytest.param(eval(f"lambda: {call}"), error, message, id=call_id)


#: Each refusal the stages made before they shared one interval rule,
#: with the exception and text they raised then.
KEPT = [
    _case("hiding_window(-0.1)", DomainError, R_RANGE + "-0.1"),
    _case("hiding_window(100.5)", DomainError, R_RANGE + "100.5"),
    _case("hiding_window(NAN)", DomainError, R_RANGE + "nan"),
    _case("hiding_window(INF)", DomainError, R_RANGE + "inf"),
    _case("hiding_window(-INF)", DomainError, R_RANGE + "-inf"),
    _case("slot_from_normals(-1, 0.0, 0.0)", DomainError, R_RANGE + "-1.0"),
    _case("apply_loss(BEAM, BEAM, -0.1, RNG)", DomainError, ETA_RANGE + "-0.1"),
    _case("apply_loss(BEAM, BEAM, 1.5, RNG)", DomainError, ETA_RANGE + "1.5"),
    _case("apply_loss(BEAM, BEAM, NAN, RNG)", DomainError, ETA_RANGE + "nan"),
    _case("apply_loss(BEAM, BEAM, INF, RNG)", DomainError, ETA_RANGE + "inf"),
    _case("expected_sum_variance(0.5, 1.5)", DomainError, ETA_RANGE + "1.5"),
    _case("expected_sum_variance(0.5, NAN)", DomainError, ETA_RANGE + "nan"),
    _case("expected_sum_variance(-1, 1.0)", DomainError, R_RANGE + "-1.0"),
    _case(
        "expected_sum_variance(0.5, 0.5, -1.0)",
        DomainError,
        "electronic noise variance must be finite and >= 0",
    ),
    _case("schedule_blocks(5, -0.1, RNG)", DomainError, BLOCK_RANGE + "-0.1"),
    _case("schedule_blocks(5, 1.5, RNG)", DomainError, BLOCK_RANGE + "1.5"),
    _case("schedule_blocks(5, NAN, RNG)", DomainError, BLOCK_RANGE + "nan"),
    _case("schedule_blocks(5, INF, RNG)", DomainError, BLOCK_RANGE + "inf"),
    _case("sample_slots(0.5, RNG, 0)", DomainError, "slot count must be >= 1, got 0"),
    _case("sample_slots(0.5, RNG, -1)", DomainError, "slot count must be >= 1, got -1"),
    _case(
        "sample_slots(0.5, RNG, (2, 0))", DomainError, "slot count must be >= 1, got (2, 0)"
    ),
    _case("sample_slots(0.5, RNG, 0.5)", DomainError, "slot count must be >= 1, got 0.5"),
    _case(
        "sample_slots(0.5, RNG, False)", DomainError, "slot count must be >= 1, got False"
    ),
    _case("sample_slots(-1, RNG, 3)", DomainError, R_RANGE + "-1.0"),
    _case("tap(BEAM, BEAM, -0.1, RNG)", DomainError, TAU_RANGE + "-0.1"),
    _case("tap(BEAM, BEAM, 1.5, RNG)", DomainError, TAU_RANGE + "1.5"),
    _case("tap(BEAM, BEAM, NAN, RNG)", DomainError, TAU_RANGE + "nan"),
    _case("tap(BEAM, BEAM, INF, RNG)", DomainError, TAU_RANGE + "inf"),
    _case("Tap(tau=-0.1)", DomainError, TAU_RANGE + "-0.1"),
    _case("Tap(tau=1.5)", DomainError, TAU_RANGE + "1.5"),
    _case("Tap(tau=NAN)", DomainError, "tau must be finite, got nan"),
    _case("Tap(tau=True)", DomainError, "tau must be a real number, got True"),
    _case("InterceptResend(fake_r=-1.0)", DomainError, R_RANGE + "-1.0"),
    _case("InterceptResend(fake_r=101.0)", DomainError, R_RANGE + "101.0"),
    _case("InterceptResendEve(-1.0, 1.0, 0.5, RNG)", DomainError, R_RANGE + "-1.0"),
    _case("_session(eta_out=1.5)", ConfigError, "eta_out must lie in [0, 1], got 1.5"),
    _case("_session(eta_back=-0.1)", ConfigError, "eta_back must lie in [0, 1], got -0.1"),
    _case("_session(block_prob=2.0)", ConfigError, "block_prob must lie in [0, 1], got 2.0"),
    _case("_session(eta_out=NAN)", ConfigError, "eta_out must be finite, got nan"),
    _case("_session(r=-1.0)", ConfigError, "r: " + R_RANGE + "-1.0"),
    _case("_session(r=101.0)", ConfigError, "r: " + R_RANGE + "101.0"),
    _case("Thresholds().resolve(-1.0)", DomainError, R_RANGE + "-1.0"),
    _case("Thresholds().resolve(NAN)", DomainError, R_RANGE + "nan"),
    _case(
        "spectrum(-1.0, SpectrumSettings(), DetectorConfig(), RNG)",
        DomainError,
        R_RANGE + "-1.0",
    ),
]

#: Values the stages used to misread: a bool as 0 or 1, a string as the
#: number it spells, a float count cut to an integer.
ADDED = [
    _case("hiding_window(True)", DomainError, R_RANGE + "True"),
    _case("hiding_window(np.bool_(True))", DomainError, R_RANGE + "np.True_"),
    _case("hiding_window('0.5')", DomainError, R_RANGE + "'0.5'"),
    _case("hiding_window(None)", DomainError, R_RANGE + "None"),
    _case("expected_sum_variance(True)", DomainError, R_RANGE + "True"),
    _case("expected_sum_variance(0.5, True)", DomainError, ETA_RANGE + "True"),
    _case("Thresholds().resolve(True)", DomainError, R_RANGE + "True"),
    _case("apply_loss(BEAM, BEAM, True, RNG)", DomainError, ETA_RANGE + "True"),
    _case("apply_loss(BEAM, BEAM, np.bool_(True), RNG)", DomainError, ETA_RANGE + "np.True_"),
    _case("apply_loss(BEAM, BEAM, '0.5', RNG)", DomainError, ETA_RANGE + "'0.5'"),
    _case("tap(BEAM, BEAM, True, RNG)", DomainError, TAU_RANGE + "True"),
    _case("tap(BEAM, BEAM, np.bool_(False), RNG)", DomainError, TAU_RANGE + "np.False_"),
    _case("tap(BEAM, BEAM, '0.5', RNG)", DomainError, TAU_RANGE + "'0.5'"),
    _case("schedule_blocks(5, True, RNG)", DomainError, BLOCK_RANGE + "True"),
    _case("schedule_blocks(3.7, 0.5, RNG)", DomainError, FRAMES + "3.7"),
    _case("schedule_blocks(True, 0.5, RNG)", DomainError, FRAMES + "True"),
    _case("schedule_blocks('3', 0.5, RNG)", DomainError, FRAMES + "'3'"),
    _case("schedule_blocks(-1, 0.5, RNG)", DomainError, FRAMES + "-1"),
    _case("sample_slots(0.5, RNG, 2.5)", DomainError, SLOTS + "2.5"),
    _case("sample_slots(0.5, RNG, True)", DomainError, SLOTS + "True"),
    _case("sample_slots(0.5, RNG, (2, 2.5))", DomainError, SLOTS + "2.5"),
    _case("sample_slots(0.5, RNG, (2, True))", DomainError, SLOTS + "True"),
    _case("sample_slots(0.5, RNG, '3')", DomainError, SLOTS + "'3'"),
    _case("sample_slots(0.5, RNG, 2**64)", DomainError, SLOTS + str(2**64)),
]


@pytest.mark.parametrize("call, error, message", KEPT + ADDED)
def test_each_stage_refuses_with_its_exception_and_text(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_integer_counts_of_numpy_and_list_kinds_are_accepted():
    assert schedule_blocks(np.int64(3), 0.5, RNG).size == 3
    assert schedule_blocks(0, 0.5, RNG).size == 0
    for n in (np.int64(3), [3], (3,), np.array([3])):
        assert sample_slots(0.5, RNG, n).x1.shape == (3,)
    assert sample_slots(0.5, RNG, (2, np.int64(3))).x1.shape == (2, 3)

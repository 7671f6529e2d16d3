"""The attack specs seen from outside the adversary module: config parsing,
report serialisation and sweep parameters."""

from dataclasses import replace

import pytest

from qcsim.adversary import InterceptResend, NoAttack, Qnd, Tap
from qcsim.config import load_config
from qcsim.quadrature import Quadrature
from qcsim.report import record_to_dict as attack_to_dict
from qcsim.session import SessionConfig, _point_config

SESSION = "[session]\nr = 0.4375\nkey_bits = 1\nseed = 1\n"

# Every option of every kind; only those of the chosen kind apply.
ALL_OPTIONS = (
    "tau = 0.3\nfake_r = 0.25\nmeasured_quadrature = y\nmeasurement_var = 0.5\n"
)


@pytest.mark.parametrize(
    "section, expected",
    [
        ("", NoAttack()),
        ("[attack]\nkind = none\n", NoAttack()),
        ("[attack]\nkind = none\n" + ALL_OPTIONS, NoAttack()),
        ("[attack]\nkind = tap\n", Tap(tau=0.1)),
        ("[attack]\nkind = TAP\ntau = 0.3\n", Tap(tau=0.3)),
        ("[attack]\nkind = tap\n" + ALL_OPTIONS, Tap(tau=0.3)),
        ("[attack]\nkind = intercept_resend\n", InterceptResend(fake_r=1.0)),
        ("[attack]\nkind = intercept_resend\n" + ALL_OPTIONS, InterceptResend(fake_r=0.25)),
        ("[attack]\nkind = qnd\n", Qnd(Quadrature.X, 1.0)),
        ("[attack]\nkind = qnd\nmeasurement_var = 2\n", Qnd(Quadrature.X, 2.0)),
        ("[attack]\nkind = qnd\n" + ALL_OPTIONS, Qnd(Quadrature.Y, 0.5)),
    ],
)
def test_load_config_attack_section(tmp_path, section, expected):
    path = tmp_path / "attack.ini"
    path.write_text(SESSION + section)
    cfg, _ = load_config(path)
    assert type(cfg.attack) is type(expected)
    assert cfg.attack == expected


@pytest.mark.parametrize(
    "attack, expected",
    [
        (NoAttack(), {"kind": "none"}),
        (Tap(tau=1.0 / 3.0), {"kind": "tap", "tau": 0.3333333333}),
        (InterceptResend(fake_r=1.0), {"kind": "intercept_resend", "fake_r": 1.0}),
        (
            Qnd(Quadrature.Y, 0.5),
            {"kind": "qnd", "measured_quadrature": "y", "measurement_var": 0.5},
        ),
    ],
)
def test_attack_to_dict(attack, expected):
    assert attack_to_dict(attack) == expected


@pytest.mark.parametrize(
    "base, probed",
    [
        (NoAttack(), Quadrature.X),
        (Tap(tau=0.4), Quadrature.X),
        (InterceptResend(fake_r=2.0), Quadrature.X),
        (Qnd(Quadrature.Y, 3.0), Quadrature.Y),
    ],
)
def test_attack_sweep_params(base, probed):
    cfg = SessionConfig(r=0.4375, key_bits="1", seed=1, frames=9, attack=base)
    cases = {
        "tau": (0.2, Tap(tau=0.2)),
        "fake_r": (0.5, InterceptResend(fake_r=0.5)),
        # A probe sweep keeps the probed quadrature of a probe base config.
        "sigma_m": (0.7, Qnd(probed, 0.7)),
    }
    for name, (value, expected) in cases.items():
        swept, _ = _point_config(cfg, name, value)
        assert type(swept.attack) is type(expected)
        assert swept.attack == expected
        assert replace(swept, attack=base) == cfg

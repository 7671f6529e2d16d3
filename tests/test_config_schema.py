"""The config schema pinned from outside: every key of every section, the
domain it accepts and its default, through `load_config` and the report's
config echo."""

import configparser
import math
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcsim.config import load_config
from qcsim.detection import (
    DEFAULT_ELECTRONIC_NOISE_VAR,
    DetectorConfig,
    SpectrumSettings,
)
from qcsim.quadrature import Quadrature
from qcsim.session import SessionConfig
from qcsim.verification import Thresholds
from qcsim.adversary import ATTACKS
from qcsim.errors import ConfigError
from qcsim.report import config_to_dict

REQUIRED = object()

UNIT = st.floats(0.0, 1.0)
# The largest magnitude whose 10-significant-digit echo in report.json is
# finite; the parser rejects larger ones, as
# test_load_config_rejects_float_whose_echo_overflows checks.
ECHO_MAX = 1.797693134e308
FINITE = st.floats(-ECHO_MAX, ECHO_MAX)
POSITIVE = st.floats(0.0, ECHO_MAX, exclude_min=True)
QUADRATURES = st.sampled_from(Quadrature)

# section -> key -> (values the parser must accept, default when blank).
SCHEMA = {
    "session": {
        "r": (st.floats(0.0, 10.0), 0.4375),
        "key_bits": (st.text("01", min_size=1, max_size=12), REQUIRED),
        "seed": (st.integers(0, 2**64 - 1), REQUIRED),
        "frames": (st.integers(1, 10**6), 6),
        "slots_per_frame": (st.integers(2, 10**6), 64),
        "margin": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), 0.5),
        "eta_out": (UNIT, 1.0),
        "eta_back": (UNIT, 1.0),
        "block_prob": (UNIT, 0.0),
    },
    "detector": {
        "electronic_noise_var": (st.floats(0.0, 1e6), DEFAULT_ELECTRONIC_NOISE_VAR),
    },
    "thresholds": {
        "pearson": (st.none() | FINITE, None),
        "rms_ratio": (st.none() | FINITE, None),
        "cd_margin_db": (POSITIVE, 0.5),
    },
    # Each key's domain keeps every mix with the other keys' defaults a
    # valid span: low <= 1 MHz < 3 MHz <= high, a resolution bandwidth
    # within the narrowest such span and a signal inside it.
    "spectrum": {
        "span_low_hz": (st.floats(-1e9, 1.0e6), 1.0e6),
        "span_high_hz": (st.floats(3.0e6, 1e9), 3.0e6),
        "rbw_hz": (st.floats(0.0, 2.0e6, exclude_min=True), 30.0e3),
        "averages": (st.integers(1, 10**9), 100),
        "signal_freq_hz": (st.floats(1.0e6, 3.0e6), 2.0e6),
    },
}

# [attack]: kind -> key -> (values, default); a blank kind is "none".
ATTACK_SCHEMA = {
    "none": {},
    "tap": {"tau": (UNIT, 0.1)},
    "intercept_resend": {"fake_r": (st.floats(0.0, 100.0), 1.0)},
    "qnd": {
        "measured_quadrature": (QUADRATURES, Quadrature.X),
        # Accepted only where the back-action 1/measurement_var is finite.
        "measurement_var": (
            st.floats(0.0, 1e6, exclude_min=True).filter(lambda v: 1.0 / v < math.inf),
            1.0,
        ),
    },
}

SECTION_CLASSES = {
    "session": SessionConfig,
    "detector": DetectorConfig,
    "thresholds": Thresholds,
    "spectrum": SpectrumSettings,
}

BASE = {"key_bits": "1", "seed": 1}


def _ini_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Quadrature):
        return value.value
    if isinstance(value, str):
        return value
    return repr(value)


def _ini(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_ini_value(v)}" for key, v in values.items())
    return "\n".join(lines) + "\n"


def _defaults(schema: dict) -> dict:
    return {k: d for k, (_, d) in schema.items() if d is not REQUIRED}


def _expected(sections: dict, kind: str):
    """The dataclasses a config with these key values must load as."""
    def full(name):
        return {**_defaults(SCHEMA[name]), **sections.get(name, {})}

    attack = {k: v for k, v in sections.get("attack", {}).items() if k != "kind"}
    attack_cls = ATTACKS[kind]
    cfg = SessionConfig(
        **full("session"),
        detector=DetectorConfig(**full("detector")),
        attack=attack_cls(**{**_defaults(ATTACK_SCHEMA[kind]), **attack}),
        thresholds=Thresholds(**full("thresholds")),
    )
    return cfg, SpectrumSettings(**full("spectrum"))


def _section_values(schema: dict):
    """Each key of `schema` drawn from its domain; optional keys may be absent."""
    required = {k: s for k, (s, d) in schema.items() if d is REQUIRED}
    optional = {k: s for k, (s, d) in schema.items() if d is not REQUIRED}
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def configs(draw):
    sections = {name: draw(_section_values(schema)) for name, schema in SCHEMA.items()}
    kind = draw(st.sampled_from(sorted(ATTACK_SCHEMA)))
    spelled = draw(st.sampled_from([kind, kind.upper()]))
    sections["attack"] = {"kind": spelled, **draw(_section_values(ATTACK_SCHEMA[kind]))}
    return sections, kind


def _field_keys(cls) -> set[str]:
    # Fields holding a nested section are not keys of this one.
    return {f.name for f in fields(cls) if not is_dataclass(f.default)}


def test_schema_lists_every_dataclass_field():
    for name, cls in SECTION_CLASSES.items():
        assert set(SCHEMA[name]) == _field_keys(cls), name
    for kind, cls in ATTACKS.items():
        assert set(ATTACK_SCHEMA[kind]) == _field_keys(cls), kind


def test_pinned_defaults_are_the_dataclass_defaults():
    classes = [(SCHEMA[n], c) for n, c in SECTION_CLASSES.items()]
    classes += [(ATTACK_SCHEMA[k], c) for k, c in ATTACKS.items()]
    for schema, cls in classes:
        for f in fields(cls):
            if f.default is not MISSING and not is_dataclass(f.default):
                assert f.default == schema[f.name][1], (cls.__name__, f.name)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(configs())
def test_load_config_round_trips_every_key(tmp_path, drawn):
    sections, kind = drawn
    path = tmp_path / "drawn.ini"
    path.write_text(_ini(sections))
    assert load_config(path) == _expected(sections, kind)


BLANK_CASES = [
    (name, key, "none")
    for name, schema in SCHEMA.items()
    for key, (_, default) in schema.items()
    if default is not REQUIRED
] + [("attack", "kind", "none")] + [
    ("attack", key, kind) for kind, schema in ATTACK_SCHEMA.items() for key in schema
]


@pytest.mark.parametrize("section, key, kind", BLANK_CASES)
def test_blank_value_gives_the_default(tmp_path, section, key, kind):
    sections = {"session": dict(BASE), "attack": {"kind": kind}}
    sections[section] = {**sections.get(section, {}), key: None}
    path = tmp_path / "blank.ini"
    path.write_text(_ini(sections))
    assert load_config(path) == _expected({"session": BASE}, kind)


@pytest.mark.parametrize("margin", ["0", "-1"])
def test_load_config_rejects_non_positive_cd_margin(tmp_path, margin):
    path = tmp_path / "margin.ini"
    path.write_text(_ini({"session": BASE, "thresholds": {"cd_margin_db": margin}}))
    with pytest.raises(ConfigError, match=r"^\[thresholds\] cd margin must be > 0 dB"):
        load_config(path)


@pytest.mark.parametrize("seed", [-(2**64), -1, 2**64, 2**64 + 5])
def test_load_config_rejects_seed_outside_64_bits(tmp_path, seed):
    # The random streams key on 64 bits, so such a seed would alias one inside.
    path = tmp_path / "seed.ini"
    path.write_text(_ini({"session": {**BASE, "seed": seed}}))
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*64\)"):
        load_config(path)


@pytest.mark.parametrize(
    "key, raw",
    [
        ("pearson", "1.7976931345e+308"),
        ("rms_ratio", "-1.7976931348623157e308"),
        ("cd_margin_db", "1.7976931348623157e308"),
    ],
)
def test_load_config_rejects_float_whose_echo_overflows(tmp_path, key, raw):
    # Rounded to 10 digits for report.json, these finite values become inf.
    path = tmp_path / "echo.ini"
    path.write_text(_ini({"session": BASE, "thresholds": {key: raw}}))
    with pytest.raises(
        ConfigError,
        match=rf"\[thresholds\] {key}: {re.escape(repr(raw))} is too large to echo "
        r"in report\.json at 10 significant digits",
    ):
        load_config(path)


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["pearson", "rms_ratio", "cd_margin_db"])
def test_load_config_rejects_float_that_is_not_finite(tmp_path, key, raw):
    path = tmp_path / "nonfinite.ini"
    path.write_text(_ini({"session": BASE, "thresholds": {key: raw}}))
    with pytest.raises(
        ConfigError, match=rf"\[thresholds\] {key}: must be finite, got '{raw}'"
    ):
        load_config(path)


def test_required_keys_have_no_default(tmp_path):
    for key in BASE:
        path = tmp_path / "required.ini"
        path.write_text(_ini({"session": {**BASE, key: None}}))
        with pytest.raises(ConfigError, match=key):
            load_config(path)


FULL_CONFIG = """\
[session]
r = 0.5
key_bits = 0110
seed = 42
frames = 9
slots_per_frame = 33
margin = 0.25
eta_out = 0.9
eta_back = 0.8
block_prob = 0.125
[detector]
electronic_noise_var = 0.1
[attack]
kind = qnd
tau = 0.3
fake_r = 2.0
measured_quadrature = y
measurement_var = 0.3333333333333333
[thresholds]
pearson = -0.3
rms_ratio = 0.7
cd_margin_db = 1
[spectrum]
span_low_hz = 1.5e6
span_high_hz = 2.5e6
rbw_hz = 10e3
averages = 7
signal_freq_hz = 2.25e6
"""


def test_config_to_dict_of_a_config_setting_every_key(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(FULL_CONFIG)
    cfg, _ = load_config(path)
    assert config_to_dict(cfg) == {
        "r": 0.5,
        "key_bits": "0110",
        "seed": 42,
        "frames": 9,
        "slots_per_frame": 33,
        "margin": 0.25,
        "eta_out": 0.9,
        "eta_back": 0.8,
        "block_prob": 0.125,
        "detector": {"electronic_noise_var": 0.1},
        "attack": {
            "kind": "qnd",
            "measured_quadrature": "y",
            "measurement_var": 0.3333333333,
        },
        "thresholds": {"pearson": -0.3, "rms_ratio": 0.7, "cd_margin_db": 1.0},
    }


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_loads_and_lists_every_key(tmp_path):
    readme = README.read_text()
    match = re.search(r"## Configuration\n.*?```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.ini"
    path.write_text(match.group(1))
    load_config(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    accepted = {name: set(schema) for name, schema in SCHEMA.items()}
    accepted["attack"] = {"kind"}.union(*ATTACK_SCHEMA.values())
    assert {name: set(parser[name]) for name in parser.sections()} == accepted

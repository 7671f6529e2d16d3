"""Session configuration files: flat INI-style sections mirroring the
session parameters.  Every field has a default except key_bits and seed."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .adversary import ATTACKS
from .detection import DEFAULT_ELECTRONIC_NOISE_VAR, DetectorConfig
from .errors import ConfigError, DomainError
from .quadrature import Quadrature
from .session import SessionConfig
from .verification import Thresholds

_KNOWN_KEYS = {
    "session": {
        "r",
        "key_bits",
        "seed",
        "frames",
        "slots_per_frame",
        "margin",
        "eta_out",
        "eta_back",
        "block_prob",
    },
    "detector": {"electronic_noise_var"},
    "attack": {"kind"} | {f.name for cls in ATTACKS.values() for f in fields(cls)},
    "thresholds": {"pearson", "rms_ratio", "cd_margin_db"},
    "spectrum": {
        "span_low_hz",
        "span_high_hz",
        "rbw_hz",
        "averages",
        "signal_freq_hz",
        "signal_quadrature",
    },
}


@dataclass(frozen=True)
class SpectrumSettings:
    span_low_hz: float = 1.0e6
    span_high_hz: float = 3.0e6
    rbw_hz: float = 30.0e3
    averages: int = 100
    signal_freq_hz: float = 2.0e6
    signal_quadrature: Quadrature = Quadrature.X


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected an integer, got {raw!r}"
        ) from None


def _parse_quadrature(section: str, key: str, raw: str) -> Quadrature:
    name = raw.strip().lower()
    if name not in ("x", "y"):
        raise ConfigError(f"[{section}] {key}: expected 'x' or 'y', got {raw!r}")
    return Quadrature.X if name == "x" else Quadrature.Y


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.values = dict(parser[name]) if parser.has_section(name) else {}

    def take_float(self, key: str, default: float) -> float:
        raw = self.values.pop(key, None)
        if raw is None or raw.strip() == "":
            return default
        return _parse_float(self.name, key, raw)

    def take_optional_float(self, key: str) -> float | None:
        raw = self.values.pop(key, None)
        if raw is None or raw.strip() == "":
            return None
        return _parse_float(self.name, key, raw)

    def take_int(self, key: str, default: int | None) -> int | None:
        raw = self.values.pop(key, None)
        if raw is None or raw.strip() == "":
            return default
        return _parse_int(self.name, key, raw)

    def take_str(self, key: str, default: str | None) -> str | None:
        raw = self.values.pop(key, None)
        if raw is None or raw.strip() == "":
            return default
        return raw.strip()

    def take_quadrature(self, key: str, default: Quadrature) -> Quadrature:
        raw = self.values.pop(key, None)
        if raw is None or raw.strip() == "":
            return default
        return _parse_quadrature(self.name, key, raw)


def load_config(
    path: str | Path, seed_override: int | None = None
) -> tuple[SessionConfig, SpectrumSettings]:
    """Parse a config file into a session configuration and spectrum settings.

    `seed_override` takes precedence over any seed in the file; one of the
    two must supply a seed.
    """
    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(
                f"[{section}] unknown option(s): {', '.join(sorted(unknown))}"
            )

    sess = _Section(parser, "session")
    det = _Section(parser, "detector")
    att = _Section(parser, "attack")
    thr = _Section(parser, "thresholds")
    spec = _Section(parser, "spectrum")

    key_bits = sess.take_str("key_bits", None)
    if key_bits is None:
        raise ConfigError("[session] key_bits is required")
    seed = seed_override if seed_override is not None else sess.take_int("seed", None)
    if seed is None:
        raise ConfigError("[session] seed is required (or pass --seed)")

    kind = (att.take_str("kind", "none") or "none").lower()
    if kind not in ATTACKS:
        raise ConfigError(
            f"[attack] kind: expected one of {', '.join(ATTACKS)}, got {kind!r}"
        )
    # Only the chosen kind's options apply; every one has a default.
    options = {}
    for f in fields(ATTACKS[kind]):
        is_quadrature = isinstance(f.default, Quadrature)
        take = att.take_quadrature if is_quadrature else att.take_float
        options[f.name] = take(f.name, f.default)
    try:
        attack = ATTACKS[kind](**options)
    except DomainError as exc:
        raise ConfigError(f"[attack] {exc}") from None

    try:
        detector = DetectorConfig(
            electronic_noise_var=det.take_float(
                "electronic_noise_var", DEFAULT_ELECTRONIC_NOISE_VAR
            )
        )
    except DomainError as exc:
        raise ConfigError(f"[detector] electronic_noise_var: {exc}") from None

    thresholds = Thresholds(
        pearson=thr.take_optional_float("pearson"),
        rms_ratio=thr.take_optional_float("rms_ratio"),
        cd_margin_db=thr.take_float("cd_margin_db", 0.5),
    )

    cfg = SessionConfig(
        r=sess.take_float("r", 0.4375),
        key_bits=key_bits,
        seed=seed,
        frames=sess.take_int("frames", 6),
        slots_per_frame=sess.take_int("slots_per_frame", 64),
        margin=sess.take_float("margin", 0.5),
        eta_out=sess.take_float("eta_out", 1.0),
        eta_back=sess.take_float("eta_back", 1.0),
        block_prob=sess.take_float("block_prob", 0.0),
        detector=detector,
        attack=attack,
        thresholds=thresholds,
    )
    cfg.validate()

    spectrum = SpectrumSettings(
        span_low_hz=spec.take_float("span_low_hz", 1.0e6),
        span_high_hz=spec.take_float("span_high_hz", 3.0e6),
        rbw_hz=spec.take_float("rbw_hz", 30.0e3),
        averages=spec.take_int("averages", 100),
        signal_freq_hz=spec.take_float("signal_freq_hz", 2.0e6),
        signal_quadrature=spec.take_quadrature("signal_quadrature", Quadrature.X),
    )
    return cfg, spectrum

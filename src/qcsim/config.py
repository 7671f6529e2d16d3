"""Session configuration files: flat INI-style sections mirroring the
session parameters.

Each section fills one dataclass, and that dataclass is the schema: its
scalar fields are the section's keys, their annotations pick the parser
and their defaults apply to blank or absent keys.  `[attack]` fills the
spec class its `kind` names in `ATTACKS`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .adversary import ATTACKS, NoAttack
from .detection import DetectorConfig
from .errors import ConfigError, DomainError
from .quadrature import Quadrature
from .session import SessionConfig
from .verification import Thresholds


@dataclass(frozen=True)
class SpectrumSettings:
    span_low_hz: float = 1.0e6
    span_high_hz: float = 3.0e6
    rbw_hz: float = 30.0e3
    averages: int = 100
    signal_freq_hz: float = 2.0e6
    signal_quadrature: Quadrature = Quadrature.X

    def __post_init__(self):
        lo, hi = self.span_low_hz, self.span_high_hz
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(
                f"span must be a non-empty finite interval, got ({lo!r}, {hi!r})"
            )
        if not (math.isfinite(self.rbw_hz) and 0.0 < self.rbw_hz <= hi - lo):
            raise DomainError(
                f"rbw_hz must lie in (0, span], got {self.rbw_hz!r} "
                f"for a span of {hi - lo:g} Hz"
            )
        if self.averages < 1:
            raise DomainError(f"averages must be >= 1, got {self.averages!r}")
        if not lo <= self.signal_freq_hz <= hi:
            raise DomainError(
                f"signal_freq_hz {self.signal_freq_hz!r} lies outside the span "
                f"({lo:g}, {hi:g}) Hz"
            )


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
    try:
        return Quadrature(raw.strip().lower())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected 'x' or 'y', got {raw!r}"
        ) from None


#: Value parser per field annotation; fields of other types are not keys.
_PARSERS = {
    "float": _parse_float,
    "float | None": _parse_float,
    "int": _parse_int,
    "str": lambda section, key, raw: raw.strip(),
    "Quadrature": _parse_quadrature,
}


def _keys(cls) -> set[str]:
    return {f.name for f in fields(cls) if f.type in _PARSERS}


#: Keys each section accepts.  `[attack]` accepts every kind's keys, though
#: only those of the chosen kind are read.
_KNOWN_KEYS = {
    "session": _keys(SessionConfig),
    "detector": _keys(DetectorConfig),
    "attack": {"kind"}.union(*map(_keys, ATTACKS.values())),
    "thresholds": _keys(Thresholds),
    "spectrum": _keys(SpectrumSettings),
}


def _values(section: str, raw: dict[str, str], cls) -> dict:
    """Parsed values of the keys of `cls` set in `raw`; a blank or absent key
    is left out, so its field keeps the dataclass default."""
    values = {}
    for f in fields(cls):
        text = raw.get(f.name)
        if f.type in _PARSERS and text:
            values[f.name] = _PARSERS[f.type](section, f.name, text)
    return values


def _section(name: str, raw: dict[str, str], cls):
    values = _values(name, raw, cls)
    try:
        return cls(**values)
    except DomainError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


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
    raw = {name: dict(parser[name]) if parser.has_section(name) else {}
           for name in _KNOWN_KEYS}
    if seed_override is not None:
        raw["session"]["seed"] = str(seed_override)

    session = _values("session", raw["session"], SessionConfig)
    for f in fields(SessionConfig):
        if f.default is MISSING and f.name not in session:
            hint = " (or pass --seed)" if f.name == "seed" else ""
            raise ConfigError(f"[session] {f.name} is required{hint}")

    kind = raw["attack"].get("kind", "").lower() or NoAttack.kind
    if kind not in ATTACKS:
        raise ConfigError(
            f"[attack] kind: expected one of {', '.join(ATTACKS)}, got {kind!r}"
        )

    cfg = SessionConfig(
        **session,
        attack=_section("attack", raw["attack"], ATTACKS[kind]),
        detector=_section("detector", raw["detector"], DetectorConfig),
        thresholds=_section("thresholds", raw["thresholds"], Thresholds),
    )
    cfg.validate()
    return cfg, _section("spectrum", raw["spectrum"], SpectrumSettings)

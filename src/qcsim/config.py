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
from dataclasses import MISSING, fields
from pathlib import Path

from .adversary import ATTACKS, NoAttack
from .detection import DetectorConfig, SpectrumSettings
from .errors import ConfigError, DomainError
from .quadrature import Quadrature
from .report import fmt
from .session import SessionConfig
from .verification import Thresholds


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    if not math.isfinite(float(fmt(value))):
        raise ConfigError(
            f"[{section}] {key}: {raw!r} is too large to echo in report.json "
            f"at 10 significant digits"
        )
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
    return cfg, _section("spectrum", raw["spectrum"], SpectrumSettings)

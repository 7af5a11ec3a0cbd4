"""Experiment configuration: INI files, CLI overrides, effective dumps.

The file format is two flat sections, both optional, every key optional:

    [sir]
    population = 1000000.0
    initial_infected = 200.0
    beta = 0.2857142857142857
    gamma = 0.14285714285714285
    lambda = -0.2
    overdispersion = 500.0
    horizon = 100

    [experiment]
    thresholds = 0.05,0.1,0.15,0.2,0.25,0.3
    replicates = 100000
    seed = 42
    out = out
    conditioning = full-path
    threads = 1

Unset keys fall back to the defaults above.  Values are literal: `%` is an
ordinary character.  A command-line flag parses exactly like the
[experiment] key of its name.  `dump_config` writes floats with repr so a
dumped config reloads to exactly equal values.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .montecarlo import CONDITIONING_MODES
from .sir import SirParams

DEFAULT_THRESHOLDS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
DEFAULT_REPLICATES = 100_000
DEFAULT_SEED = 42


@dataclass(frozen=True)
class ExperimentConfig:
    sir: SirParams = field(default_factory=SirParams)
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    replicates: int = DEFAULT_REPLICATES
    seed: int = DEFAULT_SEED
    out: str = "out"
    conditioning: str = "full-path"
    threads: int = 1

    def __post_init__(self):
        if not self.thresholds:
            raise ConfigError("thresholds must be non-empty")
        if list(self.thresholds) != sorted(set(self.thresholds)):
            raise ConfigError(f"thresholds must be strictly increasing: {self.thresholds}")
        if any(not 0.0 < v < 1.0 for v in self.thresholds):
            raise ConfigError(f"thresholds must lie in (0, 1): {self.thresholds}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in an unsigned 64-bit value, got {self.seed}")
        if not self.out:
            raise ConfigError("out must name a directory, got an empty value")
        if self.conditioning not in CONDITIONING_MODES:
            raise ConfigError(
                f"conditioning must be one of {', '.join(CONDITIONING_MODES)}, "
                f"got {self.conditioning!r}"
            )
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


def parse_thresholds(text: str) -> tuple[float, ...]:
    """Parse a comma-separated threshold list like '0.05,0.1,0.3'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"no thresholds in {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {text!r}: {exc}") from exc


# INI section -> key -> (dataclass field, parser, formatter), in the order
# `dump_config` writes them.  [sir] keys are SirParams fields, [experiment]
# keys ExperimentConfig fields.
SETTINGS = {
    "sir": {
        "population": ("population", float, repr),
        "initial_infected": ("initial_infected", float, repr),
        "beta": ("beta", float, repr),
        "gamma": ("gamma", float, repr),
        "lambda": ("lam", float, repr),
        "overdispersion": ("overdispersion", float, repr),
        "horizon": ("horizon", int, str),
    },
    "experiment": {
        "thresholds": ("thresholds", parse_thresholds, lambda v: ",".join(map(repr, v))),
        "replicates": ("replicates", int, str),
        "seed": ("seed", int, str),
        "out": ("out", str, str),
        "conditioning": ("conditioning", str, str),
        "threads": ("threads", int, str),
    },
}


def parse_setting(section: str, key: str, text: str):
    """Parse one INI value, or the command-line flag of the same name."""
    try:
        return SETTINGS[section][key][1](text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc


def _ini() -> configparser.ConfigParser:
    # No interpolation, so `%` is literal.  No default section, so a
    # [DEFAULT] header is an unknown section, not keys read into no section.
    return configparser.ConfigParser(interpolation=None, default_section="")


def load_config(path: str | None = None) -> ExperimentConfig:
    """Read an INI file (or use pure defaults when path is None)."""
    values = {section: {} for section in SETTINGS}
    if path is not None:
        parser = _ini()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc

        for section in parser.sections():
            if section not in SETTINGS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, text in parser.items(section):
                if key not in SETTINGS[section]:
                    raise ConfigError(f"unknown key [{section}] {key}")
                values[section][SETTINGS[section][key][0]] = parse_setting(section, key, text)

    try:
        sir = SirParams(**values["sir"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(sir=sir, **values["experiment"])


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Layer parsed command-line values, by field name, over a loaded config.

    A value of None leaves that field unchanged.
    """
    updates = {name: value for name, value in overrides.items() if value is not None}
    return replace(config, **updates) if updates else config


def dump_config(config: ExperimentConfig) -> str:
    """Render the effective configuration as reloadable INI text."""
    parser = _ini()
    for section, keys in SETTINGS.items():
        source = config.sir if section == "sir" else config
        parser[section] = {
            key: fmt(getattr(source, name)) for key, (name, _, fmt) in keys.items()
        }
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()

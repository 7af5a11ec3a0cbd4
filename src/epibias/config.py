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
ordinary character.  Leading and trailing whitespace is stripped.  A
command-line flag parses exactly like the [experiment] key of its name.
`dump_config` writes floats with repr so a dumped config reloads to exactly
equal values.  A config is checked by the engine's own checks: it builds its
`figures34` pass, so the command line refuses exactly what the library does.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import ConfigError, checked_integer
from .montecarlo import Pass
from .policies import ThresholdRule
from .sir import SirParams
from .streams import derive_substream_seed

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
        try:  # the engine's own checks of the thresholds, counts, seed and conditioning
            checked_integer("seed", self.seed, 0)  # named as set, before a sub-seed is derived
            self.shared_pass
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if list(self.thresholds) != sorted(set(self.thresholds)):
            raise ConfigError(f"thresholds must be strictly increasing: {self.thresholds}")
        if not self.out:
            raise ConfigError("out must name a directory, got an empty value")
        for char, name in (("\0", "NUL"), ("\n", "line feed"), ("\r", "carriage return")):
            if char in self.out:  # os refuses a NUL; an INI file cannot hold a line break
                raise ConfigError(f"out must not hold a {name} character, got {self.out!r}")

    @cached_property
    def shared_pass(self) -> Pass:
        """`figures34`'s pass that scores every threshold under sub-seed 1;
        it runs nothing until its totals are read."""
        return Pass(self.sir, list(map(ThresholdRule, self.thresholds)), (0,) * self.sir.horizon,
                    self.replicates, derive_substream_seed(self.seed, 1), self.threads,
                    self.conditioning)


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
    """Parse one INI value, or the command-line flag of the same name.

    Leading and trailing whitespace is stripped first, as configparser
    strips INI values, so a flag and the INI line `print-config` writes for
    it load the same value.
    """
    text = text.strip()
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
        except configparser.Error as exc:  # on one line, where configparser writes several
            detail = "; ".join(line.strip() for line in str(exc).splitlines())
            raise ConfigError(f"cannot parse config {path}: {detail}") from exc

        for section in parser.sections():
            if section not in SETTINGS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, text in parser.items(section):
                if key not in SETTINGS[section]:
                    raise ConfigError(f"unknown key [{section}] {key}")
                values[section][SETTINGS[section][key][0]] = parse_setting(section, key, text)

    try:
        sir = SirParams(**values["sir"])
    except ValueError as exc:  # SirParams names its field; the error names the INI key
        field, _, rest = str(exc).partition(" ")
        keys = {name: key for key, (name, *_) in SETTINGS["sir"].items()}
        raise ConfigError(f"{keys.get(field, field)} {rest}") from exc
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

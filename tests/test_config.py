"""Experiment configuration: defaults, INI round-trips, validation."""

import pytest

from epibias.config import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    apply_overrides,
    dump_config,
    load_config,
    parse_thresholds,
)
from epibias.errors import ConfigError
from epibias.sir import SirParams


def test_defaults_are_full_scale():
    cfg = ExperimentConfig()
    assert cfg.sir == SirParams()
    assert cfg.thresholds == (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    assert cfg.replicates == DEFAULT_REPLICATES == 100_000
    assert cfg.seed == DEFAULT_SEED == 42
    assert cfg.conditioning == "full-path"
    assert cfg.threads == 1


def test_load_without_file_gives_defaults():
    assert load_config(None) == ExperimentConfig()


def test_ini_round_trip_is_exact(tmp_path):
    cfg = ExperimentConfig(
        sir=SirParams(beta=0.3171, lam=-0.425, horizon=37),
        thresholds=(0.01, 0.125),
        replicates=777,
        seed=3,
        out="elsewhere",
        conditioning="per-time",
        threads=4,
    )
    path = tmp_path / "exp.ini"
    path.write_text(dump_config(cfg))
    # repr-based float serialization survives the round trip bit for bit
    assert load_config(str(path)) == cfg


@pytest.mark.parametrize("out", [" a", "a ", "\ta", "a\xa0", "   "])
def test_out_with_outer_whitespace_is_refused(out):
    # An INI value is read stripped, so such an `out` would not reload as written.
    with pytest.raises(ConfigError, match="out must not begin or end with whitespace"):
        ExperimentConfig(out=out)


def test_out_with_inner_whitespace_round_trips(tmp_path):
    cfg = ExperimentConfig(out="a b\tc")
    path = tmp_path / "exp.ini"
    path.write_text(dump_config(cfg))
    assert load_config(str(path)) == cfg


def test_partial_file_keeps_other_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[experiment]\nreplicates = 5\n")
    cfg = load_config(str(path))
    assert cfg.replicates == 5
    assert cfg.sir == SirParams()
    assert cfg.thresholds == DEFAULT_THRESHOLDS


def test_lambda_spelled_out_in_ini(tmp_path):
    path = tmp_path / "lam.ini"
    path.write_text("[sir]\nlambda = -0.5\n")
    assert load_config(str(path)).sir.lam == -0.5


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sir]\ncontagiousness = 11\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_malformed_number_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nreplicates = many\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("text", [
    "seed = 5\n", "[experiment]\nseed\n", "[experiment]\nseed = 1\nseed = 2\n",
], ids=["no-section", "no-value", "repeated-key"])
def test_malformed_ini_rejected_on_one_line(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match="cannot parse config") as info:
        load_config(str(path))
    assert "\n" not in str(info.value)


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/experiment.ini")


def test_parse_thresholds():
    assert parse_thresholds("0.05,0.1") == (0.05, 0.1)
    assert parse_thresholds(" 0.2 , 0.3 ") == (0.2, 0.3)
    with pytest.raises(ConfigError):
        parse_thresholds("")
    with pytest.raises(ConfigError):
        parse_thresholds("0.5,oops")


def test_threshold_range_validated():
    with pytest.raises(ConfigError):
        ExperimentConfig(thresholds=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(thresholds=(1.5,))


@pytest.mark.parametrize("thresholds", [(0.2, 0.1), (0.1, 0.1)])
def test_thresholds_must_strictly_increase(thresholds):
    with pytest.raises(ConfigError, match="strictly increasing"):
        ExperimentConfig(thresholds=thresholds)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_both_ends_of_the_seed_range_are_accepted(seed):
    assert ExperimentConfig(seed=seed).seed == seed


def test_replicates_and_threads_validated():
    with pytest.raises(ConfigError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(threads=0)


def test_conditioning_validated():
    with pytest.raises(ConfigError):
        ExperimentConfig(conditioning="diagonal")


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(
        cfg, seed=9, replicates=50, thresholds=(0.4,), out="x", conditioning="per-time",
        threads=2,
    )
    assert out.seed == 9
    assert out.replicates == 50
    assert out.thresholds == (0.4,)
    assert out.out == "x"
    assert out.conditioning == "per-time"
    assert out.threads == 2
    # None leaves values untouched
    same = apply_overrides(cfg)
    assert same == cfg

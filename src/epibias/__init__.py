"""Quantifying the bias of conditioning on endogenous epidemic interventions.

The package has two halves that check each other:

* a stochastic SIR simulator plus Monte Carlo estimators for the causal
  (forced treatment path) and associational (conditioned on the realized
  path) mean outcomes, and
* an exact enumeration engine for small tabular processes, where the same
  quantities and the theory connecting them (propensity ratios,
  opportunistic interventions, the negative-bias theorem) are computed
  without sampling.
"""

from .charts import LineSeries, render_line_chart
from .config import (
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    apply_overrides,
    dump_config,
    load_config,
    parse_thresholds,
)
from .errors import (
    ConfigError,
    EmptyConditioningError,
    InstanceTooLargeError,
    KernelValidationError,
    SequenceExhaustedError,
    UndefinedConditionalError,
    UndefinedRatioError,
)
from .finite import (
    BUILTIN_INSTANCES,
    AdaptationPartition,
    FiniteDgp,
    OpportunisticReport,
    PathWeight,
    TheoremReport,
    adaptive_ratio,
    associational_exact,
    associational_via_ratios,
    audit_bayes_consistency,
    audit_decomposition,
    audit_zero_mean,
    check_monotone_process,
    check_opportunistic,
    classify_adaptations,
    coin_epidemic,
    enumerate_paths,
    exogenous_null,
    g_formula_exact,
    moving_marginal_expectation,
    prospective_propensity,
    random_dgp,
    random_monotone_threshold_dgp,
    random_opportunistic_dgp,
    reversed_coin_epidemic,
    verify_theorem1,
)
from .montecarlo import (
    CHUNK_SIZE,
    BiasReport,
    EstimateResult,
    compute_bias_report,
    estimate_associational,
    estimate_causal,
)
from .noise import truncated_normal_transform
from .policies import ExogenousRule, ForcedSequenceRule, PolicyRule, ThresholdRule
from .sir import SirParams, sir_step_arrays
from .streams import (
    counter_uniform,
    counter_uniform_array,
    derive_substream_seed,
    mix64,
    stream_key,
    stream_keys,
)

__version__ = "0.1.0"

"""Quantifying the bias of conditioning on endogenous epidemic interventions.

The package has two halves that check each other:

* a stochastic SIR simulator plus Monte Carlo estimators for the causal
  (forced treatment path) and associational (conditioned on the realized
  path) mean outcomes, and
* an exact engine for small tabular processes, where the same
  quantities and the theory connecting them (propensity ratios,
  opportunistic interventions, the negative-bias theorem) are computed
  without sampling.

The top level holds the names README's Library section uses; everything
else is imported from its submodule.
"""

from .finite import coin_epidemic, verify_theorem1
from .montecarlo import compute_bias_report
from .policies import ThresholdRule
from .sir import SirParams

__version__ = "0.1.0"

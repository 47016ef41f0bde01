"""Short-maturity asymptotics for Asian options under the CEV model.

Rate functions (closed-form and variational), equivalent log-normal/normal
volatilities, asymptotic prices for fixed- and floating-strike arithmetic
Asian options, and the Monte Carlo / benchmark layers used to validate them.
"""

from .model import ConvergenceError, ModelParams, RateResult, RootBracketError
from .specfun import hyp2f1, norm_cdf, norm_pdf
from .rate_cev import (rate_cev, rate_cev_large_strike, rate_cev_small_strike,
                       rate_cev_taylor, rate_sqrt)
from .float_strike import jf_taylor, rate_float_cev, rate_float_sqrt
from .varsolve import PathGrid, action, minimize_fixed, minimize_float
from .pricing import (OptionSpec, PricingResult, atm_price, average_forward, equiv_lognormal_vol,
                      equiv_normal_vol, equiv_vol, price_fixed, price_floating,
                      price_from_rate, price_variational, rate_variational)
from .mc import McConfig, McEstimate, simulate_asian, simulate_floating
from .bench import (BenchRow, Scenario, run_custom, run_floating, run_table1,
                    run_table2, to_csv)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "ModelParams", "RateResult", "RootBracketError",
    "hyp2f1", "norm_cdf", "norm_pdf", "rate_sqrt",
    "rate_cev", "rate_cev_large_strike", "rate_cev_small_strike", "rate_cev_taylor",
    "jf_taylor", "rate_float_cev", "rate_float_sqrt",
    "PathGrid", "action", "minimize_fixed", "minimize_float",
    "OptionSpec", "PricingResult", "atm_price", "average_forward",
    "equiv_lognormal_vol", "equiv_normal_vol", "equiv_vol",
    "price_fixed", "price_floating", "price_from_rate", "price_variational", "rate_variational",
    "McConfig", "McEstimate", "simulate_asian", "simulate_floating",
    "BenchRow", "Scenario", "run_custom", "run_floating", "run_table1",
    "run_table2", "to_csv",
]

"""Short-maturity asymptotics for Asian options under the CEV model.

Rate functions (closed-form, Legendre-transform, and variational), equivalent
log-normal/normal volatilities, asymptotic prices for fixed- and
floating-strike arithmetic Asian options, and the Monte Carlo / benchmark
layers used to validate them.
"""

from .model import ConvergenceError, ModelParams, RateResult, RootBracketError
from .specfun import hyp2f1, norm_cdf, norm_pdf
from .rate_cev import (ab_minus, ab_plus, rate_cev, rate_cev_large_strike,
                       rate_cev_small_strike, rate_cev_taylor, rate_sqrt)
from .float_strike import (cumulant_float, jf_taylor, rate_float_cev,
                           rate_float_sqrt, solve_theta_c)
from .varsolve import PathGrid, action, minimize_fixed, minimize_float
from .pricing import (OptionSpec, PricingResult, atm_price, average_forward, equiv_lognormal_vol,
                      equiv_normal_vol, equiv_vol, parity_gap, price_fixed, price_floating,
                      price_from_rate, price_variational)
from .mc import McConfig, McEstimate, rate_from_mc, simulate_asian, simulate_floating
from .bench import (BenchRow, Scenario, run_custom, run_floating, run_table1,
                    run_table2, to_csv)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "ModelParams", "RateResult", "RootBracketError",
    "hyp2f1", "norm_cdf", "norm_pdf", "rate_sqrt",
    "ab_minus", "ab_plus", "rate_cev",
    "rate_cev_large_strike", "rate_cev_small_strike", "rate_cev_taylor",
    "cumulant_float", "jf_taylor", "rate_float_cev", "rate_float_sqrt", "solve_theta_c",
    "PathGrid", "action", "minimize_fixed", "minimize_float",
    "OptionSpec", "PricingResult", "atm_price", "average_forward",
    "equiv_lognormal_vol", "equiv_normal_vol", "equiv_vol", "parity_gap",
    "price_fixed", "price_floating", "price_from_rate", "price_variational",
    "McConfig", "McEstimate", "rate_from_mc", "simulate_asian", "simulate_floating",
    "BenchRow", "Scenario", "run_custom", "run_floating", "run_table1",
    "run_table2", "to_csv",
]

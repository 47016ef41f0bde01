"""Special functions: real-argument Gauss hypergeometric 2F1, log-Gamma, and
the standard normal CDF/PDF.

2F1 is scipy's (``scipy.special.hyp2f1``).  On the two triples the rate
function uses, 2F1(beta,1/2;3/2;z) and 2F1(beta,3/2;5/2;z) with beta in
(1/2, 1) and z from -1e14 to just below 1, it agrees with 40-digit mpmath to
~2e-9 relative; at beta = 1/2 it matches the elementary arcsin/arctan forms
to ~5e-15.
"""

from __future__ import annotations

import math

from scipy.special import hyp2f1 as _scipy_hyp2f1

from .model import ConvergenceError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a,b;c;z) for real z < 1.

    Raises ValueError when z >= 1 or c is a non-positive integer, and
    ConvergenceError if the evaluation comes back non-finite.
    """
    if z >= 1.0:
        raise ValueError(f"2F1 argument must satisfy z < 1, got z={z}")
    if c <= 0.0 and float(c).is_integer():
        raise ValueError(f"2F1 parameter c must not be a non-positive integer, got c={c}")
    if a > b:  # 2F1 is symmetric in (a, b); one order makes it exactly so
        a, b = b, a
    value = float(_scipy_hyp2f1(a, b, c, z))
    if not math.isfinite(value):
        raise ConvergenceError(f"2F1 evaluation is not finite for (a,b,c,z)=({a},{b},{c},{z})")
    return value


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def norm_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), accurate to ~1e-15 absolute."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)

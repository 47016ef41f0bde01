"""Special functions: real-argument Gauss hypergeometric 2F1 and the standard
normal CDF/PDF.

2F1 is scipy's, called through its Cython entry point, the real-argument
specialization of ``scipy.special.cython_special.hyp2f1``: the same C++ code
and the same value as the ``scipy.special.hyp2f1`` ufunc, without the ufunc's
per-call dispatch (0.2 against 0.7 us a call on x86-64).  The rate function
calls it only next to the money, where |log x| < 1/4 and the argument
z = 1 - 1/y lies in [-0.29, 0]: 2F1(beta,3/2;5/2;z) on the put branch and
2F1(beta,1;5/2;z) on the call branch, which agree with 40-digit mpmath to
1 ulp for beta from 1/2 to 1 - 1e-9.  Far out on the negative axis scipy's
connection formula loses digits as b - a nears an integer (1e-9 relative
just above beta = 1/2 on the put triples at z = -1e14; 1e-6 at beta = 1 - 1e-9
and no digit at 1 - 1e-14 on the call triples), which is why `rate_cev` takes
its factor a from the incomplete beta function and its small-y series
there.  For 2F1(1/2, 1/2; 3/2; z) scipy returns inf at z <= -1.5e13, so that
triple is evaluated as asinh(sqrt(-z))/sqrt(-z) at z < 0.
"""

from __future__ import annotations

import math

from scipy.special import cython_special

from .model import ConvergenceError

_hyp2f1 = cython_special.hyp2f1["double"]  # returns a Python float
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
    if a == b == 0.5 and c == 1.5 and z < 0.0:
        s = math.sqrt(-z)
        return math.asinh(s) / s
    value = _hyp2f1(a, b, c, z)
    if not math.isfinite(value):
        raise ConvergenceError(f"2F1 evaluation is not finite for (a,b,c,z)=({a},{b},{c},{z})")
    return value


def norm_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), accurate to ~1e-15 absolute.  It stays
    rather than scipy's ``ndtr``, which returns 0.0 below x = -37.68 where this
    keeps the subnormal tail (2.9e-316 at x = -38)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)

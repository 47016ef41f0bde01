"""Special functions: real-argument Gauss hypergeometric 2F1 and the standard
normal CDF/PDF.

2F1 is scipy's, called through its Cython entry point, the real-argument
specialization of ``scipy.special.cython_special.hyp2f1``: the same C++ code
and the same value as the ``scipy.special.hyp2f1`` ufunc, without the ufunc's
per-call dispatch (0.2 against 0.7 us a call on x86-64).  The rate function
calls it only at z <= 0: 2F1(beta,1/2;3/2;z) and 2F1(beta,3/2;5/2;z) on the
put branch, 2F1(beta,1;3/2;z) and 2F1(beta,1;5/2;z) on the call branch.  For beta in
(1/2, 1) and z from -1e14 to 0 it agrees with 40-digit mpmath to ~1e-9
relative on the put triples (worst just above beta = 1/2, where b - a nears
an integer).  On the call triples it agrees to ~1e-14 up to beta = 0.99, but
less as b - a = 1 - beta nears 0: 3e-12 at 1 - 1e-4, 1e-6 at 1 - 1e-9, 5e-4 at
1 - 1e-12, no digit at 1 - 1e-14.  Then ``rate_cev`` at S0 = sigma = 1, K/S0 =
1e3 gives 39.0411 at 1 - 1e-9 (mpmath 39.04105), 39.0437 at 1 - 1e-12 and
45.265 at 1 - 1e-14.  At beta = 1/2 it matches the elementary arcsin/arctan
forms to 3e-12 or better for z from -1e6 to 0.95.  The one exception: for
2F1(1/2, 1/2; 3/2; z) scipy returns inf at z <= -1.5e13, so that triple is
evaluated as asinh(sqrt(-z))/sqrt(-z) at z < 0.
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
    """Standard normal CDF Phi(x), accurate to ~1e-15 absolute."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)

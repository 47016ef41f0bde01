"""Floating-strike Asian rate function.

For beta = 1/2 the OTM rate has the closed form I_f(kappa, S0) =
(S0/sigma^2) J_f(kappa) where J_f solves a one-dimensional transcendental
system: a trigonometric one for kappa > 1 (OTM put) and a hyperbolic one for
kappa < 1 (OTM call).  The limiting cumulant Lambda_f(theta) of
(1/T) int S dt - kappa S_T is also provided, so J_f can be cross-checked
against the Legendre-dual sup_theta { -Lambda_f(theta) }.

For general beta there is no closed form; `rate_float_cev` delegates to the
discretized variational solver.

Note on signs: the hyperbolic branch is implemented as
J_f = 2z (tanh z - kappa z)/(1 - kappa z tanh z), which is the positive
convex branch matching the Legendre dual; and the tanh form of Lambda_f is
evaluated as the rational continuation (tanh u - ku)/(1 - ku tanh u) with
Lambda_f = +inf once 1 - ku tanh u <= 0 (the MGF genuinely diverges there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .model import ATM_WINDOW, ModelParams, RateResult, RootBracketError
from .rate_sqrt import _require_sqrt_beta

_XTOL = 1.0e-15
_RTOL = 8.9e-16
_N_SCAN = 800  # grid used to bracket the first root of the z-equations


@dataclass(frozen=True)
class FloatRateDiag:
    """Solver internals: root variable z and branch."""

    z_star: float
    branch: str  # "put" (kappa>1) | "call" (kappa<1) | "atm"


def solve_theta_c(kappa: float, params: ModelParams) -> float:
    """Upper boundary theta_c of the finite domain of Lambda_f.

    In the variable v = sigma sqrt(2 theta)/2 it solves
    v - arctan(kappa v) = pi/2; theta_c = 2 v^2/sigma^2.  For kappa = 0 this
    is the fixed-strike boundary pi^2/(2 sigma^2).
    """
    _require_sqrt_beta(params)
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0.0:
        v = 0.5 * math.pi
    else:
        v = brentq(lambda t: t - math.atan(kappa * t) - 0.5 * math.pi,
                   1e-12, math.pi, xtol=_XTOL, rtol=_RTOL)
    return 2.0 * v * v / params.sigma ** 2


def cumulant_float(theta: float, kappa: float, params: ModelParams) -> float:
    """Limiting cumulant Lambda_f(theta) of the average minus kappa times the
    endpoint, extended-real."""
    _require_sqrt_beta(params)
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    sig, S0 = params.sigma, params.S0
    if theta == 0.0:
        return 0.0
    if theta > 0.0:
        if theta >= solve_theta_c(kappa, params):
            return math.inf
        s = math.sqrt(2.0 * theta)
        v = 0.5 * sig * s
        return (s / sig) * math.tan(v - math.atan(kappa * v)) * S0
    s = math.sqrt(-2.0 * theta)
    u = 0.5 * sig * s
    th = math.tanh(u)
    denom = 1.0 - kappa * u * th
    if denom <= 0.0:
        return math.inf
    return -(s / sig) * S0 * (th - kappa * u) / denom


def _eqz_trig(z: float, kappa: float) -> float:
    """kappa > 1 root equation: 1 + k^2 z^2 + (1 - k^2 z^2) sin 2z/(2z) = 2k cos^2 z."""
    kz2 = (kappa * z) ** 2
    sinc = 1.0 if z == 0.0 else math.sin(2.0 * z) / (2.0 * z)
    return 1.0 + kz2 + (1.0 - kz2) * sinc - 2.0 * kappa * math.cos(z) ** 2


def _eqz_hyp(z: float, kappa: float) -> float:
    """kappa < 1 root equation, exp(-2z)-scaled (x2 e^{-2z} times the raw form)."""
    kz2 = (kappa * z) ** 2
    if z == 0.0:
        return 4.0 * (1.0 - kappa)
    e2 = math.exp(-2.0 * z)
    return (2.0 * e2 * (1.0 - kz2)
            + (1.0 + kz2) * (1.0 - e2 * e2) / (2.0 * z)
            - kappa * (1.0 + e2) ** 2)


def _first_root(f, lo: float, hi: float, what: str) -> float:
    """First sign change of f on (lo, hi), located by grid scan + Brent."""
    prev_z, prev_f = lo, f(lo)
    for i in range(1, _N_SCAN + 1):
        z = lo + (hi - lo) * i / _N_SCAN
        fz = f(z)
        if prev_f == 0.0:
            return prev_z
        if prev_f * fz < 0.0:
            return brentq(f, prev_z, z, xtol=_XTOL, rtol=_RTOL)
        prev_z, prev_f = z, fz
    raise RootBracketError(f"no sign change of {what} found on ({lo}, {hi})")


def rate_float_sqrt(kappa: float, params: ModelParams) -> RateResult:
    """Floating-strike rate (S0/sigma^2) J_f(kappa) for beta = 1/2."""
    _require_sqrt_beta(params)
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    S0, sig = params.S0, params.sigma
    lk = math.log(kappa)
    if abs(lk) < ATM_WINDOW:
        return RateResult((S0 / sig ** 2) * 1.5 * lk * lk, FloatRateDiag(0.0, "atm"))
    if kappa > 1.0:
        # root lies below the first tan pole: the equation is negative at 0+
        # (2 - 2 kappa) and positive at pi/2 (1 + k^2 pi^2/4)
        z = _first_root(lambda t: _eqz_trig(t, kappa), 1e-9, 0.5 * math.pi - 1e-12,
                        "the trigonometric z-equation")
        jf = 2.0 * z * (kappa * z - math.tan(z)) / (1.0 + kappa * z * math.tan(z))
        return RateResult((S0 / sig ** 2) * jf, FloatRateDiag(z, "put"))
    # kappa < 1: search below the pole of the rational form, k z tanh z = 1
    hi = 1.0
    while kappa * hi * math.tanh(hi) < 1.0:
        hi *= 2.0
        if hi > 1e9:
            raise RootBracketError(f"tanh-pole not bracketed for kappa={kappa}")
    z_pole = brentq(lambda t: kappa * t * math.tanh(t) - 1.0, 1e-12, hi,
                    xtol=_XTOL, rtol=_RTOL)
    z = _first_root(lambda t: _eqz_hyp(t, kappa), 1e-9, z_pole * (1.0 - 1e-10),
                    "the hyperbolic z-equation")
    th = math.tanh(z)
    jf = 2.0 * z * (th - kappa * z) / (1.0 - kappa * z * th)
    return RateResult((S0 / sig ** 2) * jf, FloatRateDiag(z, "call"))


def jf_taylor(kappa: float) -> float:
    """Expansion of J_f around kappa = 1:
    3/2 log^2 k - 33/20 log^3 k + 5809/5600 log^4 k."""
    lk = math.log(kappa)
    return 1.5 * lk ** 2 - 33.0 / 20.0 * lk ** 3 + 5809.0 / 5600.0 * lk ** 4


def rate_float_cev(kappa: float, params: ModelParams) -> RateResult:
    """Floating-strike rate for general beta via the variational solver."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if kappa == 1.0:
        return RateResult(0.0, FloatRateDiag(0.0, "atm"))
    from .varsolve import minimize_float

    value = minimize_float(kappa, params)
    branch = "put" if kappa > 1.0 else "call"
    return RateResult(value, FloatRateDiag(math.nan, branch))

"""Floating-strike Asian rate function.

For beta = 1/2 the OTM rate has the closed form I_f(kappa, S0) =
(S0/sigma^2) J_f(kappa) where J_f solves a one-dimensional transcendental
system: a trigonometric one for kappa > 1 (OTM put) and a hyperbolic one for
kappa < 1 (OTM call).  The limiting cumulant Lambda_f(theta) of
(1/T) int S dt - kappa S_T is also provided, so J_f can be cross-checked
against the Legendre-dual sup_theta { -Lambda_f(theta) }.

For general beta there is no closed form; `rate_float_cev` delegates to the
discretized variational solver.  Inside ATM_WINDOW both rates return `model`'s
floating ATM series (branch "atm"): at general beta its leading term alone.
Above _KAPPA_FLAT the kappa > 1 root, ~(3/kappa)^(1/4), is solved in
w = z (kappa/3)^(1/4), so every finite kappa > 1 returns, with J_f -> 2.

Note on signs: the hyperbolic branch is
J_f = 2z (tanh z - kappa z)/(1 - kappa z tanh z), which is the positive
convex branch matching the Legendre dual (`rate_float_sqrt` evaluates it in
a form that stays exact next to the pole kappa z tanh z = 1); and the tanh form of Lambda_f is
evaluated as the rational continuation (tanh u - ku)/(1 - ku tanh u) with
Lambda_f = +inf once 1 - ku tanh u <= 0 (the MGF genuinely diverges there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .model import (_RTOL, _XTOL, ATM_WINDOW, ModelParams, RateResult, RootBracketError,
                    atm_floating, rate_unit)
from .rate_sqrt import _require_sqrt_beta

_KAPPA_POLE = 0.04  # below it the kappa < 1 root is taken from its pole asymptote
_KAPPA_FLAT = 1e8   # above it the kappa > 1 root is solved with _eqw_flat


@dataclass(frozen=True)
class FloatRateDiag:
    """Solver internals: root variable z and branch."""

    z_star: float
    branch: str  # "put" (kappa>1) | "call" (kappa<1) | "atm"


@dataclass(frozen=True)
class VariationalDiag:
    """Certificate of the variational route (see varsolve.minimize_float and
    minimize_fixed)."""

    branch: str           # "put" (kappa > 1 or K < S0) | "call" (kappa < 1 or K > S0)
    iterations: int       # Newton steps over all continuation rungs
    kkt_residual: float   # Newton decrement per unit of action
    constraint_err: float
    rungs: int            # certified solves of the continuation ladder


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
    endpoint, extended-real.  kappa = 0 gives the fixed-strike cumulant
    (sqrt(2 theta)/sigma) tan(sigma sqrt(2 theta)/2) S0 and its tanh analogue."""
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


def _eqw_flat(w: float, kappa: float) -> float:
    """kappa > 1 root equation at z = w (3/kappa)^(1/4), divided by 2 kappa:
    w^4 S(2z) - cos^2 z + (1 + sin 2z/(2z))/(2 kappa), where S(y) =
    6 (1 - sin y/y)/y^2 is summed from its series; for kappa >= _KAPPA_FLAT
    and w <= 2, y < 0.053 and the truncation is below 1e-17.  Negative at
    w = 0 (1/kappa - 1), positive at w = 2 (16 S - cos^2 z > 15)."""
    z = w * (3.0 / kappa) ** 0.25
    if z == 0.0:
        return 1.0 / kappa - 1.0
    y2 = 4.0 * z * z
    series = 1.0 - y2 * (1.0 / 20.0 - y2 * (1.0 / 840.0 - y2 / 60480.0))
    sinc = math.sin(2.0 * z) / (2.0 * z)
    return w ** 4 * series - math.cos(z) ** 2 + (1.0 + sinc) / (2.0 * kappa)


def _eqz_hyp(z: float, kappa: float) -> float:
    """kappa < 1 root equation, exp(-2z)-scaled (x2 e^{-2z} times the raw form).

    With c = kappa z and t = tanh(z/2) it is 2 e^{-2z} (1 - c^2)
    + (1 - e^{-4z}) (t - c)(1 - c t)/(2 z t): products only, so it keeps its
    relative accuracy next to the tanh pole, where t - c and 1 - c t are ~e^{-z}.
    """
    if z == 0.0:
        return 4.0 * (1.0 - kappa)
    c = kappa * z
    t = math.tanh(0.5 * z)
    return (2.0 * math.exp(-2.0 * z) * (1.0 - c * c)
            - math.expm1(-4.0 * z) * (t - c) * (1.0 - c * t) / (2.0 * z * t))


def _root(f, lo: float, hi: float, what: str) -> float:
    """The root of f on [lo, hi], where each z-equation changes sign once."""
    if not f(lo) * f(hi) <= 0.0:
        raise RootBracketError(f"{what} has no sign change on ({lo}, {hi})")
    return brentq(f, lo, hi, xtol=_XTOL, rtol=_RTOL)


def rate_float_sqrt(kappa: float, params: ModelParams) -> RateResult:
    """Floating-strike rate (S0/sigma^2) J_f(kappa) for beta = 1/2."""
    _require_sqrt_beta(params)
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    S0, sig = params.S0, params.sigma
    if abs(math.log(kappa)) < ATM_WINDOW:
        return _atm_rate(kappa, params)
    if kappa > 1.0:
        if kappa < _KAPPA_FLAT:
            # root lies below the first tan pole: the equation is negative at 0+
            # (2 - 2 kappa) and positive at pi/2 (1 + k^2 pi^2/4)
            z = _root(lambda t: _eqz_trig(t, kappa), 1e-9, 0.5 * math.pi - 1e-12,
                      "the trigonometric z-equation")
        else:
            z = (3.0 / kappa) ** 0.25 * _root(lambda w: _eqw_flat(w, kappa), 0.0, 2.0,
                                             "the scaled trigonometric z-equation")
        jf = 2.0 * z * (kappa * z - math.tan(z)) / (1.0 + kappa * z * math.tan(z))
        return RateResult((S0 / sig ** 2) * jf, FloatRateDiag(z, "put"))
    if kappa < _KAPPA_POLE:
        # the root sits 2 e^{-1/kappa} (relative) below z = 1/kappa, which
        # doubles stop resolving near kappa = 0.027; the asymptote's
        # remainder, O(e^{-2/kappa}/kappa), is below 1e-17 here
        z = 1.0 / kappa
        if math.isinf(z):
            raise RootBracketError(f"the hyperbolic root 1/kappa overflows for kappa={kappa}")
        jf = 2.0 * z * (1.0 - 4.0 * math.exp(-z))
        return RateResult((S0 / sig ** 2) * jf, FloatRateDiag(z, "call"))
    # z = 1/kappa lies below the pole k z tanh z = 1, and the equation is
    # negative there (-2 e^{-2z} (1 + e^{-2z})/z at c = 1)
    z = _root(lambda t: _eqz_hyp(t, kappa), 1e-9, 1.0 / kappa,
              "the hyperbolic z-equation")
    # J_f = 2z (tanh z - c)/(1 - c tanh z) with tanh z = 2t/(1 + t^2),
    # written in 1 - c and (1 - t)^2 so that it stays exact near the pole
    c = kappa * z
    e = math.exp(-z)
    p = 2.0 * math.tanh(0.5 * z) * (1.0 - c)
    q = (2.0 * e / (1.0 + e)) ** 2
    jf = 2.0 * z * (p - c * q) / (p + q)
    return RateResult((S0 / sig ** 2) * jf, FloatRateDiag(z, "call"))


def jf_taylor(kappa: float) -> float:
    """Expansion of J_f around kappa = 1 to log^4 kappa: log^2 kappa
    `model.atm_floating`(log kappa) at beta = 1/2."""
    lk = math.log(kappa)
    return lk * lk * atm_floating(lk, 0.5)


def _atm_rate(kappa: float, params: ModelParams) -> RateResult:
    """The floating ATM series rate_unit log^2 kappa atm_floating(log kappa)."""
    lk = math.log(kappa)
    return RateResult(rate_unit(params) * lk * lk * atm_floating(lk, params.beta),
                      FloatRateDiag(0.0, "atm"))


def rate_float_cev(kappa: float, params: ModelParams) -> RateResult:
    """Floating-strike rate for general beta via the variational solver, and
    the ATM series inside ATM_WINDOW."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if abs(math.log(kappa)) < ATM_WINDOW:
        return _atm_rate(kappa, params)
    from .varsolve import CERTIFICATE, minimize_float

    value, info = minimize_float(kappa, params, full_output=True)
    branch = "put" if kappa > 1.0 else "call"
    return RateResult(value, VariationalDiag(branch, **{k: info[k] for k in CERTIFICATE}))

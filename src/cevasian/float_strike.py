"""Floating-strike Asian rate function.

For beta = 1/2 the OTM rate has the closed form I_f(kappa, S0) =
(S0/sigma^2) J_f(kappa) where J_f solves a one-dimensional transcendental
system: a trigonometric one for kappa > 1 (OTM put) and a hyperbolic one for
kappa < 1 (OTM call).  The limiting cumulant Lambda_f(theta) of
(1/T) int S dt - kappa S_T is also provided, so J_f can be cross-checked
against the Legendre-dual sup_theta { -Lambda_f(theta) }.

Each root z is found by safeguarded Newton (`model._newton`) in log z, on
an equation whose derivative is elementary, from the root of its
truncation at z^4 near the money (`_near_money_start`) or, for kappa below
_KAPPA_NEAR, from 2 e^{-1/kappa} below the hyperbolic pole 1/kappa: 1 to 6
evaluations over kappa from 0.04 to 1e308.  Both equations and J_f are
written in excess terms (1 - sin y/y and its relatives, `_sinc_excess` and
`_sinhc_excess`, summed from their series for small arguments), so that near
the money, where their O(1) parts cancel to O(kappa - 1), they keep their
relative accuracy.  Above _KAPPA_FLAT the kappa > 1 root, ~(3/kappa)^(1/4),
is solved in w = z (kappa/3)^(1/4), so every finite kappa > 1 returns, with
J_f -> 2; below _KAPPA_POLE the kappa < 1 root is its pole asymptote.

For general beta there is no closed form; `rate_float_cev` delegates to the
discretized variational solver.  Inside ATM_WINDOW both rates return `model`'s
floating ATM series (branch "atm"): at general beta its leading term alone.

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

from .model import (ATM_WINDOW, ModelParams, RateResult, RootBracketError, _newton,
                    atm_floating, beta_is_half, rate_unit)

_KAPPA_POLE = 0.04  # below it the kappa < 1 root is taken from its pole asymptote
_KAPPA_NEAR = 0.4   # above it the kappa < 1 root starts from `_near_money_start`
_KAPPA_FLAT = 1e8   # above it the kappa > 1 root is solved with _eqw_flat
_Z_POLE = 1.0       # from here up the hyperbolic forms are the pole-stable products
_SLOPE_RATIOS = tuple(1.0 / (2 * n * (2 * n + 3)) for n in range(10, 0, -1))  # `_shc_slope`
_EXCESS_RATIOS = tuple(1.0 / ((2 * n + 2) * (2 * n + 3)) for n in range(9, 0, -1))  # `_shc_excess`


@dataclass(frozen=True)
class FloatRateDiag:
    """Solver internals: root variable z, branch, residual of the root
    equation (relative to its O(1) terms) and its evaluations; both 0 at the
    money and on the pole asymptote."""

    z_star: float
    branch: str  # "put" (kappa>1) | "call" (kappa<1) | "atm"
    residual: float = 0.0
    iterations: int = 0


@dataclass(frozen=True)
class VariationalDiag:
    """Certificate of the variational route (see varsolve.minimize_float and
    minimize_fixed)."""

    branch: str           # "put" (kappa > 1 or K < S0) | "call" (kappa < 1 or K > S0)
    iterations: int       # Newton steps over all continuation rungs
    kkt_residual: float   # Newton decrement per unit of action
    constraint_err: float
    rungs: int            # certified solves of the continuation ladder


def _require_sqrt_beta(params: ModelParams) -> None:
    if not beta_is_half(params.beta):
        raise ValueError(f"square-root model requires beta = 1/2, got beta={params.beta}")


def _shc_excess(s: float) -> float:
    """sinh z/z - 1 at s = z^2, sin z/z - 1 at s = -z^2: the sum over n >= 1
    of s^n/(2n + 1)!, to below 1e-21 relative for |s| <= 1 (ten terms)."""
    acc = 1.0
    for r in _EXCESS_RATIOS:
        acc = 1.0 + s * r * acc
    return s / 6.0 * acc


def _sinc_excess(y: float) -> float:
    """1 - sin(y)/y, from its series below y = 1 like `_sinhc_excess`."""
    return -_shc_excess(-y * y) if y < 1.0 else 1.0 - math.sin(y) / y


def _sinhc_excess(y: float, e: float) -> float:
    """4 e^{-y} (sinh(y)/y - 1), given e = e^{-y}: from its series below y = 1,
    where the difference cancels to O(y^2) (formed directly it would lose ~600x
    at y = 0.1), and above in overflow-free form, which loses at most ~6x."""
    return 4.0 * e * _shc_excess(y * y) if y < 1.0 else -2.0 * math.expm1(-2.0 * y) / y - 4.0 * e


def solve_theta_c(kappa: float, params: ModelParams) -> float:
    """Upper boundary theta_c of the finite domain of Lambda_f.

    In the variable v = sigma sqrt(2 theta)/2 it solves
    v - arctan(kappa v) = pi/2; theta_c = 2 v^2/sigma^2.  For kappa = 0 this
    is the fixed-strike boundary pi^2/(2 sigma^2).  The root lies in
    (pi/2, pi), where the equation rises, and is solved by `model._newton` in
    log v from the fixed-point step v = pi/2 + arctan(kappa pi/2).
    """
    _require_sqrt_beta(params)
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0.0:
        v = 0.5 * math.pi
    else:
        def eq(t: float):
            v = math.exp(t)
            kv = kappa * v
            return v - math.atan(kv) - 0.5 * math.pi, v - kv / (1.0 + kv * kv), None

        start = math.log(0.5 * math.pi + math.atan(0.5 * math.pi * kappa))
        v = math.exp(_newton(eq, start, math.log(0.5 * math.pi), math.log(math.pi))[0])
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


def _eqz_trig(z: float, kappa: float) -> tuple[float, float]:
    """kappa > 1 root equation and its log-derivative z dF/dz:
    F = 2(1 - k) + 2k sin^2 z - (1 - sin 2z/(2z))(1 - k^2 z^2), the raw
    1 + k^2 z^2 + (1 - k^2 z^2) sin 2z/(2z) - 2k cos^2 z with its O(1) terms
    cancelled, so that it keeps its relative accuracy near the money, where
    every term is O(kappa - 1).  Negative at 0+, positive at pi/2."""
    s2 = math.sin(z) ** 2
    e = _sinc_excess(2.0 * z)
    kz2 = (kappa * z) ** 2
    h = 1.0 - kz2
    return (2.0 * (1.0 - kappa) + 2.0 * kappa * s2 - e * h,
            2.0 * kappa * z * math.sin(2.0 * z) - (2.0 * s2 - e) * h + 2.0 * kz2 * e)


def _eqw_flat(w: float, kappa: float) -> tuple[float, float]:
    """kappa > 1 root equation at z = w (3/kappa)^(1/4), divided by 2 kappa, and
    its log-derivative w dH/dw: H = w^4 S(2z) - cos^2 z + (1 + sin 2z/(2z))/(2 kappa),
    where S(y) = 6 (1 - sin y/y)/y^2 is summed from its series; for
    kappa >= _KAPPA_FLAT and w <= 2, y < 0.053 and the truncation is below
    1e-17.  Negative at w = 0+ (1/kappa - 1), positive at w = 2 (16 S - cos^2 z > 15)."""
    z = w * (3.0 / kappa) ** 0.25
    y2 = 4.0 * z * z
    series = 1.0 - y2 * (1.0 / 20.0 - y2 * (1.0 / 840.0 - y2 / 60480.0))
    yds = -y2 * (1.0 / 10.0 - y2 * (1.0 / 210.0 - y2 / 10080.0))  # y dS/dy
    sinc = math.sin(2.0 * z) / (2.0 * z)
    w4 = w ** 4
    return (w4 * series - math.cos(z) ** 2 + (1.0 + sinc) / (2.0 * kappa),
            w4 * (4.0 * series + yds) + z * math.sin(2.0 * z)
            + (math.cos(2.0 * z) - sinc) / (2.0 * kappa))


def _eqz_hyp(z: float, kappa: float) -> tuple[float, float]:
    """kappa < 1 root equation, exp(-2z)-scaled, and its log-derivative z dE/dz.

    The raw equation 1 - c^2 + (1 + c^2) sinh 2z/(2z) - 2k cosh^2 z, c = kappa z,
    is 2 (1 - k) - 2k sinh^2 z + (sinh 2z/(2z) - 1)(1 + c^2); times 2 e^{-2z}
    that is E = 4 (1 - k) e^{-2z} - k (1 - e^{-2z})^2 + (1 + c^2) X/2, X the
    `_sinhc_excess` of 2z, which keeps its relative accuracy near
    the money, where every term is O(1 - kappa).  From z = _Z_POLE up, with
    t = tanh(z/2), it is 2 e^{-2z} (1 - c^2) + (1 - e^{-4z}) (t - c)(1 - ct)/(2zt):
    products only, so it stays exact next to the tanh pole, where t - c and
    1 - ct are ~e^{-z}.  Positive at 0+ (4 (1 - kappa)), negative at z = 1/kappa.
    """
    c = kappa * z
    e2 = math.exp(-2.0 * z)
    if z < _Z_POLE:
        m = math.expm1(-2.0 * z)
        x = _sinhc_excess(2.0 * z, e2)
        return (4.0 * (1.0 - kappa) * e2 - kappa * m * m + 0.5 * (1.0 + c * c) * x,
                4.0 * z * e2 * (kappa * m - 2.0 * (1.0 - kappa))
                + (m * m - (0.5 + z) * x) * (1.0 + c * c) + c * c * x)
    t = math.tanh(0.5 * z)
    m = -math.expm1(-4.0 * z)
    p = (t - c) * (1.0 - c * t)
    zt = 0.5 * z * (1.0 - t * t)  # z dt/dz
    zdp = (zt - c) * (1.0 - c * t) - (t - c) * c * (t + zt)
    return (2.0 * e2 * (1.0 - c * c) + m * p / (2.0 * z * t),
            -4.0 * e2 * (z * (1.0 - c * c) + c * c)
            + (4.0 * z * e2 * e2 * p + m * zdp - m * p * (1.0 + zt / t)) / (2.0 * z * t))


def _shc_slope(s: float) -> float:
    """z d/dz (sinh z / z) = cosh z - sinh z/z at s = z^2, and
    cos z - sin z/z at s = -z^2: the sum over n >= 1 of 2n s^n/(2n + 1)!.
    Ten terms leave a truncation below 1e-17 relative for |s| <= (pi/2)^2."""
    acc = 1.0
    for r in _SLOPE_RATIOS:
        acc = 1.0 + s * r * acc
    return s / 3.0 * acc


def _near_money_start(kappa: float) -> float:
    """z of the root of either equation truncated at z^4: s = +-z^2 (+ for
    kappa > 1) solves 2(1 - k) + (2k - 2/3) s + (2/15 + 2k(k - 1)/3) s^2 = 0,
    the root s ~ 3/2 (kappa - 1) nearest 0 (real for kappa > _KAPPA_NEAR)."""
    a = 2.0 / 15.0 + 2.0 * kappa * (kappa - 1.0) / 3.0
    b = 2.0 * kappa - 2.0 / 3.0
    c = 2.0 * (kappa - 1.0)
    return math.sqrt(abs(2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))))


def _solve(eq, kappa: float, sign: float, start: float, hi: float, what: str):
    """Root v in (1e-9, hi) of eq(v, kappa) = 0, with sign * eq rising through
    it, by `model._newton` in log v from start.  Neither end is taken on
    trust: either is evaluated when the iteration reaches it, and
    RootBracketError if eq has no sign change.  Returns (v, eq(v), evaluations)."""
    def f(u: float):
        value, slope = eq(math.exp(u), kappa)
        return sign * value, sign * slope, None

    lo, hi = math.log(1e-9), math.log(hi)
    try:
        u, fu, _, n = _newton(f, min(max(math.log(start), lo), hi), lo, hi, False, False)
    except RootBracketError:
        raise RootBracketError(f"{what} has no sign change on (1e-9, {math.exp(hi)})") from None
    return math.exp(u), sign * fu, n


def rate_float_sqrt(kappa: float, params: ModelParams) -> RateResult:
    """Floating-strike rate (S0/sigma^2) J_f(kappa) for beta = 1/2."""
    _require_sqrt_beta(params)
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if abs(math.log(kappa)) < ATM_WINDOW:
        return _atm_rate(kappa, params)
    unit = params.S0 / params.sigma ** 2
    if kappa > 1.0:
        if kappa < _KAPPA_FLAT:
            z, f, n = _solve(_eqz_trig, kappa, 1.0, _near_money_start(kappa), 0.5 * math.pi,
                             "the trigonometric z-equation")
            f /= 2.0 * kappa
        else:
            c = (3.0 / kappa) ** 0.25
            w, f, n = _solve(_eqw_flat, kappa, 1.0, 1.0, 2.0,
                             "the scaled trigonometric z-equation")
            z = c * w
        # J_f = 2z (kz - tan z)/(1 + kz tan z), kz - tan z = (k - 1) z - (tan z - z)
        jf = (2.0 * z * z * ((kappa - 1.0) + _shc_slope(-z * z) / math.cos(z))
              / (1.0 + kappa * z * math.tan(z)))
        return RateResult(unit * jf, FloatRateDiag(z, "put", abs(f), n))
    if kappa < _KAPPA_POLE:
        # the root sits 2 e^{-1/kappa} (relative) below z = 1/kappa, which
        # doubles stop resolving near kappa = 0.027; the asymptote's
        # remainder, O(e^{-2/kappa}/kappa), is below 1e-17 here
        z = 1.0 / kappa
        if math.isinf(z):
            raise RootBracketError(f"the hyperbolic root 1/kappa overflows for kappa={kappa}")
        jf = 2.0 * z * (1.0 - 4.0 * math.exp(-z))
        return RateResult(unit * jf, FloatRateDiag(z, "call"))
    start = (_near_money_start(kappa) if kappa > _KAPPA_NEAR
             else (1.0 - 2.0 * math.exp(-1.0 / kappa)) / kappa)
    z, f, n = _solve(_eqz_hyp, kappa, -1.0, start, 1.0 / kappa, "the hyperbolic z-equation")
    c = kappa * z
    if z < _Z_POLE:
        # J_f = 2z (tanh z - c)/(1 - c tanh z), tanh z - c = (1 - k) z - (z - tanh z)
        jf = (2.0 * z * z * ((1.0 - kappa) - _shc_slope(z * z) / math.cosh(z))
              / (1.0 - c * math.tanh(z)))
    else:
        # with tanh z = 2t/(1 + t^2), in 1 - c and (1 - t)^2 so that it stays
        # exact near the pole
        e = math.exp(-z)
        p = 2.0 * math.tanh(0.5 * z) * (1.0 - c)
        q = (2.0 * e / (1.0 + e)) ** 2
        jf = 2.0 * z * (p - c * q) / (p + q)
    return RateResult(unit * jf, FloatRateDiag(z, "call", abs(f) / 4.0, n))


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

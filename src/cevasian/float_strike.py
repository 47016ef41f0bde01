"""Floating-strike Asian rate function I_f(kappa) = rate_unit J_f for every
beta in [1/2, 1), from two relations in 0 < v < u < 1 through
A(x; p) = int_x^1 s^-p (1-s)^(-1/2) ds (`rate_cev._tail`):

* kappa > 1 (OTM put), p = beta, d = 1 - beta, h(x) = x^d sqrt(1-x):
  F = A(v) - A(u) - h(u)/d - 2 h(v) = 0, kappa = 2 sqrt(1-v) v^-beta/dB with
  dB = A(v) - A(u), and J_f = u^(2beta-2) dB (dB/2 + h(u) - h(v))/(3 - 2beta);
* kappa < 1 (OTM call), p = 3/2 - beta, d = beta - 1/2, k(x) = x^-p sqrt(1-x):
  G = A(u) + A(v) - 2 k(v) + k(u)/(1 - beta) = 0, kappa = v (SF + SH)/SF with
  SF = A(u) + A(v), SH = sum over x in {u, v} of (k(x) - A(x)/2)/p, and
  J_f = u^(2-2beta) SF SH/2.

At beta = 1/2 they are the square-root model's trigonometric and hyperbolic
root equations, z = (A(v) - A(u))/2 and z = (A(u) + A(v))/2.  `_solve` takes
Newton steps in t = logit v and s = logit u - t with the elementary Jacobian
of dA/dx = -x^-p (1-x)^(-1/2), forming everything from log x and log(1 - x):
1 - u ~ c (1 - v)^3 next to the money, v of deep puts (1e-462 at
kappa = 1.8e308) and u/v at the kappa < 1 pole end (1 at beta = 1/2, where
v ~ 4 e^(-1/kappa)) keep their relative accuracy, and the terms that cancel
are taken whole.  Inside ATM_WINDOW the rate is `model`'s ATM series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import exp, expm1, log, log1p, sqrt

from .model import (ATM_WINDOW, ConvergenceError, ModelParams, RateResult, RootBracketError,
                    _EPS, _FLOOR, atm_floating, rate_unit)
from .rate_cev import _series, _tail
from .specfun import _hyp2f1

_LOG2 = math.log(2.0)


@dataclass(slots=True)
class FloatRateDiag:
    """Solver internals: the root (u, v) (1 at the money, v 0.0 below the
    doubles), branch, residual (`_solve`'s larger one) and evaluations."""

    u: float
    v: float
    branch: str  # "put" (kappa>1) | "call" (kappa<1) | "atm"
    residual: float = 0.0
    iterations: int = 0


def _logit(t: float) -> tuple[float, float, float, float]:
    """(log x, log(1 - x), x, 1 - x) at x = 1/(1 + e^-t), each to a few ulp."""
    e = exp(-abs(t))
    big, small, lb = 1.0 / (1.0 + e), e / (1.0 + e), -log1p(e)
    return (lb, lb - t, big, small) if t > 0.0 else (lb + t, lb, small, big)


def _excess(lx: float, d: float, w: float, A: float | None = None) -> float:
    """A(x; 1 - d) - 2 x^d sqrt(w), w = 1 - x: (2/3)(1 + 2d) w^(3/2) 2F1(1 - d, 3/2;
    5/2; w) for w <= 1/2, where both terms tend to 2 sqrt(w), else from A."""
    if w <= 0.5:
        return (2.0 / 3.0) * (1.0 + 2.0 * d) * w * sqrt(w) * _hyp2f1(1.0 - d, 1.5, 2.5, w)
    if A is None:
        A = _tail(lx, d)[0]
    return A - 2.0 * exp(d * lx) * sqrt(w)


def _put_system(t: float, s: float, beta: float, lk: float):
    """kappa > 1 at v = 1/(1 + e^-t), u = 1/(1 + e^-(t+s)): (F, K, F_t, F_s, K_t,
    K_s, F's scale, J_f, u, v), K = log kappa(u, v) - log kappa; F is Q(v) - A(u) -
    h(u)/d, Q = A - 2h (`_excess`), for u > 1/2, else D(u) - H(v) - 2h(v) with the
    heads H(x) = x^d/d 2F1(d, 1/2; 1 + d; x) and D = H - h/d (a 2F1 of x^(1+d))."""
    d = 1.0 - beta
    lv, lwv, v, wv = _logit(t)
    lu, lwu, u, _ = _logit(t + s)
    hv, hu = exp(d * lv + 0.5 * lwv), exp(d * lu + 0.5 * lwu)
    if u > 0.5:
        Au, Qv = _tail(lu, d)[0], _excess(lv, d, wv)
        F = Qv - Au - hu / d
        dB = Qv + 2.0 * hv - Au
        C = 0.5 * (Qv - Au) + hu  # dB/2 + h(u) - h(v), u's terms ~ Qv
        K = -lv - log1p((Qv - Au) / (2.0 * hv)) - lk
    else:
        Du = ((1.0 + 2.0 * d) / (2.0 * d * (1.0 + d)) * exp((1.0 + d) * lu)
              * _hyp2f1(1.0 + d, 0.5, 2.0 + d, u))
        Hv = exp(d * lv) / d * _hyp2f1(d, 0.5, 1.0 + d, v)
        F = Du - Hv - 2.0 * hv
        dB = Du + hu / d - Hv
        C = 0.5 * dB + hu - hv
        K = _LOG2 + 0.5 * lwv - beta * lv - log(dB) - lk
    # partials in logit v (at fixed u) and logit u
    Fv, Fu = -(1.0 + 2.0 * d) * hv * wv, (1.0 + 0.5 / d) * hu * u
    Kv, Ku = hv / dB - 0.5 * v - beta * wv, -hu / dB
    jf = exp(-2.0 * d * lu) * dB * C / (3.0 - 2.0 * beta)
    return F, K, Fv + Fu, Fu, Kv + Ku, Ku, Fu - Fv, jf, u, v


def _call_system(t: float, s: float, beta: float, lk: float):
    """kappa < 1, as `_put_system`.  At G = 0, SH = 2k(v) - SF and the kappa
    relation is kappa SF = 2 v^d sqrt(1-v), the form solved here; G and SH are
    taken times v^p, which keeps them finite as v -> 0, and SF - 2 sqrt(1-v)
    through Q (`_excess`) next to the money.  K's t-partial is formed along
    s = const, where u/v barely moves at the pole end, so it keeps its size
    ~1/|log v|."""
    p, d = 1.5 - beta, beta - 0.5
    lv, lwv, v, wv = _logit(t)
    lu, lwu, u, wu = _logit(t + s)
    rho = s + lwu - lwv  # log(u/v)
    vp = exp(p * lv)
    Au, Av = _tail(lu, d)[0], _tail(lv, d)[0]
    SF, kv = Au + Av, sqrt(wv)
    ku, hu, hv = exp(0.5 * lwu - p * rho), exp(d * lu + 0.5 * lwu), exp(d * lv + 0.5 * lwv)
    Qv = _excess(lv, d, wv, Av)
    Ev = Qv + 2.0 * kv * expm1(d * lv) + Au  # SF - 2 sqrt(1-v)
    G = vp * (Qv + Au) - 2.0 * kv * wv + ku / (1.0 - beta)
    K = d * lv - log1p(Ev / (2.0 * kv)) - lk
    Ht = -vp * Ev - 2.0 * kv * expm1(p * lv)  # v^p SH
    # partials in logit v (at fixed u) and logit u; G's t-partial adds v^p's, p (1-v) G
    Gv, Gu = (3.0 - 2.0 * beta) * wv * kv, ku * ((d - 1.0) * wu - 0.5 * u) / (1.0 - beta) - vp * hu
    Kv, Ku = d * wv - 0.5 * v + hv / SF, hu / SF
    jf = 0.5 * exp((1.0 - 2.0 * d) * rho - d * lv) * SF * Ht
    return G, K, Gv + Gu + p * wv * G, Gu, Kv + Ku, Ku, Gv - Gu, jf, u, v


def _start(kappa: float, lk: float, beta: float) -> tuple[float, float]:
    """(t, s) of the root within a few percent.  Near the money, t from the
    system's expansion at u = v = 1 (logit kappa^(-+3/2) plus a cubic in log
    kappa, its linear term 3/10 (beta - 5/6) alone beyond |log kappa| = 3/2),
    and sqrt(1-u) (c0 + c1 (1-u)) = Q(v) (puts) or 2k(v) - A(v) (calls).
    Beyond, deep puts' log u = (log 2d + beta/d log(2 + 2d) - log kappa)/
    (beta (1 + d)/d + d) with v^d = u^(1+d)/(2 + 2d), and calls'
    v^d = kappa (1 + d c)/(d + kappa (1 + r^d)/2), c = B(d, 1/2) - 1/d
    (4 e^(-1/kappa) at d = 0), with k(u)/k(v) = (2 - 2beta)(1 - A(v)/k(v)),
    whose limit is u/v = r = (2 - 2beta)^(-1/p)."""
    if kappa > 1.0:
        d = 1.0 - beta
        lu = (log(2.0 * d) + beta / d * log(2.0 + 2.0 * d) - lk) / (beta * (1.0 + d) / d + d)
        if lu < -2.0:
            lv = ((1.0 + d) * lu - log(2.0 + 2.0 * d)) / d
            t = lv - log1p(-exp(lv))
            return t, lu - log1p(-exp(lu)) - t
        c0, c1 = 2.0 + 1.0 / d, 2.0 * beta / 3.0 - 1.0
        tau = ((587.0 - d * (1584.0 + 4428.0 * d)) / 16800.0,
               (8.0 + d * (17.0 + d * (27.0 + 298.0 * d))) / 1400.0)
    else:
        p, d = 1.5 - beta, beta - 0.5
        rho = -log(2.0 - 2.0 * beta) / p
        pole = (2.0 * _LOG2 - 1.0 / kappa if d == 0.0 else
                (log1p(d * _series(d)[0]) - log1p(d / kappa + 0.5 * expm1(d * rho))) / d)
        if pole < 1.5 * lk and kappa * (1.0 + exp(d * rho)) < 1.0:
            if not math.isfinite(pole):
                raise RootBracketError(f"log v of the root leaves the doubles at kappa={kappa}")
            t = pole - log1p(-exp(pole))
            lv, lwv, _, _ = _logit(t)
            return t, rho - log(max(1.0 - _tail(lv, d)[0] * exp(p * lv - 0.5 * lwv), 0.05)) / p
        c0, c1 = 2.0 + 1.0 / (1.0 - beta), p * (2.0 / 3.0 + 1.0 / (1.0 - beta))
        tau = ((302.0 - d * (387.0 + 1107.0 * d)) / 4200.0,
               (d * (1219.0 - d * (2244.0 - 596.0 * d)) - 155.0) / 2800.0)
    lv, x = -1.5 * abs(lk), lk if abs(lk) < 1.5 else 0.0  # where the cubic helps
    t = lv - log1p(-exp(lv)) + lk * (0.3 * (beta - 5.0 / 6.0) + x * (tau[0] + x * tau[1]))
    lv, _, _, wv = _logit(t)
    q = _excess(lv, d, wv)
    if kappa < 1.0:  # 2 k(v) - A(v)
        q = 2.0 * exp((d - 1.0) * lv) * wv * sqrt(wv) - q
    swu = min(q / (c0 + c1 * (q / c0) ** 2), 0.7)  # sqrt(1-u)
    return t, log1p(-swu * swu) - 2.0 * log(swu) - t


@functools.lru_cache(maxsize=4096)
def _solve(kappa: float, beta: float) -> tuple[float, float, float, float, int]:
    """(J_f, u, v, residual, evaluations) at kappa outside ATM_WINDOW, kept
    for the last 4096 (kappa, beta), by Newton's method in (t, s) from
    `_start`, halving a step until the residuals' squares fall (the first
    relation's over its scale, K's over |log kappa|) and keeping
    v < min(kappa, 1/kappa), as every root does, and, for puts, s > 0.  It
    stops at residuals or a step at rounding level, or at a step below _FLOOR
    that stops shrinking; RootBracketError where no step lowers them."""
    put, lk = kappa > 1.0, log(kappa)
    system = _put_system if put else _call_system
    t_max = -abs(lk) - log(-expm1(-abs(lk)))  # logit min(kappa, 1/kappa)
    a = 1.0 / abs(lk)
    t, s = _start(kappa, lk, beta)
    f, k, ft, fs, kt, ks, scale, jf, u, v = system(t, s, beta, lk)
    m, prev, n = (f / scale) ** 2 + (k * a) ** 2, math.inf, 1
    while m > _EPS * _EPS:
        det = ft * ks - fs * kt
        if not det or not math.isfinite(det):
            raise RootBracketError(f"no root of the floating-strike system near t={t}, s={s}")
        dt, ds = (f * ks - k * fs) / det, (k * ft - f * kt) / det
        size = max(abs(dt) / (abs(t) + 1.0), abs(ds) / (abs(s) + 1.0))
        if size <= 4.0 * _EPS or _FLOOR > size > 0.5 * prev:
            break
        lam = 1.0
        while True:
            nt, ns = t - lam * dt, s - lam * ds
            if nt < t_max and (ns > 0.0 or not put):
                try:
                    out = system(nt, ns, beta, lk)
                    n += 1
                    m2 = (out[0] / out[6]) ** 2 + (out[1] * a) ** 2
                    if m2 < m or size * lam < _FLOOR:
                        break
                except (ValueError, OverflowError, ZeroDivisionError, ConvergenceError):
                    pass
            lam *= 0.5
            if lam < 1e-3:
                raise RootBracketError(f"no root of the floating-strike system near t={t}, s={s}")
        if n >= 100:
            raise ConvergenceError(f"the floating-strike solve did not converge at kappa={kappa}")
        prev, t, s, m = size * lam, nt, ns, m2
        f, k, ft, fs, kt, ks, scale, jf, u, v = out
    return jf, u, v, max(abs(f / scale), abs(k * a)), n


def rate_float_cev(kappa: float, params: ModelParams) -> RateResult:
    """Floating-strike rate I_f(kappa) = rate_unit J_f for beta in [1/2, 1),
    with its solve's diag; ConvergenceError beyond the largest double."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    lk = math.log(kappa)
    if abs(lk) < ATM_WINDOW:
        return _atm_rate(kappa, params)
    jf, u, v, residual, n = _solve(kappa, params.beta)
    value = rate_unit(params) * jf
    if math.isinf(value):
        raise ConvergenceError(f"the floating-strike rate at kappa={kappa} overflows a double")
    return RateResult(value, FloatRateDiag(u, v, "put" if kappa > 1.0 else "call", residual, n))


def jf_taylor(kappa: float) -> float:
    """Expansion of J_f around kappa = 1 to log^4 kappa: log^2 kappa
    `model.atm_floating`(log kappa) at beta = 1/2."""
    lk = math.log(kappa)
    return lk * lk * atm_floating(lk, 0.5)


def _atm_rate(kappa: float, params: ModelParams) -> RateResult:
    """The floating ATM series rate_unit log^2 kappa atm_floating(log kappa)."""
    lk = math.log(kappa)
    return RateResult(rate_unit(params) * lk * lk * atm_floating(lk, params.beta),
                      FloatRateDiag(1.0, 1.0, "atm"))

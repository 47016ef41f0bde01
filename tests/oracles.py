"""Slow, independent reference computations shared by several test modules.

Nothing here reuses the closed forms under test: rate functions are
recomputed as Legendre-Fenchel transforms of the cumulant by direct numerical
maximization, the cumulant itself can be re-derived by integrating the
underlying Riccati equation, the limiting lognormal-model rate is solved
from its own transcendental equations, the general-beta rate is recomputed
as a one-dimensional infimum over the same a, b building blocks without
root solving, the variational minimum is extrapolated in the grid size,
the 2F1 triples of beta = 1/2 are evaluated through their arcsin/arctan
forms, and the fixed-strike root (beta = 1/2 and general beta) and the
floating call rate are solved in many-digit arithmetic.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from cevasian.float_strike import cumulant_float, solve_theta_c
from cevasian.model import RateResult, RootBracketError
from cevasian.rate_cev import CevRateDiag, ab_minus, ab_plus
from cevasian.varsolve import minimize_fixed


def sup_on_grid(f, lo, hi, n=4000):
    """Maximize f on [lo, hi]: coarse scan, then a bounded polish around the
    best grid point.  Robust to f returning -inf on part of the interval."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([f(float(x)) for x in xs])
    k = int(np.argmax(vals))
    a = float(xs[max(k - 1, 0)])
    b = float(xs[min(k + 1, n - 1)])
    res = minimize_scalar(lambda x: -f(x), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-14})
    cand = -res.fun
    return float(cand) if cand > vals[k] else float(vals[k])


def legendre_fixed(K, params):
    """sup_theta { theta*K - Lambda(theta) } for the fixed-strike cumulant,
    the floating one at kappa = 0."""
    pole = math.pi ** 2 / (2.0 * params.sigma ** 2)

    def g(th):
        lam = cumulant_float(th, 0.0, params)
        if math.isinf(lam):
            return -math.inf
        return th * K - lam

    if K > params.S0:
        return sup_on_grid(g, 0.0, pole * (1.0 - 1e-9))
    # maximizer sits at negative theta; extend the bracket until it is interior
    lo = -1.0
    while True:
        xs = np.linspace(lo, 0.0, 200)
        if int(np.argmax([g(float(x)) for x in xs])) > 0:
            break
        lo *= 4.0
    return sup_on_grid(g, lo, 0.0)


def legendre_float(kappa, params):
    """sup_theta { -Lambda_f(theta) } for the floating-strike cumulant."""

    def g(th):
        lam = cumulant_float(th, kappa, params)
        return -math.inf if math.isinf(lam) else -lam

    if kappa > 1.0:
        tc = solve_theta_c(kappa, params)
        return sup_on_grid(g, 0.0, tc * (1.0 - 1e-9))
    # negative-theta side: domain ends where kappa*u*tanh(u) reaches 1
    upole = brentq(lambda u: kappa * u * math.tanh(u) - 1.0, 1e-12, 1e3 / kappa)
    th_lo = -2.0 * upole ** 2 / params.sigma ** 2 * (1.0 - 1e-9)
    return sup_on_grid(g, th_lo, 0.0)


def jf_call_mpmath(kappa, dps=80):
    """J_f(kappa) for kappa < 1: the maximum over u in (0, u_pole) of
    -Lambda_f sigma^2/S0 = 2u (tanh u - kappa u)/(1 - kappa u tanh u),
    kappa u_pole tanh u_pole = 1, by golden-section search in `dps` digits.
    For small kappa the maximizer sits ~2 e^{-1/kappa} (relative) below the
    pole, so dps must exceed 0.44/kappa + 16."""
    with mpmath.workdps(dps):
        k = mpmath.mpf(kappa)

        def g(u):
            th = mpmath.tanh(u)
            return 2 * u * (th - k * u) / (1 - k * u * th)

        lo = mpmath.mpf(0)
        hi = mpmath.findroot(lambda u: k * u * mpmath.tanh(u) - 1, 1 / k)
        r = (mpmath.sqrt(5) - 1) / 2
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        ga, gb = g(a), g(b)
        for _ in range(int(3.4 * dps)):
            if ga < gb:
                lo, a, ga = a, b, gb
                b = lo + r * (hi - lo)
                gb = g(b)
            else:
                hi, b, gb = b, a, ga
                a = hi - r * (hi - lo)
                ga = g(a)
        return float(max(ga, gb))


def jf_put_mpmath(kappa, dps=320):
    """(J_f(kappa), z) for kappa > 1: the root z = c w of
    (1 + s) + k^2 z^2 (1 - s) = 2k cos^2 z, s = sin 2z/(2z), by findroot on w
    in `dps` digits, with c = min(1, (3/kappa)^(1/4)) from the root's
    large-kappa limit, and J_f = 2z (kz - tan z)/(1 + kz tan z).  1 - s ~
    2z^2/3 is formed directly, so dps must exceed 2 log10(1/z) + 20
    (z ~ 1e-77 at kappa = 1.8e308)."""
    with mpmath.workdps(dps):
        k = mpmath.mpf(kappa)
        c = min(mpmath.mpf(1), (3 / k) ** 0.25)

        def eq(w):
            z = c * w
            s = mpmath.sin(2 * z) / (2 * z)
            return ((1 + s) + k * k * z * z * (1 - s)) / (2 * k) - mpmath.cos(z) ** 2

        z = c * mpmath.findroot(eq, 1)
        t = mpmath.tan(z)
        return float(2 * z * (k * z - t) / (1 + k * z * t)), float(z)


def rate_sqrt_mpmath(m, dps=60):
    """beta = 1/2 fixed-strike rate in units of S0/sigma^2 at K/S0 = m != 1.

    Bisection in `dps` digits on the log of the root variable: delta = pi/2 - x
    of (1 + sin 2x/(2x)) / (2 cos^2 x) = m for a call, x of the hyperbolic
    equation in its exp(-2x)-scaled form for a put (so that neither overflows
    up to m = 1e300 or down to 1e-300)."""
    with mpmath.workdps(dps):
        m = mpmath.mpf(m)
        if m > 1:
            def eq(d):
                x = mpmath.pi / 2 - d
                return (1 + mpmath.sin(2 * x) / (2 * x)) / (2 * mpmath.sin(d) ** 2)

            lo, hi = mpmath.log(1 / (4 * mpmath.sqrt(2 * m))), mpmath.log(mpmath.pi / 2 - 1e-30)
        else:
            def eq(x):
                e = mpmath.exp(-2 * x)
                return (2 * e + (1 - e * e) / (2 * x)) / (1 + e) ** 2

            lo, hi = mpmath.log(mpmath.mpf(1e-30)), mpmath.log(2 / m)
        for _ in range(int(3.4 * dps) + 40):  # both equations fall as u rises
            mid = (lo + hi) / 2
            if eq(mpmath.exp(mid)) > m:
                lo = mid
            else:
                hi = mid
        r = mpmath.exp((lo + hi) / 2)
        if m > 1:
            x = mpmath.pi / 2 - r
            return float(x ** 2 / mpmath.sin(r) ** 2 * (1 - mpmath.sin(2 * x) / (2 * x)))
        e = mpmath.exp(-2 * r)
        return float(r * r * ((1 - e * e) / r - 4 * e) / (1 + e) ** 2)


def rate_cev_mpmath(m, beta, dps=30):
    """General-beta fixed-strike rate in units of S0^(2-2beta)/sigma^2 at
    K/S0 = m != 1, re-solved in `dps` digits.

    Root of x +- b/a = m in u = log x by mpmath's bracketing Anderson-Bjork
    solver.  (a, b) come from the defining x^-beta 2F1(beta, c - 1; c; 1 - 1/x)
    on the put branch and from 2F1(beta, 1; c; 1 - x) on the call branch,
    where the defining argument nears 1 and mpmath's series stalls
    (c = 3/2, 5/2)."""
    with mpmath.workdps(dps):
        bm, mm = mpmath.mpf(beta), mpmath.mpf(m)
        put = m < 1

        def ab(u):
            x = mpmath.exp(u)
            d = abs(1 - x)
            if put:
                xmb, z = x ** -bm, 1 - 1 / x
                f1, f2 = xmb * mpmath.hyp2f1(bm, 0.5, 1.5, z), xmb * mpmath.hyp2f1(bm, 1.5, 2.5, z)
            else:
                f1, f2 = mpmath.hyp2f1(bm, 1, 1.5, 1 - x), mpmath.hyp2f1(bm, 1, 2.5, 1 - x)
            return x, 2 * mpmath.sqrt(d) * f1, 2 * d ** 1.5 * f2 / 3

        def f(u):
            x, a, b = ab(u)
            return x + (b / a if put else -b / a) - mm

        lo = hi = mpmath.log(mm)  # f = +-b/a there, so one end holds already
        while put and f(lo) >= 0:
            lo = 2 * lo - 1
        while not put and f(hi) <= 0:
            hi += 1
        x, a, b = ab(mpmath.findroot(f, (lo, hi), solver="anderson"))
        return float(a * b / 2)


def riccati_lambda(theta, params, kappa=None):
    """Cumulant recomputed from the Riccati equation w' = theta + sigma^2 w^2/2
    on [0, 1]; the fixed-strike case starts from w(0) = 0, the floating-strike
    case from w(0) = -theta*kappa.  Returns S0 * w(1)."""
    sig2 = params.sigma ** 2
    w0 = 0.0 if kappa is None else -theta * kappa
    sol = solve_ivp(lambda s, w: theta + 0.5 * sig2 * w[0] ** 2, (0.0, 1.0),
                    [w0], rtol=1e-11, atol=1e-13, max_step=0.01)
    if not sol.success:
        raise RuntimeError(sol.message)
    return params.S0 * float(sol.y[0, -1])


def bs_limit_rate(m, sigma):
    """Limiting (lognormal-model) rate function at moneyness m = K/S0."""
    if m == 1.0:
        return 0.0
    if m < 1.0:
        xi = brentq(lambda x: math.sin(2.0 * x) / (2.0 * x) - m,
                    1e-9, math.pi / 2.0 - 1e-12, xtol=1e-15)
        return (2.0 / sigma ** 2) * xi * (math.tan(xi) - xi)
    hi = 1.0

    def f(x):
        return math.sinh(2.0 * x) / (2.0 * x) - m

    while f(hi) < 0.0:
        hi *= 2.0
    xi = brentq(f, 1e-9, hi, xtol=1e-15)
    return (2.0 / sigma ** 2) * xi * (xi - math.tanh(xi))


def rate_cev_alt(K, params):
    """Equivalent one-dimensional infimum form of the rate function.

    For K > S0:  inf over phi > K/S0 of  pref * b-(phi)^2 / (phi - K/S0),
    for K < S0:  inf over chi in (0, K/S0) of  pref * b+(chi)^2 / (K/S0 - chi),
    with pref = S0^(2(1-beta))/(2 sigma^2).  Agrees with `rate_cev`; a
    cross-check because no root-solving is involved.
    """
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    if K == params.S0:
        raise ValueError("alternative representation is undefined at K = S0")
    beta = params.beta
    target = K / params.S0
    pref = params.S0 ** (2.0 * (1.0 - beta)) / (2.0 * params.sigma ** 2)

    if target > 1.0:
        def minimand(phi):
            _, b = ab_minus(phi, beta)
            return pref * b * b / (phi - target)

        hi = target + 1.0
        while minimand(2.0 * hi) < minimand(hi):
            hi *= 2.0
            if hi > 1e12:
                raise RootBracketError("upper bracket for the infimum not found")
        lo = target * (1.0 + 1e-10)
        res = minimize_scalar(minimand, bounds=(lo, 2.0 * hi), method="bounded",
                              options={"xatol": 1e-11 * target})
        x_star = float(res.x)
        if x_star - lo < 1e-9 * target or 2.0 * hi - x_star < 1e-9 * target:
            raise RootBracketError(f"infimum attained at the boundary, phi={x_star}")
        branch = "call"
    else:
        def minimand(chi):
            _, b = ab_plus(chi, beta)
            return pref * b * b / (target - chi)

        lo, hi = 1e-12, target * (1.0 - 1e-10)
        res = minimize_scalar(minimand, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-11 * target})
        x_star = float(res.x)
        if x_star - lo < 1e-9 * target or hi - x_star < 1e-9 * target:
            raise RootBracketError(f"infimum attained at the boundary, chi={x_star}")
        branch = "put"
    return RateResult(float(res.fun), CevRateDiag(x_star, branch))


def richardson_fixed(K, params):
    """Richardson extrapolation (4 I_1600 - I_800)/3 of the variational
    minimum I_n, whose discretization error is O(1/n^2)."""
    return (4.0 * minimize_fixed(K, params, n=1600) - minimize_fixed(K, params, n=800)) / 3.0


def _elem_arcsin(z):
    """2F1(1/2,1/2;3/2;z) = arcsin(sqrt z)/sqrt z, arcsinh for z < 0."""
    if z > 0.0:
        s = math.sqrt(z)
        return math.asin(s) / s
    s = math.sqrt(-z)
    return math.asinh(s) / s


def _elem_arctan(z):
    """2F1(1/2,1;3/2;z) = arctanh(sqrt z)/sqrt z, arctan for z < 0."""
    if z > 0.0:
        s = math.sqrt(z)
        return math.atanh(s) / s
    s = math.sqrt(-z)
    return math.atan(s) / s


# the triples the rate-function formulas produce at beta = 1/2 (put branch:
# (1/2, 1/2; 3/2), (1/2, 3/2; 5/2); call branch: (1/2, 1; 3/2), (1/2, 1; 5/2)),
# and (1, 3/2; 5/2), each reduced to elementary functions (valid for z < 1, z != 0)
HYP2F1_ELEMENTARY = {
    (0.5, 0.5, 1.5): _elem_arcsin,
    (0.5, 1.0, 1.5): _elem_arctan,
    (0.5, 1.0, 2.5): lambda z: 1.5 / z * (1.0 + (z - 1.0) * _elem_arctan(z)),
    (0.5, 1.5, 2.5): lambda z: 1.5 / z * (_elem_arcsin(z) - math.sqrt(1.0 - z)),
    (1.0, 1.5, 2.5): lambda z: 3.0 / z * (_elem_arctan(z) - 1.0),
}

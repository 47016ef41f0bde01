"""Slow, independent reference computations shared by several test modules.

Nothing here reuses the closed forms under test: rate functions are
recomputed as Legendre-Fenchel transforms of the cumulant by direct numerical
maximization, the cumulant itself can be re-derived by integrating the
underlying Riccati equation, the limiting lognormal-model rate is solved
from its own transcendental equations, the general-beta rate is recomputed
as a one-dimensional infimum over the same a, b building blocks without
root solving, the variational minimum is extrapolated in the grid size, and
the 2F1 triples of beta = 1/2 are evaluated through their arcsin/arctan
forms.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from cevasian.float_strike import cumulant_float, solve_theta_c
from cevasian.model import RateResult, RootBracketError
from cevasian.rate_cev import CevRateDiag, ab_minus, ab_plus
from cevasian.rate_sqrt import cumulant_sqrt
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
    """sup_theta { theta*K - Lambda(theta) } for the fixed-strike cumulant."""
    pole = math.pi ** 2 / (2.0 * params.sigma ** 2)

    def g(th):
        lam = cumulant_sqrt(th, params)
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


# the four triples the rate-function formulas produce at beta = 1/2, each
# reduced to elementary functions (valid for z < 1, z != 0)
HYP2F1_ELEMENTARY = {
    (0.5, 0.5, 1.5): _elem_arcsin,
    (0.5, 1.0, 1.5): _elem_arctan,
    (0.5, 1.5, 2.5): lambda z: 1.5 / z * (_elem_arcsin(z) - math.sqrt(1.0 - z)),
    (1.0, 1.5, 2.5): lambda z: 3.0 / z * (_elem_arctan(z) - 1.0),
}

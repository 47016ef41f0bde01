"""Slow, independent reference computations shared by several test modules.

Nothing here reuses the closed forms under test: rate functions are
recomputed as Legendre-Fenchel transforms of the cumulant by direct numerical
maximization, the cumulant itself can be re-derived by integrating the
underlying Riccati equation, the limiting lognormal-model rate is solved
from its own transcendental equations, the general-beta rate is recomputed
as a one-dimensional infimum over the same a, b building blocks without
root solving, the variational minimum is extrapolated in the grid size,
the 2F1 triples of beta = 1/2 are evaluated through their arcsin/arctan
forms, the fixed-strike root (beta = 1/2 and general beta), the floating
call rate and the general-beta floating-strike system are solved in
many-digit arithmetic, and the incomplete beta integral A(y; p) of both
systems is integrated by quadrature.

Beside them live the checks that only the tests call.  The beta = 1/2
cumulant Lambda_f(theta) (`cumulant_float`, with the boundary theta_c of
its finite domain, `solve_theta_c`) is the Legendre-dual check,
J_f = sup_theta -Lambda_f; its tanh form is the rational continuation
(tanh u - ku)/(1 - ku tanh u), +inf once 1 - ku tanh u <= 0.  `ab_plus` and
`ab_minus` read the factors (a, b) of a root variable x off
`rate_cev._root_equation`; `rate_from_mc` estimates the rate as
-T log(price) of Monte Carlo prices along a maturity grid; `parity_gap` is
the deviation from fixed-strike put-call parity.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from cevasian.float_strike import _start
from cevasian.mc import McConfig, simulate_asian
from cevasian.model import (ConvergenceError, ModelParams, RateResult, RootBracketError, _exp,
                            _newton)
from cevasian.pricing import OptionSpec, average_forward
from cevasian.rate_cev import CevRateDiag, _root_equation
from cevasian.varsolve import minimize_fixed, minimize_float


def solve_theta_c(kappa: float, params: ModelParams) -> float:
    """Upper boundary theta_c of the finite domain of Lambda_f.

    In the variable v = sigma sqrt(2 theta)/2 it solves
    v - arctan(kappa v) = pi/2; theta_c = 2 v^2/sigma^2.  For kappa = 0 this
    is the fixed-strike boundary pi^2/(2 sigma^2).  The root lies in
    (pi/2, pi), where the equation rises, and is solved by `model._newton` in
    log v from the fixed-point step v = pi/2 + arctan(kappa pi/2).
    """
    if not abs(params.beta - 0.5) <= 1.0e-7:
        raise ValueError(f"square-root model requires beta = 1/2, got beta={params.beta}")
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
    if not abs(params.beta - 0.5) <= 1.0e-7:
        raise ValueError(f"square-root model requires beta = 1/2, got beta={params.beta}")
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


def ab_plus(x: float, beta: float) -> tuple[float, float]:
    """(a+, b+) of the put branch; 0 < x <= 1."""
    if not 0.0 < x <= 1.0:
        raise ValueError(f"ab_plus requires x in (0, 1], got {x}")
    if x == 1.0:
        return 0.0, 0.0
    A, q, yd, _ = _root_equation(math.log(x), 1.0, beta)[2]
    return A / yd, q * A / yd


def ab_minus(x: float, beta: float) -> tuple[float, float]:
    """(a-, b-) of the call branch; 1 <= x < inf.  ConvergenceError where b-
    exceeds the largest double (x near 1e308 at beta near 1/2)."""
    if not 1.0 <= x < math.inf:
        raise ValueError(f"ab_minus requires x in [1, inf), got {x}")
    if x == 1.0:
        return 0.0, 0.0
    A, q, yd, _ = _root_equation(math.log(x), 1.0, beta)[2]
    b = q * A / yd * math.sqrt(x)  # yd = x^(beta - 1)
    if math.isinf(b):
        raise ConvergenceError(f"b- at x={x} overflows a double")
    return A / (yd * math.sqrt(x)), b


def rate_from_mc(K: float, params: ModelParams, T_grid, config: McConfig,
                 side: str | None = None) -> np.ndarray:
    """Estimate the rate function from simulated prices: -T log(undiscounted
    price) along a decreasing maturity grid.

    The side defaults to the out-of-the-money one for strike K.  Entries where
    the estimate is statistically starved (mean below twice its standard
    error, or non-positive) come back as NaN rather than a bogus rate.
    """
    if side is None:
        side = "call" if K >= params.S0 else "put"
    out = np.empty(len(T_grid))
    for i, T in enumerate(T_grid):
        spec = OptionSpec("fixed", side, K, float(T))
        est = simulate_asian(spec, params, config)
        undisc = est.mean * _exp(params.r * T, "undiscounting factor")
        if undisc <= 0.0 or est.mean < 2.0 * est.std_error:
            out[i] = math.nan
        else:
            out[i] = -T * math.log(undisc)
    return out


def parity_gap(call_price: float, put_price: float, K: float,
               params: ModelParams, T: float) -> float:
    """Deviation from fixed-strike put-call parity C - P = e^{-rT}(A(T) - K)."""
    disc = _exp(-params.r * T, "discount factor")
    return call_price - put_price - disc * (average_forward(params, T) - K)


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


def a_quadrature(x, p, dps=30):
    """A(x; p) = int_x^1 s^-p (1-s)^(-1/2) ds by tanh-sinh quadrature in
    `dps` digits, in the variable r = sqrt(1 - s), which removes the square
    root's singularity: 2 int_0^sqrt(1-x) (1 - r^2)^-p dr."""
    with mpmath.workdps(dps):
        x, p = mpmath.mpf(x), mpmath.mpf(p)
        return mpmath.quad(lambda r: 2 * (1 - r * r) ** -p, [0, mpmath.sqrt(1 - x)])


def float_system_mpmath(kappa, beta, dps=30):
    """(J_f, u, v) of the floating-strike system (see `cevasian.float_strike`)
    in units of S0^(2-2beta)/sigma^2, for kappa != 1, solved in `dps` digits.

    Newton's method with difference quotients in t = logit v and
    s = logit u - t, started from the library's asymptotic start; A is
    mpmath's incomplete beta integral, and every relation is formed as
    written, with enough guard digits for its cancellations: the put
    relation's A(v) - A(u) ~ u^(1-beta) of deep puts and the call relation's
    k(v) ~ v^(beta-3/2) at the pole end."""
    t0, s0 = _start(kappa, math.log(kappa), beta)
    guard = int(max(abs(t0), abs(t0 + s0)) / 2.3) + 10
    with mpmath.workdps(dps + guard):
        b, lk = mpmath.mpf(beta), mpmath.log(mpmath.mpf(kappa))
        put = kappa > 1
        p = b if put else mpmath.mpf(3) / 2 - b
        d = 1 - p
        half = mpmath.mpf(1) / 2

        def A(x):
            if p == 1:
                return 2 * mpmath.atanh(mpmath.sqrt(1 - x))
            if x > 0.25:
                return mpmath.betainc(half, d, 0, 1 - x)
            # B(d, 1/2) - x^d sum_n (1/2)_n x^n/(n! (n + d)): mpmath's betainc
            # keeps only ~130 digits at 1 - x within 1e-400 of 1
            total, term, n = 0, mpmath.mpf(1), 0
            while abs(term) > mpmath.eps * abs(total) or n == 0:
                total += term / (n + d)
                term *= (n + half) * x / (n + 1)
                n += 1
            return mpmath.beta(d, half) - x ** d * total

        def system(t, s):
            v, u = 1 / (1 + mpmath.exp(-t)), 1 / (1 + mpmath.exp(-(t + s)))
            Au, Av = A(u), A(v)
            if put:
                h = lambda x: x ** d * mpmath.sqrt(1 - x)  # noqa: E731
                dB = Av - Au
                rel = (dB - h(u) / d - 2 * h(v)) / (h(u) / d)
                jf = u ** (2 * b - 2) * dB * (dB / 2 + h(u) - h(v)) / (3 - 2 * b)
                return rel, mpmath.log(2 * mpmath.sqrt(1 - v) * v ** -b / dB) - lk, jf, u, v
            k = lambda x: x ** -p * mpmath.sqrt(1 - x)  # noqa: E731
            SF = Au + Av
            SH = (k(u) + k(v) - SF / 2) / p
            rel = (SF - 2 * k(v) + k(u) / (1 - b)) / k(v)
            return rel, mpmath.log(v * (SF + SH) / SF) - lk, u ** (2 - 2 * b) * SF * SH / 2, u, v

        t, s = mpmath.mpf(t0), mpmath.mpf(s0)
        step = mpmath.mpf(10) ** -((dps + guard) // 2)
        for _ in range(60):
            f, g = system(t, s)[:2]
            ft, gt = system(t + step, s)[:2]
            fs, gs = system(t, s + step)[:2]
            a, c, e, h = (ft - f) / step, (fs - f) / step, (gt - g) / step, (gs - g) / step
            det = a * h - c * e
            dt, ds = (f * h - g * c) / det, (g * a - f * e) / det
            lam = 1
            while lam > 1e-3:  # damped while the step would leave 0 < v < 1
                try:
                    nt, ns = t - lam * dt, s - lam * ds
                    system(nt, ns)
                    break
                except (ValueError, ZeroDivisionError):
                    lam /= 2
            t, s = nt, ns
            if lam * (abs(dt) + abs(ds)) < mpmath.mpf(10) ** (-dps - 3) * (1 + abs(t) + abs(s)):
                break
        else:
            raise RuntimeError(f"float_system_mpmath did not converge at kappa={kappa}")
        jf, u, v = system(t, s)[2:]
        return float(jf), float(u), float(v)


def rate_cev_mpmath(m, beta, dps=30):
    """General-beta fixed-strike rate in units of S0^(2-2beta)/sigma^2 at
    K/S0 = m != 1, re-solved in `dps` digits.

    Root of log(x +- b/a) = log m in u = log x by mpmath's bracketing
    Anderson-Bjork solver: in logs the equation is near linear in u and its
    tolerance relative from m = 1e-300 to 1e300, and 15 guard digits carry
    e^u out to the put roots of beta just above 1/2 (u ~ -7e11 at
    beta = 1/2 + 1e-9, m = 1e-300).  At beta = 1/2 itself mpmath's 2F1 fails
    at such roots; `rate_sqrt_mpmath` is the reference there.  (a, b) come
    from the defining x^-beta 2F1(beta, c - 1; c; 1 - 1/x) on the put branch
    and from 2F1(beta, 1; c; 1 - x) on the call branch, where the defining
    argument nears 1 and mpmath's series stalls (c = 3/2, 5/2)."""
    with mpmath.workdps(dps + 15):
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
            return mpmath.log(x + (b / a if put else -b / a)) - lm

        lm = mpmath.log(mm)
        lo = hi = lm  # f = log(1 +- b/(a m)) there, so one end holds already
        while put and f(lo) >= 0:
            lo = 2 * lo - 1
        while not put and f(hi) <= 0:
            hi = 2 * hi + 1
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


def richardson_float(kappa, params):
    """The floating-strike twin of `richardson_fixed`."""
    return (4.0 * minimize_float(kappa, params, n=1600)
            - minimize_float(kappa, params, n=800)) / 3.0


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

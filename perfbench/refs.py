"""Reference computations made apart from the program under test.

Nothing here imports ``cevasian``.  The general-beta rate is re-solved with
mpmath's 2F1 at 30 digits, the beta = 1/2 rates are Legendre transforms of
cumulants written out here (the explicit tan/tanh form for fixed strikes, a
numerically integrated Riccati equation for floating strikes), and the
Black, Bachelier and forward-of-the-average formulas are written afresh.
These run only outside the timed region.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def forward_average(S0: float, mu: float, T: float) -> float:
    """E[(1/T) int_0^T S dt] = S0 (e^{mu T} - 1) / (mu T) for drift mu = r - q."""
    x = mu * T
    return S0 * (math.expm1(x) / x if x != 0.0 else 1.0)


def black(forward: float, K: float, vol: float, T: float, disc: float, side: str) -> float:
    """Undiscounted Black formula on ``forward`` times the discount factor."""
    s = vol * math.sqrt(T)
    d1 = (math.log(forward / K) + 0.5 * s * s) / s
    d2 = d1 - s
    if side == "call":
        return disc * (forward * norm_cdf(d1) - K * norm_cdf(d2))
    return disc * (K * norm_cdf(-d2) - forward * norm_cdf(-d1))


def bachelier(forward: float, vol: float, T: float, disc: float, side: str) -> float:
    """Bachelier price of (X)^+ (call) or (-X)^+ (put) for X with mean ``forward``."""
    s = vol * math.sqrt(T)
    d = forward / s
    if side == "call":
        return disc * (forward * norm_cdf(d) + s * norm_pdf(d))
    return disc * (-forward * norm_cdf(-d) + s * norm_pdf(d))


# ---------------------------------------------------------------------------
# fixed strike, general beta: the hypergeometric solution re-solved in mpmath
# ---------------------------------------------------------------------------

def _ab(x, beta):
    """(a, b) of the put branch (x < 1) or call branch (x > 1), in mpmath."""
    z = 1 - 1 / x
    d = abs(1 - x)
    xmb = x ** (-beta)
    a = 2 * xmb * mp.sqrt(d) * mp.hyp2f1(beta, 0.5, 1.5, z)
    b = mp.mpf(2) / 3 * xmb * d ** 1.5 * mp.hyp2f1(beta, 1.5, 2.5, z)
    return a, b


def rate_mpmath(m: float, beta: float) -> float:
    """Rate I(K, S0) in units of S0^(2(1-beta))/sigma^2 at moneyness m = K/S0.

    Solves x + b+/a+ = m (put, m < 1) or x - b-/a- = m (call, m > 1) by
    bisection in log x, then returns a b / 2.
    """
    beta = mp.mpf(beta)
    m = mp.mpf(m)
    put = m < 1
    sgn = 1 if put else -1

    def f(u):
        x = mp.exp(u)
        a, b = _ab(x, beta)
        return x + sgn * b / a - m

    if put:
        lo, hi = mp.log(m) - 1, mp.mpf(0)
        while f(lo) >= 0:
            lo *= 2
    else:
        lo, hi = mp.mpf(0), mp.log(m) + 1
        while f(hi) <= 0:
            hi *= 2
    # f increases with u on both branches
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < mp.mpf(10) ** -25 * max(1, abs(lo)):
            break
    a, b = _ab(mp.exp((lo + hi) / 2), beta)
    return float(a * b / 2)


# ---------------------------------------------------------------------------
# beta = 1/2: Legendre transforms of the fixed- and floating-strike cumulants
# ---------------------------------------------------------------------------

def _sup(f, lo: float, hi: float, n: int = 64, zooms: int = 10) -> float:
    """Maximum of a concave f on [lo, hi]; f takes an array and returns -inf
    outside its domain.  Grid scans that zoom in on the best point."""
    best = -math.inf
    for _ in range(zooms):
        xs = np.linspace(lo, hi, n)
        vals = f(xs)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, n - 1)])
    return best


def _cumulant_sqrt(th: np.ndarray) -> np.ndarray:
    """Limiting cumulant of the average at S0 = sigma = 1:
    sqrt(2 th) tan(sqrt(2 th)/2), continued by tanh for th < 0, +inf past the pole."""
    s = np.sqrt(2.0 * np.abs(th))
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(th >= 0.0, s * np.tan(0.5 * s), -s * np.tanh(0.5 * s))
    return np.where(th >= 0.5 * math.pi ** 2, math.inf, lam)


def rate_legendre_sqrt(m: float) -> float:
    """beta = 1/2 rate in units of S0/sigma^2: sup_th { th m - Lambda(th) }."""
    def g(th):
        return th * m - _cumulant_sqrt(th)

    if m > 1.0:
        return _sup(g, 0.0, 0.5 * math.pi ** 2 * (1.0 - 1e-12))
    # Lambda ~ -sqrt(2|th|) for large -th, so the maximizer is near -1/(2 m^2)
    return _sup(g, -2.0 / (m * m) - 10.0, 0.0)


def _riccati_cumulant(th: np.ndarray, kappa: float, steps: int = 1000) -> np.ndarray:
    """w(1) for w' = th + w^2/2, w(0) = -th kappa (S0 = sigma = 1), by classical
    Runge-Kutta over a vector of th; +inf where the solution blows up."""
    h = 1.0 / steps
    w = -th * kappa
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = th + 0.5 * w * w
            k2 = th + 0.5 * (w + 0.5 * h * k1) ** 2
            k3 = th + 0.5 * (w + 0.5 * h * k2) ** 2
            k4 = th + 0.5 * (w + h * k3) ** 2
            w = w + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            w = np.where(np.abs(w) > 1e8, math.inf, w)
    return np.where(np.isfinite(w), w, math.inf)


def rate_riccati_float(kappa: float) -> float:
    """beta = 1/2 floating-strike rate in units of S0/sigma^2: sup_th { -w(1) }."""
    def g(th):
        return -_riccati_cumulant(th, kappa)

    if kappa > 1.0:
        # finite below v - arctan(kappa v) = pi/2 with v = sqrt(th/2) < pi
        return _sup(g, 0.0, 2.0 * math.pi ** 2)
    return _sup(g, -2.0 * (2.0 / kappa + 2.0) ** 2, 0.0)

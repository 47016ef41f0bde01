"""Direct numerical solver for the variational problems that define the rate
functions: minimize the action

    A[g] = 1/2 int_0^1 (g'(t))^2 / (sigma^2 g(t)^(2 beta)) dt,   g(0) = S0,

over discretized paths subject to mean(g) >= K (fixed-strike call),
mean(g) <= K (put), or mean(g) <=/>= kappa g(1) (floating strike).  This is
the oracle used to validate the closed-form rate functions; it never touches
the hypergeometric machinery.

The discretized action (forward differences, midpoint evaluation of g^(2 beta))
couples only neighbouring nodes, so its Hessian is tridiagonal.  It is jointly
convex in the path values only at beta = 1/2: the 2x2 Hessian of v^2/u^(2 beta)
has determinant proportional to 2 beta (1 - 2 beta), negative for beta > 1/2,
so the Hessian can be indefinite there.  Solves run in two phases: a smooth
initial path (for fixed strikes, the shooting solution of the Euler-Lagrange
equation via its first integral; for floating strikes, a feasible exponential
path), then a Newton solve of the KKT system of the equality-constrained
problem (Nocedal & Wright, Numerical Optimization, ch. 16) with one banded
solve per step, step-halving to keep g > 0, an Armijo test once the iterate
is feasible and a Levenberg shift where the Hessian is not positive on the
constraint's tangent space.  A solve that does not meet its tolerances raises
ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
# ``minimize`` is unused here; perfbench/worker.py patches ``varsolve.minimize``
# by name for its per-layer trace, so the name stays importable.
from scipy.optimize import brentq, minimize  # noqa: F401

from .model import ConvergenceError, ModelParams, RootBracketError

default_n = 800    # path intervals
tol = 1.0e-12      # constraint error per unit of sum |cons_i g_i|, and
                   # Newton decrement per unit of action
max_newton = 100   # Newton steps per solve

_quad_nodes, _quad_wts = np.polynomial.legendre.leggauss(200)
_quad_nodes = 0.5 * (_quad_nodes + 1.0)  # map to [0, 1]
_quad_wts = 0.5 * _quad_wts


@dataclass
class PathGrid:
    """Discretized path g(t_i) at t_i = i/n, i = 0..n; values[0] = S0."""

    n: int
    values: np.ndarray


def action(path: PathGrid, params: ModelParams) -> float:
    """Discretized action: forward-difference g', midpoint g^(2 beta)."""
    g = np.asarray(path.values, dtype=float)
    h = 1.0 / path.n
    dg = np.diff(g)
    mid = 0.5 * (g[:-1] + g[1:])
    return float(np.sum(dg * dg / mid ** (2.0 * params.beta))
                 / (2.0 * params.sigma ** 2 * h))


def _action_and_grad(g: np.ndarray, n: int, params: ModelParams):
    beta, sig = params.beta, params.sigma
    h = 1.0 / n
    dg = np.diff(g)
    mid = 0.5 * (g[:-1] + g[1:])
    mpow = mid ** (-2.0 * beta)
    val = float(np.sum(dg * dg * mpow) / (2.0 * sig ** 2 * h))
    t1 = dg * mpow / (sig ** 2 * h)
    t2 = -beta * dg * dg * mpow / mid / (2.0 * sig ** 2 * h)
    grad = np.zeros_like(g)
    grad[:-1] += -t1 + t2
    grad[1:] += t1 + t2
    return val, grad


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# ---------------------------------------------------------------------------
# phase 1: smooth initial paths
# ---------------------------------------------------------------------------

def _shoot_fixed(K: float, params: ModelParams, n: int):
    """Shooting solution of the Euler-Lagrange equation for the fixed-strike
    problem, built from its first integral.

    In the variable y = (g/S0)^(1-beta) the EL equation becomes
    y'' = C y^gamma with gamma = beta/(1-beta), endpoint condition y'(1) = 0,
    so (y')^2 = 2C(1-beta)(y^p - y1^p) with p = 1/(1-beta) and y1 = y(1).
    Quadrature of dt = dy/|y'| fixes C for given y1 (time normalization) and
    the averaging constraint selects y1.  The substitution
    y = y1 +/- (1 - y1) s^2 removes the square-root singularity at y = y1.
    """
    beta, S0 = params.beta, params.S0
    p = 1.0 / (1.0 - beta)
    target = K / S0
    put = target < 1.0

    def integrals(y1: float):
        # M = int dy/sqrt(|y^p - y1^p|), N = int y^p dy/sqrt(...), from y1 to 1
        if put:
            s = _quad_nodes
            y = y1 + (1.0 - y1) * s * s
            jac = 2.0 * (1.0 - y1) * s
            root = np.sqrt(np.maximum(y ** p - y1 ** p, 0.0))
        else:
            s = _quad_nodes
            y = y1 - (y1 - 1.0) * s * s
            jac = 2.0 * (y1 - 1.0) * s
            root = np.sqrt(np.maximum(y1 ** p - y ** p, 0.0))
        w = jac / np.where(root > 0, root, np.inf)
        M = float(np.sum(_quad_wts * w))
        N = float(np.sum(_quad_wts * w * y ** p))
        return M, N

    def mean_minus_target(y1: float) -> float:
        M, N = integrals(y1)
        return N / M - target

    if put:
        lo = target
        while mean_minus_target(lo) >= 0.0:
            lo *= 0.5
            if lo < 1e-200:
                raise RootBracketError(f"shooting endpoint not bracketed for K/S0={target}")
        y1 = brentq(mean_minus_target, lo, 1.0 - 1e-9, xtol=1e-14)
    else:
        hi = max(2.0, 2.0 * target)
        while mean_minus_target(hi) <= 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise RootBracketError(f"shooting endpoint not bracketed for K/S0={target}")
        y1 = brentq(mean_minus_target, 1.0 + 1e-9, hi, xtol=1e-12)

    # reconstruct t(y) on a fine s-grid and sample y on the uniform t-grid
    m = 4 * n
    s = np.linspace(0.0, 1.0, m + 1)
    if put:
        y = y1 + (1.0 - y1) * s * s
        jac = 2.0 * (1.0 - y1) * s
        root2 = y ** p - y1 ** p
    else:
        y = y1 - (y1 - 1.0) * s * s
        jac = 2.0 * (y1 - 1.0) * s
        root2 = y1 ** p - y ** p
    integrand = np.zeros_like(s)
    integrand[1:] = jac[1:] / np.sqrt(np.maximum(root2[1:], 1e-300))
    # limiting value at s = 0 (turning point): jac/root -> 2 sqrt((1-y1)/(p y1^(p-1)))
    integrand[0] = 2.0 * math.sqrt(abs(1.0 - y1) / (p * y1 ** (p - 1.0)))
    F = np.concatenate(([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s))))
    t_of_s = 1.0 - F / F[-1]  # t runs 1 -> 0 as s runs 0 -> 1
    t_grid = np.linspace(0.0, 1.0, n + 1)
    y_on_t = np.interp(t_grid, t_of_s[::-1], y[::-1])
    g = S0 * y_on_t ** p
    g[0] = S0
    return PathGrid(n, g)


def _exp_feasible_float(kappa: float, params: ModelParams, n: int) -> PathGrid:
    """Exponential path S0 e^{ct} meeting the discrete constraint exactly:
    the trapezoid mean of e^{c(t-1)} equals kappa."""
    t = np.linspace(0.0, 1.0, n + 1)
    w = _trapezoid_weights(n)

    def phi(c: float) -> float:
        return float(w @ np.exp(c * (t - 1.0))) - kappa

    if kappa < 1.0:
        hi = 1.0
        while phi(hi) > 0.0:
            hi *= 2.0
        c = brentq(phi, 0.0, hi, xtol=1e-13)
    else:
        lo = -1.0
        while phi(lo) < 0.0:
            lo *= 2.0
        c = brentq(phi, lo, 0.0, xtol=1e-13)
    return PathGrid(n, params.S0 * np.exp(c * t))


# ---------------------------------------------------------------------------
# phase 2: Newton-KKT certification
# ---------------------------------------------------------------------------

def _hessian(g: np.ndarray, n: int, params: ModelParams) -> np.ndarray:
    """Tridiagonal Hessian of the action in g[1:] (g[0] = S0 is fixed), in the
    (1, 1)-banded layout of ``scipy.linalg.solve_banded``."""
    beta = params.beta
    c = 0.5 * n / params.sigma ** 2
    dg = np.diff(g)
    mid = 0.5 * (g[:-1] + g[1:])
    mpow = mid ** (-2.0 * beta)
    # second derivatives of dg^2 mid^(-2 beta) in (dg, mid)
    f_dd = 2.0 * mpow
    f_dm = -4.0 * beta * dg * mpow / mid
    f_mm = 2.0 * beta * (2.0 * beta + 1.0) * dg * dg * mpow / (mid * mid)
    diag = np.zeros_like(g)
    diag[:-1] += c * (f_dd - f_dm + 0.25 * f_mm)
    diag[1:] += c * (f_dd + f_dm + 0.25 * f_mm)
    off = c * (0.25 * f_mm - f_dd)
    ab = np.zeros((3, n))
    ab[0, 1:] = off[1:]
    ab[1] = diag[1:]
    ab[2, :-1] = off[1:]
    return ab


def _kkt_step(H: np.ndarray, grad: np.ndarray, a: np.ndarray, e: float,
              shift: float):
    """Newton step of the KKT system [[H + shift I, a], [a', 0]] [d; nu] =
    [-grad; -e].  With (H + shift I) x1 = grad and (H + shift I) x2 = a,
    nu = (e - a.x1)/(a.x2) and d = -x1 - nu x2.  Returns (d, nu, dec), where
    dec = d_t' (H + shift I) d_t is the Newton decrement of the step d_t for
    e = 0, so that a rounding-level constraint error does not enter it."""
    if shift:
        H = H.copy()
        H[1] += shift
    try:
        x = solve_banded((1, 1), H, np.column_stack((grad, a)), check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular Newton system: {exc}") from exc
    x1, x2 = x[:, 0], x[:, 1]
    ax2 = a @ x2  # a numpy scalar: a zero gives inf, caught below
    nu_t = -(a @ x1) / ax2
    step_t = -x1 - nu_t * x2
    dec = -float((grad + nu_t * a) @ step_t)
    step = step_t - (e / ax2) * x2
    if not (math.isfinite(dec) and np.all(np.isfinite(step))):
        raise ConvergenceError("non-finite Newton step")
    return step, float(nu_t + e / ax2), dec


def _certify(init: PathGrid, cons_vec: np.ndarray, cons_target: float,
             params: ModelParams, n: int):
    """Minimize the action subject to cons_vec . g = cons_target (the active
    averaging constraint), starting from ``init``.  Returns (value, info).

    The certificate is the Newton decrement d' H d = -(grad A + nu a) . d of
    the tangential step at the returned path, i.e. the KKT residual in the
    inverse-Hessian norm on the constraint's tangent space, about twice the
    error of the value; it is reported relative to the action as
    ``kkt_residual``.  Raises ConvergenceError if it or the constraint error
    stays above tolerance."""
    S0 = params.S0
    a = cons_vec[1:]
    g = np.asarray(init.values, dtype=float).copy()
    val, grad = _action_and_grad(g, n, params)

    for it in range(1, max_newton + 1):
        H = _hessian(g, n, params)
        if not np.all(np.isfinite(H)):
            raise ConvergenceError(f"non-finite Hessian at Newton step {it}")
        e = float(cons_vec @ g) - cons_target
        feasible = abs(e) <= tol * float(np.abs(cons_vec) @ np.abs(g))
        base = float(np.max(np.abs(H[1])))
        shift = 0.0
        for _ in range(20):  # shifts up to 1e8 times the largest diagonal entry
            step, nu, dec = _kkt_step(H, grad[1:], a, e, shift)
            # converged: feasible, no negative curvature along the unshifted
            # step, and a decrement at the tolerance
            if shift == 0.0 and feasible and 0.0 <= dec <= tol * val:
                info = {
                    "converged": True,
                    "constraint_err": e,
                    "lam": -nu,  # sign convention of min A - lam (mean - K)
                    "floor_active": bool(np.min(g) <= 1e-9 * S0),
                    "path": PathGrid(n, g),
                    "n": n,
                    "iterations": it,
                    "kkt_residual": dec / val if val > 0.0 else 0.0,
                }
                return val, info
            trial = _line_search(g, val, -dec, step, feasible, params, n)
            if trial is not None:
                break
            # at least twice the negative curvature measured along the step
            shift = max(10.0 * shift, 1e-10 * base, -2.0 * dec / float(step @ step))
        else:
            raise ConvergenceError(f"no acceptable step at Newton step {it} "
                                   f"(Levenberg shift {shift:.3g})")
        g, val, grad = trial
    raise ConvergenceError(f"Newton-KKT solve not converged in {max_newton} steps: "
                           f"decrement {dec:.3g}, constraint error {e:.3g}")


def _line_search(g: np.ndarray, val: float, slope: float, step: np.ndarray,
                 armijo: bool, params: ModelParams, n: int):
    """Halve the step until g stays positive and, with ``armijo``, the action
    falls by at least 1e-4 of the predicted decrease.  Returns (g, value,
    grad) at the accepted point, or None if there is none (which, with
    ``armijo``, includes a step that is not a descent direction)."""
    if armijo and not slope < 0.0:
        return None
    alpha = 1.0
    for _ in range(60):
        trial = g.copy()
        trial[1:] += alpha * step
        if np.min(trial) > 0.0:
            tval, tgrad = _action_and_grad(trial, n, params)
            if math.isfinite(tval) and (not armijo or tval <= val + 1e-4 * alpha * slope):
                return trial, tval, tgrad
        alpha *= 0.5
    return None


def minimize_fixed(K: float, params: ModelParams, n: int = default_n,
                   full_output: bool = False):
    """Minimum action subject to the fixed-strike averaging constraint.

    Returns the certified minimum (a float), or (value, info) with solver
    diagnostics when full_output is set: ``iterations`` (Newton steps),
    ``kkt_residual`` (Newton decrement per unit of action), ``constraint_err``,
    the multiplier ``lam``, ``floor_active`` (min g <= 1e-9 S0) and the path.
    Raises ConvergenceError rather than return an uncertified value.
    """
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    S0 = params.S0
    target = K / S0
    if abs(target - 1.0) < 1e-8:
        # constant path is (near-)feasible; polish from the linear tilt
        c = 2.0 * (target - 1.0)
        t = np.linspace(0.0, 1.0, n + 1)
        init = PathGrid(n, S0 * (1.0 + c * t))
    else:
        init = _shoot_fixed(K, params, n)

    w = _trapezoid_weights(n)
    value, info = _certify(init, w, K, params, n)
    if full_output:
        return value, info
    return value


def minimize_float(kappa: float, params: ModelParams, n: int = default_n,
                   full_output: bool = False):
    """Minimum action subject to mean(g) = kappa g(1) (floating strike).

    The OTM floating constraint mean(g) >= kappa g(1) (put, kappa > 1) or
    <= (call, kappa < 1) is active at the optimum, so it is imposed as an
    equality; the zero-cost constant path handles kappa = 1.  Returns and
    raises as :func:`minimize_fixed`.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if abs(kappa - 1.0) < 1e-10:
        if full_output:
            return 0.0, {"converged": True, "constraint_err": 0.0, "lam": 0.0,
                         "floor_active": False, "iterations": 0, "kkt_residual": 0.0,
                         "path": PathGrid(n, np.full(n + 1, params.S0)), "n": n}
        return 0.0
    init = _exp_feasible_float(kappa, params, n)
    w = _trapezoid_weights(n)
    cons = w.copy()
    cons[-1] -= kappa
    value, info = _certify(init, cons, 0.0, params, n)
    if full_output:
        return value, info
    return value

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
so the Hessian can be indefinite there.  Every solve starts from one kind of
path, S0 (base/S0)^s, with the scalar s chosen so that the averaging
constraint holds.  The base is a smooth path (S0 e^{2t - t^2} for a fixed
strike, S0 e^t for a floating one) where K/S0 or kappa is at least ``edge``.
Below the edge a continuation ladder steps the target down geometrically and
rescales the certified path of each rung to start the next.  Each start is
certified by a Newton solve of the KKT system of the equality-constrained
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
from scipy.optimize import minimize  # noqa: F401

from .model import ConvergenceError, ModelParams

default_n = 800    # path intervals
tol = 1.0e-12      # constraint error per unit of sum |cons_i g_i|, and
                   # Newton decrement per unit of action
max_newton = 100   # Newton steps per solve
edge = 0.2         # K/S0 or kappa below which the continuation ladder runs
# the info keys that rate diagnostics and the CLI report with a solved value
CERTIFICATE = ("iterations", "kkt_residual", "constraint_err", "rungs")


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
# start: a smooth path rescaled to meet the constraint
# ---------------------------------------------------------------------------

def _rescaled(base: np.ndarray, w: np.ndarray, ref: int, m: float) -> np.ndarray:
    """The path S0 (base/S0)^s, S0 = base[0], whose trapezoid mean is m times
    its node ``ref`` (0 for a fixed strike, -1 for a floating one).

    With L = log(base/S0) and D = L - L[ref], s is the root of
    F(s) = log(w . e^{sD}) - log m.  F is convex in s (a log-sum-exp of linear
    functions), so Newton's method from s = 0 overshoots at most once and then
    converges monotonically.  The sum is shifted by its largest term, so
    nothing overflows.  Where |F(0)| is at rounding level, as at the money,
    s = 0 gives the constant path."""
    L = np.log(base / base[0])
    D = L - L[ref]
    s = 0.0
    for _ in range(max_newton):
        x = s * D
        top = np.max(x)
        e = w * np.exp(x - top)
        total = np.sum(e)
        F = math.log(total) + top - math.log(m)
        if abs(F) <= 1e-14:
            return base[0] * np.exp(s * L)
        s -= F * total / (e @ D)  # numpy division: a zero slope gives inf
        if not math.isfinite(s):
            break
    raise ConvergenceError(f"no rescaled start path has mean {m} times its node {ref}")


# ---------------------------------------------------------------------------
# Newton-KKT certification
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


def _minimize(m: float, ref: int, params: ModelParams, n: int):
    """Certified minimum of the action subject to mean(g) = m g[ref].

    At or above ``edge`` the solve starts from a rescaled smooth path:
    S0 e^{2t - t^2} for a fixed strike, whose end slope is zero like the
    optimum's, and S0 e^t for a floating one.  Below the edge the target
    climbs down a ladder edge, edge/2, edge/4, ..., m (numerical continuation;
    Allgower & Georg, Introduction to Numerical Continuation Methods, SIAM
    2003), and each rung starts from the certified path of the rung before,
    rescaled.  ``info`` is that of the last rung, with ``iterations`` summed
    over the rungs and ``rungs`` their number."""
    w = _trapezoid_weights(n)
    t = np.linspace(0.0, 1.0, n + 1)
    base = params.S0 * np.exp(t * (2.0 - t) if ref == 0 else t)
    rungs = [edge / 2.0 ** k for k in range(max(0, math.ceil(math.log2(edge / m))))] + [m]
    iterations = 0
    # a path that sinks towards 0 can overflow the Hessian; _certify checks
    # every Hessian, step and trial action and raises on a non-finite one
    with np.errstate(all="ignore"):
        for rung in rungs:
            cons = w.copy()
            cons[ref] -= rung
            init = PathGrid(n, _rescaled(base, w, ref, rung))
            value, info = _certify(init, cons, 0.0, params, n)
            base = info["path"].values
            iterations += info["iterations"]
    info.update(iterations=iterations, rungs=len(rungs))
    return value, info


def minimize_fixed(K: float, params: ModelParams, n: int = default_n,
                   full_output: bool = False):
    """Minimum action subject to the fixed-strike averaging constraint.

    Returns the certified minimum (a float), or (value, info) with solver
    diagnostics when full_output is set: ``iterations`` (Newton steps over
    all rungs), ``rungs`` (certified solves of the continuation ladder),
    ``kkt_residual`` (Newton decrement per unit of action), ``constraint_err``,
    the multiplier ``lam``, ``floor_active`` (min g <= 1e-9 S0) and the path.
    Raises ConvergenceError rather than return an uncertified value.
    """
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    value, info = _minimize(K / params.S0, 0, params, n)
    return (value, info) if full_output else value


def minimize_float(kappa: float, params: ModelParams, n: int = default_n,
                   full_output: bool = False):
    """Minimum action subject to mean(g) = kappa g(1) (floating strike).

    The OTM floating constraint mean(g) >= kappa g(1) (put, kappa > 1) or
    <= (call, kappa < 1) is active at the optimum, so it is imposed as an
    equality.  Returns and raises as :func:`minimize_fixed`.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    value, info = _minimize(kappa, -1, params, n)
    return (value, info) if full_output else value

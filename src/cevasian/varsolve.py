"""Direct numerical solver for the variational problems that define the rate
functions: minimize the action

    A[g] = 1/2 int_0^1 (g'(t))^2 / (sigma^2 g(t)^(2 beta)) dt,   g(0) = S0,

over discretized paths subject to mean(g) >= K (fixed-strike call),
mean(g) <= K (put), or mean(g) <=/>= kappa g(1) (floating strike).  This is
the oracle used to validate the closed-form rate functions; it never touches
the hypergeometric machinery.

The problem is scale-free: the action of g is the rate unit
S0^(2 - 2 beta)/sigma^2 times that of p = g/S0 at sigma = 1, subject to
mean(p) = m p[ref] with m = K/S0 or kappa.  The solve runs on p alone, and
:func:`_minimize` scales the minimum, multiplier, constraint error and path.

The discretized action (forward differences, midpoint evaluation of p^(2 beta))
couples only neighbouring nodes, so its Hessian is tridiagonal.  It is jointly
convex in the path values only at beta = 1/2: the 2x2 Hessian of v^2/u^(2 beta)
has determinant proportional to 2 beta (1 - 2 beta), negative for beta > 1/2,
so the Hessian can be indefinite there.  Every solve starts from one kind of
path, base^s, with the scalar s chosen so that the averaging constraint holds.
The base is a smooth path (e^{2t - t^2} for a fixed strike, e^t for a floating
one) where m is at least ``edge``.  Below the edge a continuation ladder steps
the target down geometrically and rescales the certified path of each rung to
start the next.  Each start is certified by a Newton solve of the KKT system
of the equality-constrained problem (Nocedal & Wright, Numerical Optimization,
ch. 16): a step makes one pass over the interval terms for the action,
gradient and Hessian and one LAPACK tridiagonal solve (``gtsv``), with
step-halving to keep p > 0, an Armijo test once the iterate is feasible and a
Levenberg shift where the Hessian is not positive on the constraint's tangent
space.  The Hessian and the step are checked finite exactly, by one dot
product with zeros each (NaN where a NaN or an infinity is).  The first rung's
start constants sit in an LRU memo of read-only arrays on (n, ref), and within
|m - 1| < 1e-9 n of the money the path is stored less 1.  A solve that does
not meet its tolerances raises ConvergenceError.  On n = 1 the constraint
leaves one path, which is returned as it is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv
# ``minimize`` is unused here; perfbench/worker.py patches ``varsolve.minimize``
# by name for its per-layer trace, so the name stays importable.
from scipy.optimize import minimize  # noqa: F401

from .model import ConvergenceError, ModelParams, rate_unit

default_n = 800    # path intervals
tol = 1.0e-12      # constraint error per unit of sum |cons_i p_i|, and
                   # Newton decrement per unit of action
max_newton = 100   # Newton steps per solve
edge = 0.2         # K/S0 or kappa below which the continuation ladder runs


@dataclass(slots=True)
class PathGrid:
    """Discretized path g(t_i) at t_i = i/n, i = 0..n; values[0] = S0 (1 in the solve)."""

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


def _action_and_grad(p: np.ndarray, n: int, beta: float, level: float = 0.0):
    """Action at sigma = 1, gradient and interval terms (mid, mpow, s1, s2) at
    the path p + level: with c = n/2, mpow = mid^(-2 beta), r = dp mpow,
    s1 = r/mid and s2 = dp s1, the action is c dp . r, and interval i adds
    -2c r - beta c s2 to the gradient at node i and 2c r - beta c s2 at node i + 1."""
    c = 0.5 * n
    dp, mid = p[1:] - p[:-1], 0.5 * (p[:-1] + p[1:])
    if level:
        mid += level
    mpow = mid ** (-2.0 * beta)
    r = dp * mpow
    s1 = r / mid
    s2 = dp * s1
    t1, t2 = (2.0 * c) * r, (-beta * c) * s2
    grad = np.empty_like(p)
    grad[:-1], grad[-1] = t2 - t1, 0.0
    grad[1:] += t1 + t2
    return c * float(dp @ r), grad, (mid, mpow, s1, s2)


# ---------------------------------------------------------------------------
# start: a smooth path rescaled to meet the constraint
# ---------------------------------------------------------------------------

def _log_shape(base: np.ndarray, w: np.ndarray, ref: int) -> tuple:
    """(L, w, w D, max D, min D, D - max D, D - min D) of :func:`_rescale` for
    a path ``base`` with base[0] = 1."""
    L = np.log(base)
    D = L - L[ref]
    hi, lo = D.max(), D.min()
    return L, w, w * D, hi, lo, D - hi, D - lo


@functools.lru_cache(maxsize=4)  # an entry holds five arrays of n + 1 doubles
def _smooth_shape(n: int, ref: int) -> tuple:
    """The first rung's start constants: a read-only :func:`_log_shape`."""
    t = np.linspace(0.0, 1.0, n + 1)
    w = np.full(n + 1, 1.0 / n)
    w[::n] *= 0.5  # the trapezoid weights
    shape = _log_shape(np.exp(t * (2.0 - t) if ref == 0 else t), w, ref)
    for x in shape[:3] + shape[5:]:  # L, w, w D, D - max D and D - min D
        x.flags.writeable = False
    return shape


def _rescale(shape: tuple, ref: int, m: float, level: float = 0.0) -> np.ndarray:
    """The path base^s, less ``level`` (0 or 1), whose trapezoid mean is m
    times its node ``ref`` (0 for a fixed strike, -1 for a floating one), from
    the :func:`_log_shape` of base.

    With L = log base and D = L - L[ref], s is the root of
    F(s) = log(w . e^{sD}) - log m.  F is convex in s (a log-sum-exp of linear
    functions), so Newton's method from s = 0 overshoots at most once and then
    converges monotonically.  The sum is shifted by its largest term, s max D
    for s >= 0 and s min D below, so nothing overflows.  Where |F(0)| is at
    rounding level, as at the money, s = 0 gives the constant path."""
    L, w, wD, hi, lo, D_hi, D_lo = shape
    s = 0.0
    for _ in range(max_newton):
        top, D_top = (hi, D_hi) if s >= 0.0 else (lo, D_lo)
        e = np.exp(s * D_top)
        total = w @ e
        F = math.log(total) + s * top - math.log(m)
        if abs(F) <= 1e-14:
            return np.expm1(s * L) if level else np.exp(s * L)
        s -= F * total / (wD @ e)  # numpy division: a zero slope gives inf
        if not math.isfinite(s):
            break
    raise ConvergenceError(f"no rescaled start path has mean {m} times its node {ref}")


# ---------------------------------------------------------------------------
# Newton-KKT certification
# ---------------------------------------------------------------------------

def _hessian(terms: tuple, n: int, beta: float):
    """Tridiagonal Hessian (diag, off) of the action in p[1:] (p[0] = 1 is
    fixed), from the interval terms of :func:`_action_and_grad` at that path."""
    mid, mpow, s1, s2 = terms
    c = 0.5 * n
    # c times the second derivatives of dp^2 mpow in (dp, mid), the last quartered
    f_dd = (2.0 * c) * mpow
    f_dm = (-4.0 * beta * c) * s1
    f_mm4 = (0.5 * beta * (2.0 * beta + 1.0) * c) * s2 / mid
    # node i + 1 ends interval i and starts interval i + 1
    end = f_dd + f_mm4
    diag = end + f_dm
    diag[:-1] += end[1:] - f_dm[1:]
    return diag, f_mm4[1:] - f_dd[1:]


def _kkt_step(diag: np.ndarray, off: np.ndarray, grad: np.ndarray, a: np.ndarray,
              e: float, shift: float):
    """Newton step of the KKT system [[H + shift I, a], [a', 0]] [d; nu] =
    [-grad; -e], H = tridiag(off, diag, off).  One LAPACK ``gtsv`` call solves
    (H + shift I) [x1, x2] = [grad, a]; nu = (e - a.x1)/(a.x2), d = -x1 - nu x2.
    Returns (d, nu, dec, d_t), where dec = d_t' (H + shift I) d_t is the
    Newton decrement of the tangential step d_t, the step for e = 0, so that
    a rounding-level constraint error does not enter it."""
    b = np.empty((grad.size, 2), order="F")  # Fortran order, as gtsv takes it
    b[:, 0], b[:, 1] = grad, a
    _, _, _, x, info = dgtsv(off, diag + shift if shift else diag, off, b, overwrite_b=1)
    if info:
        raise ConvergenceError("singular Newton system: singular matrix")
    x1, x2 = x[:, 0], x[:, 1]
    ax2 = a @ x2  # a numpy scalar: a zero gives inf, caught below
    nu_t = -(a @ x1) / ax2
    step_t = -x1 - nu_t * x2
    dec = -float((grad + nu_t * a) @ step_t)
    step = step_t - (e / ax2) * x2
    if not (math.isfinite(dec) and math.isfinite(step @ np.zeros(step.size))):
        raise ConvergenceError("non-finite Newton step")
    return step, float(nu_t + e / ax2), dec, step_t


def _certify(p: np.ndarray, cons_vec: np.ndarray, beta: float, n: int,
             level: float, e0: float):
    """Minimize the action at sigma = 1 subject to cons_vec . p = 0 (the active
    averaging constraint), starting from the path p.  Returns (value, info).

    The certificate is the Newton decrement d' H d = -(grad A + nu a) . d of
    the tangential step at the returned path, i.e. the KKT residual in the
    inverse-Hessian norm on the constraint's tangent space, about twice the
    error of the value; it is reported relative to the action as
    ``kkt_residual``.  Raises ConvergenceError if it or the constraint error
    stays above tolerance.  p is the path less ``level`` (0, or 1 near the
    money), and e0 = level (1 - m) is the constraint's value at the constant
    path level."""
    a, acons = cons_vec[1:], np.abs(cons_vec)
    zero = np.zeros(n)
    val, grad, terms = _action_and_grad(p, n, beta, level)
    repeat = False  # whether the last step left p as it was, so that the next repeats it

    for it in range(1, max_newton + 1):
        diag, off = _hessian(terms, n, beta)
        # x @ 0 is nan where x has a nan or an inf; off's terms, all >= 0, add up in diag
        if not math.isfinite(diag @ zero):
            raise ConvergenceError(f"non-finite Hessian at Newton step {it}")
        e = float(cons_vec @ p) + e0
        # sum |cons_i p_i|: p >= 0, or near the money a deviation of one sign
        feasible = abs(e) <= tol * (abs(float(acons @ p)) + abs(e0))
        shift = 0.0
        for _ in range(20):  # shifts up to 1e8 times the largest diagonal entry
            step, nu, dec, step_t = _kkt_step(diag, off, grad[1:], a, e, shift)
            # converged: feasible, no negative curvature along the unshifted
            # step (in deviation variables, where the Hessian is positive, or
            # at a repeat, none beyond rounding), and a decrement at the tolerance
            if (shift == 0.0 and feasible and (0.0 <= dec or level or repeat)
                    and abs(dec) <= tol * val):
                return val, {"converged": True, "constraint_err": e,
                             "lam": -nu,  # sign convention of min A - lam (mean - K)
                             "floor_active": bool(p.min() + level <= 1e-9),
                             "path": PathGrid(n, p + level), "n": n, "iterations": it,
                             # |dec|, with the sign of a zero kept
                             "kkt_residual": max(dec, -dec) / val if val > 0.0 else 0.0}
            if repeat:
                raise ConvergenceError(f"Newton-KKT solve stalled at step {it}: "
                                       f"decrement {dec:.3g}")
            trial = _line_search(p, val, -dec, step, feasible, beta, n, level)
            if trial is not None:
                break
            # at least twice the negative curvature along dec's tangential step;
            # numpy division: a zero step gives nan, which max passes over
            shift = max(10.0 * shift, 1e-10 * float(np.abs(diag).max()),
                        -2.0 * dec / (step_t @ step_t))
        else:
            raise ConvergenceError(f"no acceptable step at Newton step {it} "
                                   f"(Levenberg shift {shift:.3g})")
        repeat = np.array_equal(trial[0], p)
        p, val, grad, terms = trial
    raise ConvergenceError(f"Newton-KKT solve not converged in {max_newton} steps: "
                           f"decrement {dec:.3g}, constraint error {e:.3g}")


def _line_search(p: np.ndarray, val: float, slope: float, step: np.ndarray,
                 armijo: bool, beta: float, n: int, level: float = 0.0):
    """Halve the step until p + level stays positive and, with ``armijo``,
    the action falls by at least 1e-4 of the predicted decrease.  Returns (p,
    value, grad, terms) at the accepted point, or None if there is none
    (which, with ``armijo``, includes a step that is not a descent direction)."""
    if armijo and not slope < 0.0:
        return None
    alpha = 1.0
    for _ in range(60):
        trial = p.copy()
        trial[1:] += alpha * step if alpha < 1.0 else step
        if trial.min() > -level:
            tval, tgrad, terms = _action_and_grad(trial, n, beta, level)
            if math.isfinite(tval) and (not armijo or tval <= val + 1e-4 * alpha * slope):
                return trial, tval, tgrad, terms
        alpha *= 0.5
    return None


def _one_path(m: float, ref: int, beta: float):
    """(value, info) on n = 1, whose one feasible path is [1, q], q = 2m - 1
    for a fixed strike (ref 0) or 1/(2m - 1) for a floating one (ref -1): the
    action u^2/2 with u = (q - 1) mid^-beta, and the multiplier dA/dq over
    q's weight in the constraint, at a zero decrement after no Newton step."""
    q = 2.0 * m - 1.0 if ref == 0 else 0.5 / (m - 0.5)  # 1/(2m - 1), whose 2m can overflow
    if q == math.inf:
        raise ConvergenceError("the one path on n = 1 ends at 2 K/S0 - 1 = inf")
    dq = q - 1.0 if ref == 0 else (1.0 - m) / (m - 0.5)  # q - 1 without cancellation
    h = (0.5 + 0.5 * q) ** -beta  # mid^-beta: mid^(-2 beta) can underflow where u does not
    u = dq * h
    return 0.5 * u * u, {"converged": True, "iterations": 0, "kkt_residual": 0.0, "n": 1,
                         "constraint_err": 0.5 + 0.5 * q - m * (q if ref else 1.0),
                         "lam": u * h * (1.0 - beta * dq / (1.0 + q)) / (0.5 + ref * m),
                         "floor_active": q <= 1e-9, "path": PathGrid(1, np.array([1.0, q]))}


def _minimize(name: str, m: float, ref: int, params: ModelParams, n: int):
    """Certified minimum of the action subject to mean(g) = m g[ref], where
    ``name`` is what m is called in the error for an infeasible target.

    The solve runs on p = g/S0 at sigma = 1.  At or above ``edge`` it starts
    from a rescaled smooth path: e^{2t - t^2} for a fixed strike, whose end
    slope is zero like the optimum's, and e^t for a floating one.  Below the
    edge the target climbs down a ladder edge, edge/2, ..., m (numerical
    continuation; Allgower & Georg, Introduction to Numerical Continuation
    Methods, SIAM 2003), each rung starting from the certified path of the
    rung before, rescaled.  ``info`` is that of the last rung in the units of
    S0 and sigma, with ``iterations`` summed over the rungs and ``rungs``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    unit = rate_unit(params)  # ConvergenceError where it, and so sigma^2, leaves the doubles
    if not math.isfinite(m):  # K/S0 beyond the doubles
        raise ValueError(f"{name} = {m:g} is not a finite double")
    if not m > 0.5 / n:
        # node ref alone carries trapezoid weight 1/(2n), so the mean of a
        # positive path is more than 1/(2n) times it
        raise ValueError(f"{name} = {m:g} cannot be met on n = {n} intervals: "
                         f"it must exceed 1/(2n) = {0.5 / n:g}")
    shape = _smooth_shape(n, ref)
    w = shape[1]
    # near the money the path is stored less 1, so that its rise over an
    # interval, about |m - 1|/n, is not rounded to the doubles around 1
    level = 1.0 if abs(m - 1.0) < 1e-9 * n else 0.0
    rungs = [edge / 2.0 ** k for k in range(max(0, math.ceil(math.log2(edge / m))))] + [m]
    iterations = 0
    # a path that sinks towards 0 can overflow the Hessian; _certify checks
    # every Hessian, step and trial action and raises on a non-finite one
    with np.errstate(all="ignore"):
        for k, rung in enumerate(rungs):
            if n == 1:  # m > 1/2 > edge: one rung, on which nothing can move
                value, info = _one_path(m, ref, params.beta)
                break
            cons = w.copy()
            cons[ref] -= rung
            shape = _log_shape(info["path"].values, w, ref) if k else shape
            value, info = _certify(_rescale(shape, ref, rung, level), cons, params.beta, n,
                                   level, level * (1.0 - rung))
            iterations += info["iterations"]
    if value * unit == math.inf:
        raise ConvergenceError(f"the minimum {value:g} times the rate unit {unit:g} overflows")
    S0 = params.S0
    info.update(iterations=iterations, rungs=len(rungs), lam=info["lam"] * unit / S0,
                constraint_err=info["constraint_err"] * S0,
                path=PathGrid(n, info["path"].values * S0))
    return value * unit, info


def minimize_fixed(K: float, params: ModelParams, n: int = default_n,
                   full_output: bool = False):
    """Minimum action subject to the fixed-strike averaging constraint.

    Returns the certified minimum (a float), or (value, info) with solver
    diagnostics when full_output is set: ``iterations`` (Newton steps over
    all rungs), ``rungs`` (certified solves of the continuation ladder),
    ``kkt_residual`` (Newton decrement per unit of action), ``constraint_err``,
    the multiplier ``lam``, ``floor_active`` (min g <= 1e-9 S0) and the path.
    Raises ValueError for an n that is not an integer >= 1, for a K/S0 beyond
    the doubles and for K/S0 <= 1/(2n), which no positive path's mean reaches, and
    ConvergenceError rather than return an uncertified value.
    """
    if not 0.0 < K < math.inf:
        raise ValueError(f"strike must be positive and finite, got {K}")
    value, info = _minimize("K/S0", K / params.S0, 0, params, n)
    return (value, info) if full_output else value


def minimize_float(kappa: float, params: ModelParams, n: int = default_n,
                   full_output: bool = False):
    """Minimum action subject to mean(g) = kappa g(1) (floating strike).

    The OTM floating constraint mean(g) >= kappa g(1) (put, kappa > 1) or
    <= (call, kappa < 1) is active at the optimum, so it is imposed as an
    equality.  Returns and raises as :func:`minimize_fixed`, with kappa in
    place of K/S0.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    value, info = _minimize("kappa", kappa, -1, params, n)
    return (value, info) if full_output else value

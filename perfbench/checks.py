"""Correctness checks on the program's outputs.

Each check returns a list of messages, empty when the output passes.  The
checks compare against ``refs`` (computations made apart from the program)
or against properties the method must have; none of them calls the code
path whose output it judges.
"""

from __future__ import annotations

import math

import numpy as np

import refs

RATE_RTOL = 1e-7        # closed-form rates against mpmath / Legendre / Riccati
RECOMPUTE_RTOL = 1e-12  # a price recomputed from the program's own vol
ORACLE_RTOL = 1e-4      # variational minima against closed forms and references
CONSTRAINT_TOL = 1e-8   # |constraint| per unit S0 of a variational path
MC_SIGMAS = 4.0         # Monte Carlo agreement, in standard errors

# Reference prices of the built-in tables (fpp3: fixed strike, fmr: floating
# strike) and how far the asymptotic price may sit from each; None = reported
# only (T = 5 lies outside the short-maturity regime).
TABLE_REFS = {
    "t1c1": (0.055562, 0.01), "t1c2": (0.217874, 0.01), "t1c3": (0.170926, 0.01),
    "t1c4": (0.190834, 0.01), "t1c5": (0.251121, 0.01), "t1c6": (0.308715, 0.01),
    "t1c7": (0.353197, 0.01),
    "t2c1": (0.075387, 0.005), "t2c2": (0.173175, 0.005), "t2c3": (0.248016, 0.005),
    "t2c4": (0.353197, 0.01), "t2c5": (0.545714, None), "t2c6": (0.061439, 0.005),
    "t2c7": (0.120680, 0.005), "t2c8": (0.182723, 0.005), "t2c9": (0.244913, 0.005),
    "fmr1": (0.14376, 0.015),
}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def price_ok(price: float, what: str) -> list[str]:
    if not (math.isfinite(price) and price >= 0.0):
        return [f"{what}: price {price!r} is not finite and >= 0"]
    return []


def rate_matches(rate: float, ref: float, what: str, rtol: float = RATE_RTOL) -> list[str]:
    if not _rel(rate, ref) <= rtol:
        return [f"{what}: rate {rate!r} vs reference {ref!r} (rel {_rel(rate, ref):.2e} > {rtol:g})"]
    return []


def fixed_pair(call, put, K: float, S0: float, r: float, q: float, T: float,
               what: str) -> list[str]:
    """A fixed-strike call/put pair (PricingResult-like: price, equiv_vol):
    finite, >= 0, each price equal to a fresh Black formula on the
    benchmark's forward of the average, and put-call parity
    C - P = e^{-rT} (A - K)."""
    A = refs.forward_average(S0, r - q, T)
    disc = math.exp(-r * T)
    scale = disc * (A + K)
    errs = price_ok(call.price, what + " call") + price_ok(put.price, what + " put")
    for side, res in (("call", call), ("put", put)):
        fresh = refs.black(A, K, res.equiv_vol, T, disc, side)
        if abs(res.price - fresh) > RECOMPUTE_RTOL * (abs(fresh) + scale):
            errs.append(f"{what} {side}: price {res.price!r} vs Black {fresh!r}")
    gap = call.price - put.price - disc * (A - K)
    if abs(gap) > RECOMPUTE_RTOL * scale:
        errs.append(f"{what}: put-call parity gap {gap:.3e}")
    return errs


def floating_pair(call, put, kappa: float, S0: float, r: float, q: float, T: float,
                  what: str) -> list[str]:
    """A floating-strike call/put pair: finite, >= 0, each price equal to a
    fresh Bachelier formula on F = kappa S0 e^{(r-q)T} - A, and C - P = e^{-rT} F."""
    F = kappa * S0 * math.exp((r - q) * T) - refs.forward_average(S0, r - q, T)
    disc = math.exp(-r * T)
    scale = disc * S0 * (kappa + 1.0)
    errs = price_ok(call.price, what + " call") + price_ok(put.price, what + " put")
    for side, res in (("call", call), ("put", put)):
        fresh = refs.bachelier(F, res.equiv_vol, T, disc, side)
        if abs(res.price - fresh) > RECOMPUTE_RTOL * (abs(fresh) + scale):
            errs.append(f"{what} {side}: price {res.price!r} vs Bachelier {fresh!r}")
    gap = call.price - put.price - disc * F
    if abs(gap) > RECOMPUTE_RTOL * scale:
        errs.append(f"{what}: put-call parity gap {gap:.3e}")
    return errs


def vol_curve(rows: list[dict], sigma: float, beta: float, S0: float, what: str) -> list[str]:
    """A vol-curve: on each side of the money the rate rises with |log K/S0|
    and the vol is monotone in it; at the money the vol is sigma S0^(beta-1)/sqrt(3)."""
    x = np.log([row["K_over_S0"] for row in rows])
    rate = np.array([row["rate"] for row in rows])
    vol = np.array([row["sigma_ln"] for row in rows])
    errs = []
    if not (np.all(np.isfinite(vol)) and np.all(vol > 0)):
        errs.append(f"{what}: vol not finite and positive")
    atm = int(np.argmin(np.abs(x)))
    level = sigma * S0 ** (beta - 1.0) / math.sqrt(3.0)
    if abs(x[atm]) > 1e-12 or _rel(vol[atm], level) > RECOMPUTE_RTOL:
        errs.append(f"{what}: at-the-money vol {vol[atm]!r} vs level {level!r}")
    for side in (slice(atm, None), slice(atm, None, -1)):
        dr, dv = np.diff(rate[side]), np.diff(vol[side])
        if not np.all(dr > 0):
            errs.append(f"{what}: rate not increasing away from the money")
        if not (np.all(dv >= 0) or np.all(dv <= 0)):
            errs.append(f"{what}: vol not monotone on one side of the money")
    return errs


def table_rows(rows) -> list[str]:
    """Benchmark-table rows (id, price) within their fpp3/fmr tolerances."""
    ids = [row.scenario.id for row in rows]
    if sorted(ids) != sorted(TABLE_REFS):
        return [f"tables: rows {ids} are not the reference rows"]
    errs = []
    for row in rows:
        ref, tol = TABLE_REFS[row.scenario.id]
        errs += price_ok(row.price, row.scenario.id)
        if tol is not None and not _rel(row.price, ref) <= tol:
            errs.append(f"{row.scenario.id}: price {row.price:.6f} vs reference {ref} "
                        f"(rel {_rel(row.price, ref):.2%} > {tol:.1%})")
    return errs


def trapezoid_mean(g: np.ndarray) -> float:
    n = len(g) - 1
    return float((g[0] / 2 + g[1:-1].sum() + g[-1] / 2) / n)


def discrete_action(g: np.ndarray, sigma: float, beta: float) -> float:
    """(1/2) int g'^2 / (sigma^2 g^(2 beta)) dt on the grid t_i = i/n, with
    forward differences and midpoint values of g."""
    n = len(g) - 1
    dg = np.diff(g)
    mid = 0.5 * (g[:-1] + g[1:])
    return float(np.sum(dg * dg / mid ** (2.0 * beta)) * n / (2.0 * sigma ** 2))


def feasible_float_path(kappa: float, S0: float, n: int) -> np.ndarray:
    """S0 e^{c t} on t_i = i/n with c chosen so that the trapezoid mean equals
    kappa g(1) exactly: a feasible path of the floating-strike problem."""
    t = np.linspace(0.0, 1.0, n + 1)

    def excess(c: float) -> float:
        g = np.exp(c * t)
        return trapezoid_mean(g) - kappa * g[-1]

    lo, hi = (-1.0, 1.0)
    while excess(lo) * excess(hi) > 0:
        lo, hi = 2 * lo, 2 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (excess(mid) > 0) == (excess(lo) > 0):
            lo = mid
        else:
            hi = mid
    return S0 * np.exp(0.5 * (lo + hi) * t)


def fixed_minimum(value: float, path: np.ndarray, K: float, S0: float, closed: float,
                  legendre: float | None, what: str) -> list[str]:
    """A fixed-strike variational minimum: within 1e-4 of the closed form (and
    of the Legendre reference at beta = 1/2), constraint met to 1e-8 S0."""
    errs = rate_matches(value, closed, what + " vs closed form", ORACLE_RTOL)
    if legendre is not None:
        errs += rate_matches(value, legendre, what + " vs Legendre", ORACLE_RTOL)
    if path[0] != S0 or abs(trapezoid_mean(path) - K) > CONSTRAINT_TOL * S0:
        errs.append(f"{what}: constraint error {trapezoid_mean(path) - K:.3e}")
    return errs


def float_minimum(value: float, path: np.ndarray, kappa: float, S0: float,
                  bound: float, dual: float | None, what: str) -> list[str]:
    """A floating-strike variational minimum: no larger than the action of a
    feasible path, within 1e-4 of the Riccati dual at beta = 1/2, constraint
    met to 1e-8 S0."""
    errs = []
    if not (math.isfinite(value) and 0.0 < value <= bound):
        errs.append(f"{what}: minimum {value!r} not in (0, feasible-path bound {bound!r}]")
    if dual is not None:
        errs += rate_matches(value, dual, what + " vs Riccati dual", ORACLE_RTOL)
    err = trapezoid_mean(path) - kappa * path[-1]
    if path[0] != S0 or abs(err) > CONSTRAINT_TOL * S0:
        errs.append(f"{what}: constraint error {err:.3e}")
    return errs


def float_cli(out: dict, kappa: float, S0: float, r: float, q: float, T: float,
              side: str, bound: float, what: str) -> list[str]:
    """`cevasian float ... --json`: sigma_n = S0 |kappa - 1| / sqrt(2 rate) and
    price = Bachelier(F, sigma_n) as the benchmark computes them; the rate
    no larger than the feasible-path action."""
    errs = []
    rate = out["rate"]
    if not (math.isfinite(rate) and 0.0 < rate <= bound):
        errs.append(f"{what}: rate {rate!r} not in (0, feasible-path bound {bound!r}]")
        return errs
    vol = S0 * abs(kappa - 1.0) / math.sqrt(2.0 * rate)
    if _rel(out["sigma_n"], vol) > RECOMPUTE_RTOL:
        errs.append(f"{what}: sigma_n {out['sigma_n']!r} vs {vol!r}")
    F = kappa * S0 * math.exp((r - q) * T) - refs.forward_average(S0, r - q, T)
    fresh = refs.bachelier(F, vol, T, math.exp(-r * T), side)
    if _rel(out["price"], fresh) > 1e-10:
        errs.append(f"{what}: price {out['price']!r} vs Bachelier {fresh!r}")
    return errs


def mc_agrees(mean: float, se: float, target: float, what: str) -> list[str]:
    if not (math.isfinite(mean) and se > 0 and abs(mean - target) <= MC_SIGMAS * se):
        return [f"{what}: MC {mean!r} +- {se!r} vs {target!r} "
                f"({(mean - target) / se if se > 0 else math.inf:+.2f} s.e.)"]
    return []


def identical(a: float, b: float, what: str) -> list[str]:
    if not a == b:
        return [f"{what}: rerun with the same seed gave {b!r}, first run {a!r}"]
    return []

#!/usr/bin/env python3
"""
Convergence study: variational grid, Euler steps, Monte Carlo paths
===================================================================

Empirically verifies the convergence rates the library relies on.

Numerical claims
----------------
1. The discrete action of a fixed path converges to its continuum value at
   second order in the grid: halving the step divides the error by ~4
   (observed ratio 4.000 on the linear-path test case).
2. The variational minimizer converges to the closed-form rate as the grid
   is refined; at n = 800 the relative gap is ~1e-6 or better.
3. Monte Carlo standard error scales like 1/sqrt(N): quadrupling the paths
   halves the standard error.
4. Euler step refinement at fixed seed moves the price estimate by less
   than a few standard errors (weak-error bias is small next to the noise
   at these sample sizes).

Usage
-----
    python3 scripts/convergence_study.py
    python3 scripts/convergence_study.py --quick
"""

import argparse
import math
import sys

import numpy as np

from cevasian import McConfig, ModelParams, OptionSpec, simulate_asian
from cevasian.rate_cev import rate_sqrt
from cevasian.varsolve import PathGrid, action, minimize_fixed


# ==========================================================================
# 1. discrete action refinement on a known path
# ==========================================================================

def study_action():
    print("== discrete action vs continuum value " + "=" * 24)
    params = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    exact = 0.5 * math.log(2.0)  # g(t) = 1 + t
    prev = None
    for n in (50, 100, 200, 400, 800):
        t = np.linspace(0.0, 1.0, n + 1)
        err = action(PathGrid(n=n, values=1.0 + t), params) - exact
        line = f"n={n:<5d} error={err:+.3e}"
        if prev is not None:
            line += f"  ratio={prev / err:.3f}"
        prev = err
        print(line)
    print()


# ==========================================================================
# 2. variational minimizer vs closed form
# ==========================================================================

def study_varsolve(quick):
    print("== variational minimizer vs closed-form rate " + "=" * 17)
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    K = 1.7
    ref = rate_sqrt(K, params).value
    grids = (100, 200, 400) if quick else (100, 200, 400, 800)
    for n in grids:
        val = minimize_fixed(K, params, n=n)
        print(f"n={n:<5d} value={val:.8f} rel_gap={(val / ref - 1.0):+.2e}")
    print(f"closed form: {ref:.8f}")
    print()


# ==========================================================================
# 3. Monte Carlo path scaling
# ==========================================================================

def study_mc_paths(quick):
    print("== Monte Carlo standard error vs path count " + "=" * 18)
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5, r=0.02)
    spec = OptionSpec("fixed", "call", 1.2, 1.0)
    base = 5_000 if quick else 20_000
    prev_se = None
    for mult in (1, 4, 16):
        est = simulate_asian(spec, params,
                             McConfig(n_paths=base * mult, n_steps=200, seed=31))
        line = f"N={base * mult:<8d} price={est.mean:.6f} se={est.std_error:.2e}"
        if prev_se is not None:
            line += f"  se_ratio={est.std_error / prev_se:.3f} (expect ~0.5)"
        prev_se = est.std_error
        print(line)
    print()


# ==========================================================================
# 4. Euler step refinement
# ==========================================================================

def study_mc_steps(quick):
    print("== Euler step refinement at fixed seed " + "=" * 23)
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5, r=0.02)
    spec = OptionSpec("fixed", "call", 1.2, 1.0)
    n_paths = 20_000 if quick else 100_000
    results = []
    for steps in (50, 100, 200, 400):
        est = simulate_asian(spec, params,
                             McConfig(n_paths=n_paths, n_steps=steps, seed=13))
        results.append((steps, est))
        print(f"steps={steps:<5d} price={est.mean:.6f} se={est.std_error:.2e}")
    _, coarse = results[0]
    _, fine = results[-1]
    shift = (coarse.mean - fine.mean) / math.hypot(coarse.std_error, fine.std_error)
    print(f"coarse-to-fine shift: {shift:+.2f} combined s.e.")
    print()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")
    args = p.parse_args(argv)
    study_action()
    study_varsolve(args.quick)
    study_mc_paths(args.quick)
    study_mc_steps(args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())

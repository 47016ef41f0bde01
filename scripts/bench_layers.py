#!/usr/bin/env python3
"""
Per-layer timings of the pricing pipeline
=========================================

Times each layer of the library in process and writes them, with a record of
the machine, to ``BENCH_<label>.json``:

* one 2F1 evaluation (``specfun.hyp2f1``);
* ``rate_cev`` on its put and call branches, with the memo of the
  scale-free root cold (cleared before every call) and warm (every call a
  hit);
* ``rate_float_cev`` on its put (kappa = 1.3) and call (kappa = 0.5)
  branches at beta = 1/2 and 3/4, with its memo cold and warm;
* ``price_fixed`` (K/S0 = 1.2) and ``price_floating`` (kappa = 0.8), with
  their memo cold and warm;
* one ``minimize_fixed`` and one ``minimize_float`` solve at n = 800;
* one Newton-KKT step of such a solve (``varsolve.newton_step``: one
  ``_hessian``, one ``_kkt_step`` and one accepted ``_line_search`` at the
  n = 800 start of beta = 3/4, K/S0 = 1.5) and its LAPACK tridiagonal
  solve alone (``varsolve.dgtsv``);
* Monte Carlo nanoseconds per path-step of ``simulate_asian`` at beta = 1/2
  (the square-root step) and 3/4 (the power step), at 100,000 paths: two
  seed blocks on their threads, as perfbench's ``monte_carlo`` runs them
  (one block is bound by its drawing thread).  Each entry records its
  ``n_blocks``.

Each layer is timed as ``repeats`` runs of ``calls`` calls; the file gives
the median and the smallest time per call over the runs.  Load from other
processes moves single runs by tens of percent, so compare two versions from
files written in alternation on one machine, not against a number from
another.  The machine record holds the usable cores, the Python version and
``/proc/loadavg`` before and after the timings, where it exists.

Usage
-----
    python3 scripts/bench_layers.py --label baseline
    python3 scripts/bench_layers.py --quick --label smoke --out-dir /tmp
"""

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
from scipy.linalg.lapack import dgtsv

from cevasian import (McConfig, ModelParams, OptionSpec, hyp2f1, minimize_fixed, minimize_float,
                      price_fixed, price_floating, rate_cev, rate_float_cev, simulate_asian)

rate_cev_module = importlib.import_module("cevasian.rate_cev")
float_strike = importlib.import_module("cevasian.float_strike")
varsolve = importlib.import_module("cevasian.varsolve")


def per_call(fn, calls, repeats):
    """Median and smallest seconds per call of fn over `repeats` runs of
    `calls` calls each, after one call outside the timing."""
    fn()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        runs.append((time.perf_counter() - t0) / calls)
    return statistics.median(runs), min(runs)


def cold(fn, clear=rate_cev_module._solve.cache_clear):
    """fn behind a cleared memo, so that every call solves its root."""
    def call():
        clear()
        return fn()
    return call


def newton_step(p, n=800, m=1.5):
    """(one Newton-KKT step, its tridiagonal solve) at the rescaled start of
    minimize_fixed(m S0, p, n); the step's line search accepts a full step."""
    shape = varsolve._smooth_shape(n, 0)
    g = varsolve._rescale(shape, 0, m)  # the scale-free path g/S0
    cons = shape[1].copy()
    cons[0] -= m
    val, grad, terms = varsolve._action_and_grad(g, n, p.beta)
    e = float(cons @ g)

    def step():
        diag, off = varsolve._hessian(terms, n, p.beta)
        d, _, dec, _ = varsolve._kkt_step(diag, off, grad[1:], cons[1:], e, 0.0)
        return varsolve._line_search(g, val, -dec, d, True, p.beta, n)

    if step() is None:
        raise RuntimeError("the timed Newton step's line search accepts no step")
    diag, off = varsolve._hessian(terms, n, p.beta)
    b = np.asfortranarray(np.column_stack((grad[1:], cons[1:])))
    return step, lambda: dgtsv(off, diag, off, b)  # copies its inputs, overwrites none


def layers(quick):
    """(name, fn, calls per run) of each layer timed per call."""
    n = 20 if quick else 400  # calls per run of the fast layers
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    half = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    spec = OptionSpec("fixed", "call", 1.2, 1.0)
    floating = OptionSpec("floating", "call", 0.8, 1.0)
    yield "specfun.hyp2f1", lambda: hyp2f1(0.75, 1.5, 2.5, -0.3), n
    for branch, K in (("put", 0.7), ("call", 1.6)):
        yield f"rate_cev.{branch}.cold", cold(lambda K=K: rate_cev(K, p)), n
        yield f"rate_cev.{branch}.warm", lambda K=K: rate_cev(K, p), n
    for params in (half, p):
        for branch, kappa in (("put", 1.3), ("call", 0.5)):
            name = f"float_strike.rate_float_cev.beta{params.beta}.{branch}"
            yield (f"{name}.cold", cold(lambda k=kappa, q=params: rate_float_cev(k, q),
                                        float_strike._solve.cache_clear), n)
            yield f"{name}.warm", lambda k=kappa, q=params: rate_float_cev(k, q), n
    yield "pricing.price_fixed.cold", cold(lambda: price_fixed(spec, p)), n
    yield "pricing.price_fixed.warm", lambda: price_fixed(spec, p), n
    yield ("pricing.price_floating.cold",
           cold(lambda: price_floating(floating, p), float_strike._solve.cache_clear), n)
    yield "pricing.price_floating.warm", lambda: price_floating(floating, p), n
    solves = 2 if quick else 20
    yield "varsolve.minimize_fixed", lambda: minimize_fixed(1.5, p, n=800), solves
    yield "varsolve.minimize_float", lambda: minimize_float(2.0, p, n=800), solves
    step, solve = newton_step(p)
    yield "varsolve.newton_step", step, n
    yield "varsolve.dgtsv", solve, n


def mc_ns_per_path_step(beta, quick, repeats):
    config = McConfig(n_paths=2_000 if quick else 100_000, n_steps=50 if quick else 400, seed=1)
    spec = OptionSpec("fixed", "call", 1.1, 1.0)
    params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
    steps = config.n_paths * max(1, round(config.n_steps * spec.maturity))
    runs = []
    median, best = per_call(lambda: runs.append(simulate_asian(spec, params, config)), 1, repeats)
    return {"ns_per_path_step": 1e9 * median / steps, "min_ns_per_path_step": 1e9 * best / steps,
            "n_paths": config.n_paths, "n_blocks": runs[0].n_blocks, "n_steps": config.n_steps,
            "repeats": repeats}


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--label", default="local", help="names the output BENCH_<label>.json")
    ap.add_argument("--out-dir", default=".", help="directory of the output file")
    ap.add_argument("--quick", action="store_true", help="few calls, for a smoke test")
    args = ap.parse_args(argv)
    repeats = 3 if args.quick else 7
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    out = {"label": args.label, "quick": args.quick,
           "machine": {"cores": cores, "python": platform.python_version(),
                       "platform": platform.platform(), "loadavg_before": loadavg()},
           "layers": {}}
    for name, fn, calls in layers(args.quick):
        median, best = per_call(fn, calls, repeats)
        out["layers"][name] = {"us_per_call": 1e6 * median, "min_us_per_call": 1e6 * best,
                               "calls": calls, "repeats": repeats}
        print(f"{name:32s} {1e6 * median:12.2f} us  (min {1e6 * best:.2f})")
    for beta in (0.5, 0.75):
        name = f"mc.simulate_asian.beta{beta}"
        out["layers"][name] = mc = mc_ns_per_path_step(beta, args.quick, repeats)
        print(f"{name:32s} {mc['ns_per_path_step']:12.2f} ns per path-step")
    out["machine"]["loadavg_after"] = loadavg()
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

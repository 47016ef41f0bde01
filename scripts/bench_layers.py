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
* ``price_fixed``, with the memo cold and warm;
* one ``minimize_fixed`` and one ``minimize_float`` solve at n = 800;
* Monte Carlo nanoseconds per path-step of ``simulate_asian``.

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

from cevasian import (McConfig, ModelParams, OptionSpec, hyp2f1, minimize_fixed, minimize_float,
                      price_fixed, rate_cev, rate_float_cev, simulate_asian)

rate_cev_module = importlib.import_module("cevasian.rate_cev")
float_strike = importlib.import_module("cevasian.float_strike")


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


def layers(quick):
    """(name, fn, calls per run) of each layer timed per call."""
    n = 20 if quick else 400  # calls per run of the fast layers
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    half = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    spec = OptionSpec("fixed", "call", 1.2, 1.0)
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
    solves = 2 if quick else 20
    yield "varsolve.minimize_fixed", lambda: minimize_fixed(1.5, p, n=800), solves
    yield "varsolve.minimize_float", lambda: minimize_float(2.0, p, n=800), solves


def mc_ns_per_path_step(quick, repeats):
    config = McConfig(n_paths=2_000 if quick else 50_000, n_steps=50 if quick else 400, seed=1)
    spec = OptionSpec("fixed", "call", 1.1, 1.0)
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    steps = config.n_paths * max(1, round(config.n_steps * spec.maturity))
    median, best = per_call(lambda: simulate_asian(spec, params, config), 1, repeats)
    return {"ns_per_path_step": 1e9 * median / steps, "min_ns_per_path_step": 1e9 * best / steps,
            "n_paths": config.n_paths, "n_steps": config.n_steps, "repeats": repeats}


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
    out["layers"]["mc.simulate_asian"] = mc = mc_ns_per_path_step(args.quick, repeats)
    print(f"{'mc.simulate_asian':32s} {mc['ns_per_path_step']:12.2f} ns per path-step")
    out["machine"]["loadavg_after"] = loadavg()
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: price, rate, vol-curve, float, mc, bench, figures.  Human output
rounds to 6 decimals; --json emits full-precision values.  Exit codes:
0 success, 1 benchmark tolerance failure, 2 invalid arguments, 3 numerical
failure (root bracketing or series convergence).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .model import ModelParams, ConvergenceError, RootBracketError
from . import bench as bench_mod
from .float_strike import jf_taylor, rate_float_cev, rate_float_sqrt
from .mc import McConfig, simulate_asian, simulate_floating
from .pricing import (OptionSpec, equiv_lognormal_vol, equiv_vol, price_fixed, price_floating,
                      price_from_rate, price_variational)
from .rate_cev import rate_cev, rate_cev_taylor
from .varsolve import CERTIFICATE, minimize_fixed
# not called here (rate_cev, rate_float_cev and `equiv_vol` on their results
# cover them), but perfbench/worker.py traces the layers by patching these names
from .pricing import equiv_normal_vol  # noqa: F401
from .rate_cev import rate_sqrt  # noqa: F401

_UNITS_NOTE = ("Inputs: s0 in cash units, sigma is the CEV volatility (units "
               "S0^(1-beta) per sqrt(year)), r/q annualized, maturity in years. "
               "Strikes are cash for fixed-strike options; floating strikes "
               "use the multiplier kappa.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cevasian", description=__doc__,
                                     epilog=_UNITS_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--s0", type=float, default=1.0, help="spot (default 1.0)")
        p.add_argument("--sigma", type=float, required=True, help="CEV volatility")
        p.add_argument("--beta", type=float, required=True,
                       help="CEV exponent, in [0.5, 1)")
        p.add_argument("--r", type=float, default=0.0, help="risk-free rate")
        p.add_argument("--q", type=float, default=0.0, help="dividend yield")

    p = sub.add_parser("price", help="asymptotic price of an Asian option")
    model_flags(p)
    p.add_argument("--style", choices=["fixed", "floating"], default="fixed")
    p.add_argument("--side", choices=["call", "put"], default="call")
    p.add_argument("--strike", type=float, required=True,
                   help="cash strike (fixed) or kappa (floating)")
    p.add_argument("--maturity", type=float, required=True, help="maturity in years")
    p.add_argument("--engine", choices=["asympt", "varsolve"], default="asympt",
                   help="vol from the closed forms or the variational solver "
                        "(Monte Carlo prices: the mc subcommand)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rate", help="fixed-strike rate function at a strike")
    model_flags(p)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--engine", choices=["closed", "varsolve"], default="closed")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("vol-curve",
                       help="equivalent log-normal vol across strikes (CSV)")
    model_flags(p)
    p.add_argument("--k-min", type=float, default=0.5, help="lowest K/S0")
    p.add_argument("--k-max", type=float, default=2.0, help="highest K/S0")
    p.add_argument("--n", type=int, default=41, help="number of strikes")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("float", help="floating-strike rate and normal vol")
    model_flags(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--side", choices=["call", "put"], default="put")
    p.add_argument("--maturity", type=float,
                   help="if given, also print the Bachelier price")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mc", help="Monte Carlo price")
    model_flags(p)
    p.add_argument("--style", choices=["fixed", "floating"], default="fixed")
    p.add_argument("--side", choices=["call", "put"], default="call")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-paths", type=int, default=100_000)
    p.add_argument("--n-steps", type=int, default=400,
                   help="Euler steps per unit maturity")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bench", help="run benchmark tables or a scenario CSV")
    p.add_argument("--table", choices=["1", "2", "floating", "all"], default="all")
    p.add_argument("--custom", help="scenario CSV "
                   f"(header: {','.join(bench_mod.CSV_HEADER)})")
    p.add_argument("--out", help="write results CSV here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("figures", help="write the figure data sets as CSV")
    p.add_argument("--out-dir", default="figures")

    return parser


def _params(args) -> ModelParams:
    return ModelParams(S0=args.s0, sigma=args.sigma, beta=args.beta,
                       r=args.r, q=args.q)


def cmd_price(args) -> int:
    params = _params(args)
    spec = OptionSpec(args.style, args.side, args.strike, args.maturity)
    if args.engine == "varsolve":
        res = price_variational(spec, params)
    elif args.style == "fixed":
        res = price_fixed(spec, params)
    else:
        res = price_floating(spec, params)
    if args.json:
        print(json.dumps({"price": res.price, "equiv_vol": res.equiv_vol,
                          "vol_kind": res.vol_kind, "d1": res.d1, "d2": res.d2,
                          "forward": res.forward, "note": res.note,
                          "engine": args.engine}))
    else:
        print(f"price {res.price:.6f}")
        print(f"equiv_vol {res.equiv_vol:.6f} ({res.vol_kind})")
        print(f"forward {res.forward:.6f}")
        if res.note:
            print(f"note: {res.note}")
    return 0


def cmd_rate(args) -> int:
    params = _params(args)
    if args.engine == "varsolve":
        value, info = minimize_fixed(args.strike, params, full_output=True)
        out = {"rate": value, "engine": "varsolve", **{k: info[k] for k in CERTIFICATE}}
        branch = None
    else:
        res = rate_cev(args.strike, params)
        branch = res.branch
        out = {"rate": res.value, "engine": "closed", "branch": branch,
               "iterations": res.diag.iterations, "residual": res.diag.residual}
    if args.json:
        print(json.dumps(out))
    else:
        print(f"rate {out['rate']:.6f}")
        if branch is not None:
            print(f"branch {branch}")
    return 0


def cmd_vol_curve(args) -> int:
    params = _params(args)
    if args.n < 2 or not 0 < args.k_min < args.k_max:
        raise ValueError("need n >= 2 and 0 < k-min < k-max")
    ratios = np.exp(np.linspace(math.log(args.k_min), math.log(args.k_max), args.n))
    rows = []
    for m in ratios.tolist():  # Python floats: numpy scalars would slow every rate
        K = m * params.S0
        rate = rate_cev(K, params)
        rows.append((m, K, rate.value, equiv_vol("fixed", K, params, rate)))
    if args.json:
        print(json.dumps([{"K_over_S0": a, "K": b, "rate": c, "sigma_ln": d}
                          for a, b, c, d in rows]))
        return 0
    dest = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(dest)
        writer.writerow(["K_over_S0", "K", "rate", "sigma_ln"])
        for a, b, c, d in rows:
            writer.writerow([f"{a:.12g}", f"{b:.12g}", f"{c:.12g}", f"{d:.12g}"])
    finally:
        if args.out:
            dest.close()
            print(f"wrote {args.out}")
    return 0


def cmd_float(args) -> int:
    params = _params(args)
    res = rate_float_cev(args.kappa, params)
    vol = equiv_vol("floating", args.kappa, params, res)
    diag = res.diag
    out = {"kappa": args.kappa, "rate": res.value, "branch": res.branch, "sigma_n": vol,
           "u": diag.u, "v": diag.v, "residual": diag.residual, "iterations": diag.iterations}
    if args.maturity is not None:
        spec = OptionSpec("floating", args.side, args.kappa, args.maturity)
        pres = price_from_rate(spec, params, res)
        out.update({"price": pres.price, "side": args.side,
                    "maturity": args.maturity, "note": pres.note})
    if args.json:
        print(json.dumps(out))
    else:
        print(f"rate {out['rate']:.6f}")
        print(f"branch {out['branch']}")
        print(f"sigma_n {vol:.6f}")
        if "price" in out:
            print(f"price {out['price']:.6f} ({args.side})")
            if out.get("note"):
                print(f"note: {out['note']}")
    return 0


def cmd_mc(args) -> int:
    params = _params(args)
    spec = OptionSpec(args.style, args.side, args.strike, args.maturity)
    config = McConfig(n_paths=args.n_paths, n_steps=args.n_steps, seed=args.seed)
    sim = simulate_asian if args.style == "fixed" else simulate_floating
    est = sim(spec, params, config)
    if args.json:
        print(json.dumps({"price": est.mean, "std_error": est.std_error,
                          "n_absorbed": est.n_absorbed, "n_steps": est.n_steps,
                          "n_blocks": est.n_blocks}))
    else:
        print(f"price {est.mean:.6f}")
        print(f"std_error {est.std_error:.6f}")
        print(f"n_absorbed {est.n_absorbed}")
        print(f"n_steps {est.n_steps}")
        print(f"n_blocks {est.n_blocks}")
    return 0


def cmd_bench(args) -> int:
    if args.custom:
        rows = bench_mod.run_custom(args.custom)
    elif args.table == "1":
        rows = bench_mod.run_table1()
    elif args.table == "2":
        rows = bench_mod.run_table2()
    elif args.table == "floating":
        rows = bench_mod.run_floating()
    else:
        rows = bench_mod.run_table1() + bench_mod.run_table2() + bench_mod.run_floating()
    if args.json:
        print(json.dumps([{
            "id": r.scenario.id, "engine": r.scenario.engine, "price": r.price,
            "ref_name": r.scenario.ref_name, "ref_value": r.scenario.ref_value,
            "rel_err": r.rel_err, "ok": r.ok, "runtime_ms": r.runtime_ms}
            for r in rows]))
    else:
        for r in rows:
            ref = "" if math.isnan(r.scenario.ref_value) \
                else f" {r.scenario.ref_name}={r.scenario.ref_value:.6f} rel={r.rel_err:+.4%}"
            flag = "ok" if r.ok else "FAIL"
            print(f"{r.scenario.id:<6} price={r.price:.6f}{ref} {flag}")
        n_bad = sum(not r.ok for r in rows)
        print(f"{len(rows)} scenario(s), {n_bad} outside tolerance")
    if args.out:
        bench_mod.to_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 1 if any(not r.ok for r in rows) else 0


def _write_csv(path: str, header: list[str], columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.12g}" for v in row])
    print(f"wrote {path}")


def cmd_figures(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    base = ModelParams(S0=1.0, sigma=1.0, beta=0.5)

    def fixed_rate(m: float, params: ModelParams) -> float:
        return rate_cev(m * params.S0, params).value

    # rate of the square-root model across strikes, with its 3-term expansion
    ratios = np.exp(np.linspace(math.log(0.2), math.log(5.0), 241))
    ratios[120] = 1.0
    lx = np.log(ratios)
    # Python floats: numpy scalars would slow every rate
    rate = np.array([fixed_rate(m, base) for m in ratios.tolist()])
    taylor = np.array([rate_cev_taylor(m, base) for m in ratios.tolist()])
    _write_csv(os.path.join(args.out_dir, "fig1_rate_sqrt.csv"),
               ["K_over_S0", "log_moneyness", "I_units_S0_over_sigma2", "I_taylor3"],
               (ratios, lx, rate, taylor))

    # normalized rate I / (S0^(2(1-beta))/sigma^2) for three exponents
    ratios = np.exp(np.linspace(math.log(0.25), math.log(4.0), 241))
    ratios[120] = 1.0
    cols = [ratios]
    for beta in (0.5, 2.0 / 3.0, 5.0 / 6.0):
        p = ModelParams(S0=1.0, sigma=1.0, beta=beta)
        cols.append(np.array([fixed_rate(m, p) for m in ratios.tolist()]))
    _write_csv(os.path.join(args.out_dir, "fig2_rate_cev.csv"),
               ["K_over_S0", "I_beta_half", "I_beta_two_thirds", "I_beta_five_sixths"],
               cols)

    # floating-strike rate vs kappa, its expansion, and the fixed-strike rate
    kappas = np.exp(np.linspace(math.log(0.4), math.log(2.5), 241))
    kappas[120] = 1.0
    jf = np.array([rate_float_sqrt(k, base).value for k in kappas.tolist()])
    jt = np.array([jf_taylor(k) for k in kappas.tolist()])
    ifix = np.array([fixed_rate(k, base) for k in kappas.tolist()])
    _write_csv(os.path.join(args.out_dir, "fig3_float_rate.csv"),
               ["kappa", "J_float", "J_float_taylor3", "I_fixed_units"],
               (kappas, jf, jt, ifix))

    # normalized equivalent log-normal vol for three exponents
    lx = np.linspace(-1.0, 1.0, 201)
    cols = [lx]
    for beta in (0.5, 2.0 / 3.0, 5.0 / 6.0):
        p = ModelParams(S0=1.0, sigma=1.0, beta=beta)
        cols.append(np.array([equiv_lognormal_vol(math.exp(x), p) for x in lx.tolist()]))
    _write_csv(os.path.join(args.out_dir, "fig4_vol_skew.csv"),
               ["log_moneyness", "sigma_beta_half", "sigma_beta_two_thirds",
                "sigma_beta_five_sixths"],
               cols)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a patched cmd_* is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (RootBracketError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

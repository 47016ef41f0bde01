"""Command-line interface.

Subcommands: price, rate, vol-curve, float, mc, bench, figures.  Human output
rounds to 6 decimals; --json emits full-precision values.  Exit codes:
0 success, 1 benchmark tolerance failure, 2 invalid arguments, 3 numerical
failure (root bracketing or series convergence).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import string
import sys

import numpy as np

from .model import ModelParams, ConvergenceError, RootBracketError
from . import bench as bench_mod
from .float_strike import jf_taylor, rate_float_cev
from .mc import McConfig, simulate_asian, simulate_floating
from .pricing import (OptionSpec, VariationalDiag, equiv_lognormal_vol, equiv_vol, price_fixed,
                      price_floating, price_from_rate, price_variational, rate_variational)
from .rate_cev import rate_cev, rate_cev_taylor
# not called here, but perfbench/worker.py traces the layers by patching these
# names: `equiv_vol` covers the first, and the beta = 1/2 pair are the routes
# themselves until the benchmark patches the routes directly (ROADMAP item 2)
from .pricing import equiv_normal_vol  # noqa: F401
rate_sqrt, rate_float_sqrt = rate_cev, rate_float_cev

_UNITS_NOTE = ("Inputs: s0 in cash units, sigma is the CEV volatility (units "
               "S0^(1-beta) per sqrt(year)), r/q annualized, maturity in years. "
               "Strikes are cash for fixed-strike options; floating strikes "
               "use the multiplier kappa.")

# bench --table: the bench functions each choice runs, looked up at call time
_TABLES = {"1": ["run_table1"], "2": ["run_table2"], "floating": ["run_floating"],
           "all": ["run_table1", "run_table2", "run_floating"]}
_VOL_CURVE = ["K_over_S0", "K", "rate", "sigma_ln"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cevasian", description=__doc__,
                                     epilog=_UNITS_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--s0", type=float, default=1.0, help="spot (default 1.0)")
    model.add_argument("--sigma", type=float, required=True, help="CEV volatility")
    model.add_argument("--beta", type=float, required=True, help="CEV exponent, in [0.5, 1)")
    model.add_argument("--r", type=float, default=0.0, help="risk-free rate")
    model.add_argument("--q", type=float, default=0.0, help="dividend yield")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    both = [model, as_json]

    p = sub.add_parser("price", parents=both, help="asymptotic price of an Asian option")
    p.add_argument("--style", choices=["fixed", "floating"], default="fixed")
    p.add_argument("--side", choices=["call", "put"], default="call")
    p.add_argument("--strike", type=float, required=True,
                   help="cash strike (fixed) or kappa (floating)")
    p.add_argument("--maturity", type=float, required=True, help="maturity in years")
    p.add_argument("--engine", choices=["asympt", "varsolve"], default="asympt",
                   help="vol from the closed forms or the variational solver "
                        "(Monte Carlo prices: the mc subcommand)")

    p = sub.add_parser("rate", parents=both, help="fixed-strike rate function at a strike")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--engine", choices=["closed", "varsolve"], default="closed")

    p = sub.add_parser("vol-curve", parents=both,
                       help="equivalent log-normal vol across strikes (CSV)")
    p.add_argument("--k-min", type=float, default=0.5, help="lowest K/S0")
    p.add_argument("--k-max", type=float, default=2.0, help="highest K/S0")
    p.add_argument("--n", type=int, default=41, help="number of strikes")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("float", parents=both, help="floating-strike rate and normal vol")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--side", choices=["call", "put"], default="put")
    p.add_argument("--maturity", type=float,
                   help="if given, also print the Bachelier price")

    p = sub.add_parser("mc", parents=both, help="Monte Carlo price")
    p.add_argument("--style", choices=["fixed", "floating"], default="fixed")
    p.add_argument("--side", choices=["call", "put"], default="call")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-paths", type=int, default=100_000)
    p.add_argument("--n-steps", type=int, default=400,
                   help="Euler steps per unit maturity")

    p = sub.add_parser("bench", parents=[as_json],
                       help="run benchmark tables or a scenario CSV")
    p.add_argument("--table", choices=list(_TABLES), default="all")
    p.add_argument("--custom", help="scenario CSV "
                   f"(header: {','.join(bench_mod.CSV_HEADER)}); engine mc rows run "
                   "McConfig(): 100,000 paths, 400 steps per year, seed 0")
    p.add_argument("--out", help="write results CSV here")

    p = sub.add_parser("figures", help="write the figure data sets as CSV")
    p.add_argument("--out-dir", default="figures")

    return parser


def _emit(args, record, text) -> None:
    """Print a command's one record: all of it, at full precision, as JSON
    under --json, else its text view.  ``text`` is a list of format templates
    over the record, each skipped when a field it names is missing or empty,
    or a function that prints the view of a list of records."""
    if args.json:
        print(json.dumps(record))
    elif callable(text):
        text()
    else:
        for line in text:
            names = [name for _, name, _, _ in string.Formatter().parse(line) if name]
            if all(record.get(name, "") != "" for name in names):
                print(line.format_map(record))


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Write rows of numbers, 12 significant digits, to path or else stdout."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" for v in row] for row in rows)
    if path:
        print(f"wrote {path}")


def _params(args) -> ModelParams:
    return ModelParams(S0=args.s0, sigma=args.sigma, beta=args.beta, r=args.r, q=args.q)


def cmd_price(args) -> int:
    params = _params(args)
    spec = OptionSpec(args.style, args.side, args.strike, args.maturity)
    price = (price_variational if args.engine == "varsolve" else
             price_fixed if args.style == "fixed" else price_floating)
    res = price(spec, params)
    _emit(args, {"price": res.price, "equiv_vol": res.equiv_vol, "vol_kind": res.vol_kind,
                 "d1": res.d1, "d2": res.d2, "forward": res.forward, "note": res.note,
                 "engine": args.engine},
          ["price {price:.6f}", "equiv_vol {equiv_vol:.6f} ({vol_kind})",
           "forward {forward:.6f}", "note: {note}"])
    return 0


def cmd_rate(args) -> int:
    params = _params(args)
    res = (rate_variational("fixed", args.strike, params) if args.engine == "varsolve"
           else rate_cev(args.strike, params))
    diag = res.diag
    # the route's solve: varsolve's certificate (repeating the branch) or the root's
    solve = (dataclasses.asdict(diag) if isinstance(diag, VariationalDiag) else
             {"iterations": diag.iterations, "residual": diag.residual})
    _emit(args, {"rate": res.value, "engine": args.engine, "branch": res.branch, **solve},
          ["rate {rate:.6f}", "branch {branch}"])
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
    # the text view is the CSV, which --out sends to a file, beside --json too
    _emit(args, [dict(zip(_VOL_CURVE, row)) for row in rows],
          () if args.out else lambda: _write_csv(None, _VOL_CURVE, rows))
    if args.out:
        _write_csv(args.out, _VOL_CURVE, rows)
    return 0


def cmd_float(args) -> int:
    params = _params(args)
    res = rate_float_cev(args.kappa, params)
    diag = res.diag
    out = {"kappa": args.kappa, "rate": res.value, "branch": res.branch,
           "sigma_n": equiv_vol("floating", args.kappa, params, res), "u": diag.u, "v": diag.v,
           "residual": diag.residual, "iterations": diag.iterations}
    if args.maturity is not None:
        spec = OptionSpec("floating", args.side, args.kappa, args.maturity)
        pres = price_from_rate(spec, params, res)
        out.update({"price": pres.price, "side": args.side,
                    "maturity": args.maturity, "note": pres.note})
    _emit(args, out, ["rate {rate:.6f}", "branch {branch}", "sigma_n {sigma_n:.6f}",
                      "price {price:.6f} ({side})", "note: {note}"])
    return 0


def cmd_mc(args) -> int:
    params = _params(args)
    spec = OptionSpec(args.style, args.side, args.strike, args.maturity)
    config = McConfig(n_paths=args.n_paths, n_steps=args.n_steps, seed=args.seed)
    sim = simulate_asian if args.style == "fixed" else simulate_floating
    est = sim(spec, params, config)
    _emit(args, {"price": est.mean, "std_error": est.std_error, "n_absorbed": est.n_absorbed,
                 "n_steps": est.n_steps, "n_blocks": est.n_blocks},
          ["price {price:.6f}", "std_error {std_error:.6f}", "n_absorbed {n_absorbed}",
           "n_steps {n_steps}", "n_blocks {n_blocks}"])
    return 0


def cmd_bench(args) -> int:
    rows = (bench_mod.run_custom(args.custom) if args.custom else
            [row for name in _TABLES[args.table] for row in getattr(bench_mod, name)()])

    def text() -> None:
        for r in rows:
            ref = "" if math.isnan(r.scenario.ref_value) \
                else f" {r.scenario.ref_name}={r.scenario.ref_value:.6f} rel={r.rel_err:+.4%}"
            print(f"{r.scenario.id:<6} price={r.price:.6f}{ref} {'ok' if r.ok else 'FAIL'}")
        print(f"{len(rows)} scenario(s), {sum(not r.ok for r in rows)} outside tolerance")

    _emit(args, [{"id": r.scenario.id, "engine": r.scenario.engine, "price": r.price,
                  "ref_name": r.scenario.ref_name, "ref_value": r.scenario.ref_value,
                  "rel_err": r.rel_err, "ok": r.ok, "runtime_ms": r.runtime_ms}
                 for r in rows], text)
    if args.out:
        bench_mod.to_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 1 if any(not r.ok for r in rows) else 0


def _atm_grid(lo: float, hi: float) -> np.ndarray:
    """241 points log-evenly spaced from lo to hi = 1/lo, the middle one exactly 1."""
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 241))
    grid[120] = 1.0
    return grid


def cmd_figures(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    cev = [ModelParams(S0=1.0, sigma=1.0, beta=b) for b in (0.5, 2.0 / 3.0, 5.0 / 6.0)]
    rates = [lambda m, p=p: rate_cev(m, p).value for p in cev]  # S0 = 1: K = m

    def write(name: str, header: list[str], grid: np.ndarray, *columns) -> None:
        xs = grid.tolist()  # Python floats: numpy scalars would slow every rate
        _write_csv(os.path.join(args.out_dir, name), header,
                   zip(xs, *([f(x) for x in xs] for f in columns)))

    # rate of the square-root model across strikes, with its 3-term expansion
    write("fig1_rate_sqrt.csv",
          ["K_over_S0", "log_moneyness", "I_units_S0_over_sigma2", "I_taylor3"],
          _atm_grid(0.2, 5.0), math.log, rates[0], lambda m: rate_cev_taylor(m, cev[0]))
    # normalized rate I / (S0^(2(1-beta))/sigma^2) for three exponents
    write("fig2_rate_cev.csv",
          ["K_over_S0", "I_beta_half", "I_beta_two_thirds", "I_beta_five_sixths"],
          _atm_grid(0.25, 4.0), *rates)
    # floating-strike rate vs kappa, its expansion, and the fixed-strike rate
    write("fig3_float_rate.csv", ["kappa", "J_float", "J_float_taylor3", "I_fixed_units"],
          _atm_grid(0.4, 2.5), lambda k: rate_float_cev(k, cev[0]).value, jf_taylor, rates[0])
    # normalized equivalent log-normal vol for three exponents
    write("fig4_vol_skew.csv",
          ["log_moneyness", "sigma_beta_half", "sigma_beta_two_thirds", "sigma_beta_five_sixths"],
          np.linspace(-1.0, 1.0, 201),
          *(lambda x, p=p: equiv_lognormal_vol(math.exp(x), p) for p in cev))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

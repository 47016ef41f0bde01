#!/usr/bin/env python3
"""
Figure data and plots for the rate functions and equivalent vols
================================================================

Regenerates the four CSV datasets behind the package's standard figures and,
when matplotlib is importable, renders PNG plots.  The CSV step only needs
the package itself; plotting is optional and skipped cleanly otherwise.

Datasets
--------
fig1_rate_sqrt.csv   rate function at beta = 1/2 in units of S0/sigma^2,
                     with its fourth-order series: the two agree to ~1e-3
                     (relative) for |log K/S0| <= 0.2 and diverge far from
                     the money.
fig2_rate_cev.csv    rate function for beta in {1/2, 2/3, 5/6}: lower
                     elasticity means heavier lower tail (larger put-side
                     rate) and lighter upper tail.
fig3_float_rate.csv  floating-strike rate J_f(kappa) with its series and the
                     fixed-strike rate at the same moneyness: the two rate
                     functions differ by far more than numerical error
                     (e.g. at kappa = 0.4: J_f ~ 2.99 vs fixed ~ 0.92).
fig4_vol_skew.csv    equivalent lognormal vol against log-moneyness: downward
                     skew of slope -(1/5) * level at beta = 1/2, flat at
                     beta = 5/6.

Usage
-----
    python3 scripts/make_figures.py --out-dir figures
    python3 scripts/make_figures.py --out-dir figures --no-plots
"""

import argparse
import csv
import os
import sys

from cevasian.cli import main as cli_main


# ==========================================================================
# helpers
# ==========================================================================

def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            for name, val in zip(header, row):
                cols[name].append(float(val))
    return cols


def save(fig, path):
    fig.savefig(path, dpi=150, bbox_inches="tight")
    print(f"wrote {path}")


# ==========================================================================
# plots (only reached when matplotlib imports)
# ==========================================================================

def plot_all(out_dir, plt):
    d1 = read_csv(os.path.join(out_dir, "fig1_rate_sqrt.csv"))
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(d1["K_over_S0"], d1["I_units_S0_over_sigma2"], label="rate function")
    ax.plot(d1["K_over_S0"], d1["I_taylor3"], "--", label="fourth-order series")
    ax.set_xscale("log")
    ax.set_xlabel("K / S0")
    ax.set_ylabel("I in units of S0/sigma^2")
    ax.set_title("Fixed-strike rate, beta = 1/2")
    ax.legend()
    save(fig, os.path.join(out_dir, "fig1_rate_sqrt.png"))

    d2 = read_csv(os.path.join(out_dir, "fig2_rate_cev.csv"))
    fig, ax = plt.subplots(figsize=(6, 4))
    for col, label in (("I_beta_half", "beta = 1/2"),
                       ("I_beta_two_thirds", "beta = 2/3"),
                       ("I_beta_five_sixths", "beta = 5/6")):
        ax.plot(d2["K_over_S0"], d2[col], label=label)
    ax.set_xlabel("K / S0")
    ax.set_ylabel("rate")
    ax.set_title("Rate function across elasticities (sigma = 1, S0 = 1)")
    ax.legend()
    save(fig, os.path.join(out_dir, "fig2_rate_cev.png"))

    d3 = read_csv(os.path.join(out_dir, "fig3_float_rate.csv"))
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(d3["kappa"], d3["J_float"], label="floating-strike J_f")
    ax.plot(d3["kappa"], d3["J_float_taylor3"], "--", label="series")
    ax.plot(d3["kappa"], d3["I_fixed_units"], ":", label="fixed strike at same moneyness")
    ax.set_xlabel("kappa")
    ax.set_ylabel("rate in units of S0/sigma^2")
    ax.set_title("Floating-strike rate")
    ax.legend()
    save(fig, os.path.join(out_dir, "fig3_float_rate.png"))

    d4 = read_csv(os.path.join(out_dir, "fig4_vol_skew.csv"))
    fig, ax = plt.subplots(figsize=(6, 4))
    for col, label in (("sigma_beta_half", "beta = 1/2"),
                       ("sigma_beta_two_thirds", "beta = 2/3"),
                       ("sigma_beta_five_sixths", "beta = 5/6")):
        ax.plot(d4["log_moneyness"], d4[col], label=label)
    ax.set_xlabel("log(K / S0)")
    ax.set_ylabel("equivalent lognormal vol")
    ax.set_title("Short-maturity vol skew (sigma = 1, S0 = 1)")
    ax.legend()
    save(fig, os.path.join(out_dir, "fig4_vol_skew.png"))


# ==========================================================================
# entry point
# ==========================================================================

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--out-dir", default="figures")
    p.add_argument("--no-plots", action="store_true", help="write CSV data only")
    args = p.parse_args(argv)

    rc = cli_main(["figures", "--out-dir", args.out_dir])
    if rc != 0:
        return rc

    if args.no_plots:
        return 0
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; CSV data written, plots skipped")
        return 0
    plot_all(args.out_dir, plt)
    return 0


if __name__ == "__main__":
    sys.exit(main())

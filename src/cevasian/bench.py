"""Benchmark harness: reproduces the reference tables for the square-root
model (beta = 1/2) and runs user-supplied scenario files.

Reference values come from published numerical studies of Asian options under
the square-root (CEV beta = 1/2) diffusion: ``dn`` rows carry an independent
numerical benchmark, ``fpp3`` rows a high-accuracy PDE/spectral benchmark,
and ``fmr`` the floating-strike benchmark used for the relative-gap check.
The asymptotic prices themselves are pinned to 6-decimal expected values, so
any drift in the rate functions or the pricing layer shows up here.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

from .model import ModelParams
from .pricing import (OptionSpec, _bachelier, _black, _lognormal_vol, _normal_vol,
                      average_forward, price_fixed, price_floating)
from .mc import McConfig, simulate_asian, simulate_floating
from .varsolve import minimize_fixed, minimize_float

CSV_HEADER = ["id", "S0", "K_or_kappa", "style", "side", "r", "q", "sigma",
              "beta", "T", "engine", "ref_name", "ref_value"]
OUT_HEADER = CSV_HEADER + ["price", "abs_err", "rel_err", "ok"]


@dataclass(frozen=True)
class Scenario:
    id: str
    S0: float
    K_or_kappa: float
    style: str
    side: str
    r: float
    q: float
    sigma: float
    beta: float
    T: float
    engine: str = "asympt"
    ref_name: str = ""
    ref_value: float = math.nan


@dataclass
class BenchRow:
    scenario: Scenario
    price: float
    abs_err: float
    rel_err: float
    ok: bool
    runtime_ms: float = 0.0


# Benchmark cases for the square-root model.  Table 1: seven classic test
# cases (S0, K, r, sigma, T); case 1 runs at r = 0.02, which is the rate the
# reference prices correspond to.  Table 2: at-the-money calls S0 = K = 2,
# r = 0.05 over a sigma/T grid.  "expected" pins our asymptotic price.
_TABLE1 = [
    # id,    S0,  K,   r,      sigma, T,   expected,  fpp3
    ("t1c1", 2.0, 2.0, 0.02,   0.14,  1.0, 0.055474, 0.055562),
    ("t1c2", 2.0, 2.0, 0.18,   0.42,  1.0, 0.216013, 0.217874),
    ("t1c3", 2.0, 2.0, 0.0125, 0.35,  2.0, 0.170568, 0.170926),
    ("t1c4", 1.9, 2.0, 0.05,   0.69,  1.0, 0.189863, 0.190834),
    ("t1c5", 2.0, 2.0, 0.05,   0.72,  1.0, 0.250113, 0.251121),
    ("t1c6", 2.1, 2.0, 0.05,   0.72,  1.0, 0.307731, 0.308715),
    ("t1c7", 2.0, 2.0, 0.05,   0.71,  2.0, 0.350516, 0.353197),
]

_TABLE2 = [
    # id,    sigma, T,   expected,  fpp3
    ("t2c1", 0.71, 0.1, 0.075354, 0.075387),
    ("t2c2", 0.71, 0.5, 0.172813, 0.173175),
    ("t2c3", 0.71, 1.0, 0.247020, 0.248016),
    ("t2c4", 0.71, 2.0, 0.350516, 0.353197),
    ("t2c5", 0.71, 5.0, 0.536611, 0.545714),
    ("t2c6", 0.10, 1.0, 0.061310, 0.061439),
    ("t2c7", 0.30, 1.0, 0.120226, 0.120680),
    ("t2c8", 0.50, 1.0, 0.181983, 0.182723),
    ("t2c9", 0.70, 1.0, 0.243926, 0.244913),
]

# Floating-strike benchmark: at-the-money put, S0 = 1, r = 0.04, sigma = 0.7.
_FLOATING = ("fmr1", 1.0, 1.0, 0.04, 0.7, 1.0, 0.145241, 0.14376)

value_tol = 5.0e-7       # |price - expected| for the pinned asymptotic values
float_value_tol = 5.0e-6


def run_table1() -> list[BenchRow]:
    """Asymptotic prices for the seven classic square-root benchmark cases.

    A row is ok when the price matches its pinned value to 5e-7 and sits
    within 1% of the fpp3 reference.
    """
    rows = []
    for cid, S0, K, r, sigma, T, expected, fpp3 in _TABLE1:
        sc = Scenario(cid, S0, K, "fixed", "call", r, 0.0, sigma, 0.5, T,
                      "asympt", "fpp3", fpp3)
        t0 = time.perf_counter()
        price = _price_scenario(sc)
        ms = (time.perf_counter() - t0) * 1e3
        rel = price / fpp3 - 1.0
        ok = abs(price - expected) <= value_tol and abs(rel) <= 0.01
        rows.append(BenchRow(sc, price, price - fpp3, rel, ok, ms))
    return rows


def run_table2() -> list[BenchRow]:
    """Asymptotic at-the-money prices over the sigma/T grid.

    Rows must match their pinned values to 5e-7 and the fpp3 reference to
    0.5% for T <= 1 and 1% for T = 2; the T = 5 row is reported but not
    gated on the reference (the short-maturity expansion is out of its
    depth there, which is part of the point of the table).
    """
    rows = []
    for cid, sigma, T, expected, fpp3 in _TABLE2:
        sc = Scenario(cid, 2.0, 2.0, "fixed", "call", 0.05, 0.0, sigma, 0.5, T,
                      "asympt", "fpp3", fpp3)
        t0 = time.perf_counter()
        price = _price_scenario(sc)
        ms = (time.perf_counter() - t0) * 1e3
        rel = price / fpp3 - 1.0
        ok = abs(price - expected) <= value_tol
        if T <= 1.0:
            ok = ok and abs(rel) <= 0.005
        elif T <= 2.0:
            ok = ok and abs(rel) <= 0.01
        rows.append(BenchRow(sc, price, price - fpp3, rel, ok, ms))
    return rows


def run_floating() -> list[BenchRow]:
    """At-the-money floating-strike put versus the fmr benchmark (gap <= 1.5%)."""
    cid, S0, kappa, r, sigma, T, expected, ref = _FLOATING
    sc = Scenario(cid, S0, kappa, "floating", "put", r, 0.0, sigma, 0.5, T,
                  "asympt", "fmr", ref)
    t0 = time.perf_counter()
    price = _price_scenario(sc)
    ms = (time.perf_counter() - t0) * 1e3
    rel = price / ref - 1.0
    ok = abs(price - expected) <= float_value_tol and abs(rel) <= 0.015
    return [BenchRow(sc, price, price - ref, rel, ok, ms)]


def _price_scenario(sc: Scenario, mc_config: McConfig | None = None) -> float:
    params = ModelParams(S0=sc.S0, sigma=sc.sigma, beta=sc.beta, r=sc.r, q=sc.q)
    spec = OptionSpec(sc.style, sc.side, sc.K_or_kappa, sc.T)
    if sc.engine == "asympt":
        if sc.style == "fixed":
            return price_fixed(spec, params).price
        return price_floating(spec, params).price
    if sc.engine == "mc":
        config = mc_config or McConfig()
        if sc.style == "fixed":
            return simulate_asian(spec, params, config).mean
        return simulate_floating(spec, params, config).mean
    if sc.engine == "varsolve":
        return _price_from_variational(spec, params)
    raise ValueError(f"unknown engine {sc.engine!r}")


def _price_from_variational(spec: OptionSpec, params: ModelParams) -> float:
    """Price with the equivalent volatility taken from the variational solver."""
    if spec.style == "fixed":
        vol = _lognormal_vol(spec.strike, params, minimize_fixed)
        return _black(spec, params, average_forward(params, spec.maturity), vol).price
    return _bachelier(spec, params, _normal_vol(spec.strike, params, minimize_float)).price


def run_custom(path: str, mc_config: McConfig | None = None) -> list[BenchRow]:
    """Run the scenarios in a CSV file (columns: id,S0,K_or_kappa,style,side,
    r,q,sigma,beta,T,engine,ref_name,ref_value; ref columns may be empty).

    A row with a reference value is flagged ok when it agrees within 1%;
    rows without a reference are ok when they price without error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty scenario file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != len(CSV_HEADER):
                raise ValueError(f"{path} line {lineno}: expected {len(CSV_HEADER)} fields, got {len(rec)}")
            try:
                sc = Scenario(
                    id=rec[0].strip(),
                    S0=float(rec[1]), K_or_kappa=float(rec[2]),
                    style=rec[3].strip(), side=rec[4].strip(),
                    r=float(rec[5]), q=float(rec[6]),
                    sigma=float(rec[7]), beta=float(rec[8]), T=float(rec[9]),
                    engine=rec[10].strip() or "asympt",
                    ref_name=rec[11].strip(),
                    ref_value=float(rec[12]) if rec[12].strip() else math.nan,
                )
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            t0 = time.perf_counter()
            try:
                price = _price_scenario(sc, mc_config)
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            ms = (time.perf_counter() - t0) * 1e3
            if math.isnan(sc.ref_value):
                rows.append(BenchRow(sc, price, math.nan, math.nan, True, ms))
            else:
                rel = price / sc.ref_value - 1.0
                rows.append(BenchRow(sc, price, price - sc.ref_value, rel,
                                     abs(rel) <= 0.01, ms))
    return rows


def to_csv(rows: list[BenchRow], path: str) -> None:
    """Write rows deterministically (12 significant digits, runtime omitted)."""
    def fmt(x: float) -> str:
        return "" if math.isnan(x) else f"{x:.12g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OUT_HEADER)
        for row in rows:
            sc = row.scenario
            writer.writerow([
                sc.id, fmt(sc.S0), fmt(sc.K_or_kappa), sc.style, sc.side,
                fmt(sc.r), fmt(sc.q), fmt(sc.sigma), fmt(sc.beta), fmt(sc.T),
                sc.engine, sc.ref_name, fmt(sc.ref_value),
                fmt(row.price), fmt(row.abs_err), fmt(row.rel_err),
                "true" if row.ok else "false",
            ])

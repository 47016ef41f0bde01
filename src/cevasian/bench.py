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
from dataclasses import MISSING, dataclass, fields

from .model import ModelParams
from .pricing import OptionSpec, price_fixed, price_floating, price_variational
from .mc import McConfig, simulate_asian, simulate_floating

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


@dataclass(slots=True)
class BenchRow:
    scenario: Scenario
    price: float
    abs_err: float
    rel_err: float
    ok: bool
    runtime_ms: float = 0.0


# a scenario file's columns, and the results CSV's (the run's runtime left out)
CSV_HEADER = [f.name for f in fields(Scenario)]
OUT_HEADER = CSV_HEADER + [f.name for f in fields(BenchRow)][1:-1]

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


def _timed(sc: Scenario, mc_config: McConfig | None = None) -> BenchRow:
    """Price a scenario and time it; the row is ok until its caller judges it."""
    t0 = time.perf_counter()
    price = _price_scenario(sc, mc_config)
    ms = (time.perf_counter() - t0) * 1e3
    return BenchRow(sc, price, price - sc.ref_value, price / sc.ref_value - 1.0, True, ms)


def _row(sc: Scenario, expected: float, tol: float, ref_tol: float | None) -> BenchRow:
    """Price a reference scenario.  The row is ok when the price matches its
    pinned value to ``tol`` and, unless ``ref_tol`` is None, its reference
    value to ``ref_tol`` relative."""
    row = _timed(sc)
    row.ok = abs(row.price - expected) <= tol and (ref_tol is None or abs(row.rel_err) <= ref_tol)
    return row


def run_table1() -> list[BenchRow]:
    """Asymptotic prices for the seven classic square-root benchmark cases.

    A row is ok when the price matches its pinned value to 5e-7 and sits
    within 1% of the fpp3 reference.
    """
    return [_row(Scenario(cid, S0, K, "fixed", "call", r, 0.0, sigma, 0.5, T,
                          "asympt", "fpp3", fpp3), expected, value_tol, 0.01)
            for cid, S0, K, r, sigma, T, expected, fpp3 in _TABLE1]


def run_table2() -> list[BenchRow]:
    """Asymptotic at-the-money prices over the sigma/T grid.

    Rows must match their pinned values to 5e-7 and the fpp3 reference to
    0.5% for T <= 1 and 1% for T = 2; the T = 5 row is reported but not
    gated on the reference (the short-maturity expansion is out of its
    depth there, which is part of the point of the table).
    """
    rows = []
    for cid, sigma, T, expected, fpp3 in _TABLE2:
        ref_tol = 0.005 if T <= 1.0 else 0.01 if T <= 2.0 else None
        rows.append(_row(Scenario(cid, 2.0, 2.0, "fixed", "call", 0.05, 0.0, sigma, 0.5, T,
                                  "asympt", "fpp3", fpp3), expected, value_tol, ref_tol))
    return rows


def run_floating() -> list[BenchRow]:
    """At-the-money floating-strike put versus the fmr benchmark (gap <= 1.5%)."""
    cid, S0, kappa, r, sigma, T, expected, ref = _FLOATING
    sc = Scenario(cid, S0, kappa, "floating", "put", r, 0.0, sigma, 0.5, T,
                  "asympt", "fmr", ref)
    return [_row(sc, expected, float_value_tol, 0.015)]


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
        return price_variational(spec, params).price
    raise ValueError(f"unknown engine {sc.engine!r}")


def run_custom(path: str, mc_config: McConfig | None = None) -> list[BenchRow]:
    """Run the scenarios in a CSV file with the columns of CSV_HEADER; an
    empty cell takes the field's default (engine asympt, no reference).

    A row with a reference value, which must be finite and non-zero, is ok
    when it agrees within 1%; rows without one are ok when they price.
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
                values = {f.name: float(cell) if f.type == "float" else cell.strip()
                          for f, cell in zip(fields(Scenario), rec)
                          if cell.strip() or f.default is MISSING}
                sc = Scenario(**values)
                if "ref_value" in values and not (math.isfinite(sc.ref_value) and sc.ref_value):
                    raise ValueError(f"ref_value must be finite and non-zero, got {sc.ref_value}")
                row = _timed(sc, mc_config)
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            row.ok = math.isnan(sc.ref_value) or abs(row.rel_err) <= 0.01
            rows.append(row)
    return rows


def to_csv(rows: list[BenchRow], path: str) -> None:
    """Write rows deterministically (12 significant digits, runtime omitted)."""
    def cell(x) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        return x if isinstance(x, str) else "" if math.isnan(x) else f"{x:.12g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OUT_HEADER)
        for row in rows:
            writer.writerow([cell(getattr(row.scenario, name)) for name in CSV_HEADER]
                            + [cell(getattr(row, name)) for name in OUT_HEADER[len(CSV_HEADER):]])

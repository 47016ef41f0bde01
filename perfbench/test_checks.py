"""Each correctness check of the benchmark accepts the program's output and
rejects a perturbed copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import math

import pytest

import checks
import refs
import workloads
from cevasian import bench, mc, pricing, varsolve
from cevasian.mc import McConfig
from cevasian.model import ModelParams
from cevasian.pricing import OptionSpec

P = ModelParams(S0=1.2, sigma=0.45, beta=0.75, r=0.04, q=0.015)
P_HALF = ModelParams(S0=1.2, sigma=0.45, beta=0.5, r=0.04, q=0.015)
T = 0.7


def scaled_vol(res, rate_factor: float):
    """The result with its vol changed so that the implied rate is multiplied."""
    return dataclasses.replace(res, equiv_vol=res.equiv_vol / math.sqrt(rate_factor))


@pytest.mark.parametrize("p, m", [(P, 0.4), (P, 2.5), (P_HALF, 0.4), (P_HALF, 2.5)])
def test_fixed_rate_scaled_by_1e6_is_rejected(p, m):
    K = m * p.S0
    res = pricing.price_fixed(OptionSpec("fixed", "call", K, T), p)
    check = workloads.fixed_vol_check(K, p, "fixed")
    assert check(res) == []
    assert check(scaled_vol(res, 1 + 1e-6))


@pytest.mark.parametrize("kappa", [0.6, 1.8])
def test_floating_rate_scaled_by_1e6_is_rejected(kappa):
    res = pricing.price_floating(OptionSpec("floating", "put", kappa, T), P_HALF)
    check = workloads.float_vol_check(kappa, P_HALF, "floating")
    assert check(res) == []
    assert check(scaled_vol(res, 1 + 1e-6))


@pytest.mark.parametrize("m", [0.8, 1.3])
def test_swapped_fixed_call_and_put_are_rejected(m):
    K = m * P.S0
    call = pricing.price_fixed(OptionSpec("fixed", "call", K, T), P)
    put = pricing.price_fixed(OptionSpec("fixed", "put", K, T), P)
    args = (K, P.S0, P.r, P.q, T, "pair")
    assert checks.fixed_pair(call, put, *args) == []
    assert checks.fixed_pair(put, call, *args)


@pytest.mark.parametrize("kappa", [0.8, 1.3])
def test_swapped_floating_call_and_put_are_rejected(kappa):
    call = pricing.price_floating(OptionSpec("floating", "call", kappa, T), P_HALF)
    put = pricing.price_floating(OptionSpec("floating", "put", kappa, T), P_HALF)
    args = (kappa, P_HALF.S0, P_HALF.r, P_HALF.q, T, "pair")
    assert checks.floating_pair(call, put, *args) == []
    assert checks.floating_pair(put, call, *args)


def test_price_off_its_own_black_formula_is_rejected():
    K = 1.1 * P.S0
    call = pricing.price_fixed(OptionSpec("fixed", "call", K, T), P)
    put = pricing.price_fixed(OptionSpec("fixed", "put", K, T), P)
    shift = 1e-9 * P.S0
    bumped = (dataclasses.replace(call, price=call.price + shift),
              dataclasses.replace(put, price=put.price + shift))
    assert checks.fixed_pair(*bumped, K, P.S0, P.r, P.q, T, "pair")


def test_negative_price_is_rejected():
    assert checks.price_ok(0.0, "zero") == []
    assert checks.price_ok(-5e-324, "negative")
    assert checks.price_ok(math.nan, "nan")


def _curve(beta: float):
    return workloads.cli_json(["vol-curve", "--s0", "1.3", "--sigma", "0.4", "--beta",
                               str(beta), "--k-min", "0.5", "--k-max", "2", "--n", "41"])


@pytest.mark.parametrize("beta", [0.5, 0.9])
def test_vol_curve_checks_reject_perturbed_curves(beta):
    rows = _curve(beta)
    assert checks.vol_curve(rows, 0.4, beta, 1.3, "curve") == []
    atm = [dict(r) for r in rows]
    atm[20]["sigma_ln"] *= 1 + 1e-9
    assert checks.vol_curve(atm, 0.4, beta, 1.3, "curve")
    kink = [dict(r) for r in rows]
    kink[30]["sigma_ln"] = kink[31]["sigma_ln"] + (kink[31]["sigma_ln"] - kink[29]["sigma_ln"])
    assert checks.vol_curve(kink, 0.4, beta, 1.3, "curve")
    flat = [dict(r) for r in rows]
    flat[5]["rate"] = flat[6]["rate"]
    assert checks.vol_curve(flat, 0.4, beta, 1.3, "curve")


def test_table_checks_reject_a_price_outside_tolerance_and_a_missing_row():
    rows = bench.run_table1() + bench.run_table2() + bench.run_floating()
    assert checks.table_rows(rows) == []
    off = list(rows)
    off[0] = dataclasses.replace(off[0], price=off[0].price * 1.02)
    assert checks.table_rows(off)
    assert checks.table_rows(rows[1:])


N = 100  # a coarse grid keeps the solves quick


def test_fixed_minimum_checks_reject_a_wrong_value_and_a_violated_constraint():
    K = 1.5 * P_HALF.S0
    value, info = varsolve.minimize_fixed(K, P_HALF, n=N, full_output=True)
    path = info["path"].values
    closed = refs.rate_legendre_sqrt(K / P_HALF.S0) * P_HALF.S0 / P_HALF.sigma ** 2
    args = (path, K, P_HALF.S0, closed)
    assert checks.fixed_minimum(value, *args, closed, "fixed") == []
    assert checks.fixed_minimum(value * (1 + 2e-4), *args, closed, "fixed")
    moved = path.copy()
    moved[N // 2] += 1e-5
    assert checks.fixed_minimum(value, moved, K, P_HALF.S0, closed, closed, "fixed")


@pytest.mark.parametrize("kappa", [0.5, 2.0])
def test_float_minimum_above_its_feasible_path_bound_is_rejected(kappa):
    value, info = varsolve.minimize_float(kappa, P, n=N, full_output=True)
    path = info["path"].values
    bound = checks.discrete_action(checks.feasible_float_path(kappa, P.S0, N),
                                   P.sigma, P.beta)
    assert checks.float_minimum(value, path, kappa, P.S0, bound, None, "float") == []
    assert checks.float_minimum(bound * (1 + 1e-9), path, kappa, P.S0, bound, None, "float")
    moved = path.copy()
    moved[-1] *= 1 + 1e-6
    assert checks.float_minimum(value, moved, kappa, P.S0, bound, None, "float")


def test_float_minimum_off_the_riccati_dual_is_rejected():
    kappa = 2.0
    dual = refs.rate_riccati_float(kappa) * P_HALF.S0 / P_HALF.sigma ** 2
    value, info = varsolve.minimize_float(kappa, P_HALF, n=N, full_output=True)
    path = info["path"].values
    bound = checks.discrete_action(checks.feasible_float_path(kappa, P_HALF.S0, N),
                                   P_HALF.sigma, P_HALF.beta)
    args = (path, kappa, P_HALF.S0, bound)
    assert checks.float_minimum(dual * (1 + 1e-5), *args, dual, "float") == []
    assert checks.float_minimum(dual * (1 + 2e-4), *args, dual, "float")


def test_float_cli_checks_reject_perturbed_sigma_n_and_price():
    kappa, side = 1.5, "put"
    p = ModelParams(S0=1.0, sigma=0.7, beta=0.5, r=0.04, q=0.01)
    out = workloads.cli_json(["float", "--s0", "1", "--sigma", "0.7", "--beta", "0.5",
                              "--r", "0.04", "--q", "0.01", "--kappa", str(kappa),
                              "--side", side, "--maturity", "1"])
    bound = 2 * out["rate"]
    args = (kappa, p.S0, p.r, p.q, 1.0, side, bound, "cli")
    assert checks.float_cli(out, *args) == []
    assert checks.float_cli({**out, "sigma_n": out["sigma_n"] * (1 + 1e-9)}, *args)
    assert checks.float_cli({**out, "price": out["price"] * (1 + 1e-8)}, *args)
    assert checks.float_cli(out, *args[:-2], 0.5 * out["rate"], "cli")


@pytest.mark.parametrize("style", ["fixed", "floating"])
def test_mc_mean_shifted_by_5_standard_errors_is_rejected(style):
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5, r=0.03, q=0.01)
    spec = OptionSpec(style, "call", 1.0, 0.1)
    sim = mc.simulate_asian if style == "fixed" else mc.simulate_floating
    est = sim(spec, p, McConfig(n_paths=20_000, n_steps=2_000, seed=7))
    price = (pricing.price_fixed if style == "fixed" else pricing.price_floating)(spec, p).price
    assert checks.mc_agrees(est.mean, est.std_error, price, "mc") == []
    away = math.copysign(5 * est.std_error, est.mean - price)
    assert checks.mc_agrees(est.mean + away, est.std_error, price, "mc")


def test_rerun_with_a_different_mean_is_rejected():
    assert checks.identical(0.1, 0.1, "rerun") == []
    assert checks.identical(0.1, math.nextafter(0.1, 1.0), "rerun")


def test_references_agree_with_each_other_at_beta_one_half():
    # the mpmath route and the Legendre transform meet at beta = 1/2
    for m in (0.05, 0.7, 1.4, 20.0):
        assert refs.rate_mpmath(m, 0.5) == pytest.approx(refs.rate_legendre_sqrt(m), rel=1e-10)

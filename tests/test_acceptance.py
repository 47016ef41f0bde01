"""End-to-end acceptance checks.

Every check prints a single PASS/FAIL line so the whole gate can be read at a
glance with `pytest tests/test_acceptance.py -s`.

One check is known not to hold and fails honestly: the large-strike
asymptote-ratio window (`test_large_strike_asymptote_window`).  The Gamma-form
asymptote is approached too slowly for the ratio to be within 5% even at
K/S0 = 1e3; the measured ratios are ~0.944 (beta=1/2), ~0.711 (beta=3/4) and
~0.296 (beta=0.9).  See README for discussion.
"""

import math
import time

import numpy as np

from cevasian import (
    McConfig,
    ModelParams,
    OptionSpec,
    atm_price,
    average_forward,
    price_fixed,
    simulate_asian,
)
from cevasian.bench import run_floating, run_table1, run_table2
from cevasian.float_strike import jf_taylor, rate_float_cev
from cevasian.rate_cev import (
    rate_cev,
    rate_cev_large_strike,
    rate_cev_small_strike,
    rate_cev_taylor,
)
from cevasian.specfun import hyp2f1
from cevasian.varsolve import minimize_fixed
from oracles import (HYP2F1_ELEMENTARY, bs_limit_rate, legendre_fixed, legendre_float,
                     parity_gap, rate_sqrt_mpmath)


def _report(ok: bool, label: str, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" -- {detail}"
    print(line)


# ---------------------------------------------------------------- benchmarks

def test_fixed_strike_benchmark_table_one():
    t0 = time.perf_counter()
    rows = run_table1()
    elapsed = time.perf_counter() - t0
    worst = max(abs(r.rel_err) for r in rows)
    ok = all(r.ok for r in rows) and elapsed < 1.0
    _report(ok, "fixed-strike benchmark table 1 (7 scenarios, ref within 1%)",
            f"worst rel {worst:.4%}, {elapsed:.2f}s")
    assert all(r.ok for r in rows)
    assert elapsed < 1.0


def test_fixed_strike_benchmark_table_two():
    t0 = time.perf_counter()
    rows = run_table2()
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in rows) and elapsed < 1.0
    _report(ok, "fixed-strike benchmark table 2 (9 vol/maturity scenarios)",
            f"{elapsed:.2f}s")
    assert all(r.ok for r in rows)
    assert elapsed < 1.0


def test_floating_strike_benchmark():
    row = run_floating()[0]
    ok = abs(row.price - 0.14524) <= 5e-6 and abs(row.rel_err) <= 0.015
    _report(ok, "floating-strike benchmark price 0.14524 +/- 5e-6, ref within 1.5%",
            f"price {row.price:.6f}, rel {row.rel_err:+.4%}")
    assert abs(row.price - 0.14524) <= 5e-6
    assert abs(row.rel_err) <= 0.015


# ------------------------------------------------- closed form vs variational

def test_square_root_rate_three_routes_agree():
    # closed form, Legendre-transform oracle, and variational minimizer
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    t0 = time.perf_counter()
    worst = 0.0
    for m in np.geomspace(0.3, 3.0, 12):
        closed = rate_cev(float(m), params).value
        dual = legendre_fixed(float(m), params)
        vari = minimize_fixed(float(m), params, n=800)
        worst = max(worst, abs(dual / closed - 1.0), abs(vari / closed - 1.0),
                    abs(vari / dual - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(ok, "beta=1/2 rate: closed form / dual oracle / variational within 1e-4",
            f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_general_elasticity_rate_closed_vs_variational():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.6, 0.75, 0.9):
        params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
        for m in np.geomspace(0.5, 2.0, 6):
            closed = rate_cev(float(m), params).value
            vari = minimize_fixed(float(m), params, n=800)
            worst = max(worst, abs(vari / closed - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    _report(ok, "general-beta rate: hypergeometric vs variational within 1e-4",
            f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 120.0


# ------------------------------------------------------- limits and windows

def test_hypergeometric_route_at_beta_half():
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    # the trigonometric/hyperbolic closed forms, solved in 60-digit arithmetic
    worst = max(
        abs(rate_cev(float(m), params).value / (4.0 * rate_sqrt_mpmath(float(m))) - 1.0)
        for m in np.geomspace(0.25, 4.0, 9)
        if abs(m - 1.0) > 0.01
    )
    ok = worst < 1e-10
    _report(ok, "hypergeometric route reduces to trigonometric forms at beta=1/2",
            f"worst rel {worst:.2e}")
    assert worst < 1e-10


def test_lognormal_model_limit():
    params = ModelParams(S0=1.0, sigma=0.4, beta=0.999)
    worst = max(
        abs(rate_cev(m, params).value / bs_limit_rate(m, 0.4) - 1.0)
        for m in (0.5, 0.8, 1.25, 2.0)
    )
    ok = worst < 1e-2
    _report(ok, "beta -> 1 recovers the lognormal-model rate within 1e-2",
            f"worst rel {worst:.2e}")
    assert worst < 1e-2


def test_large_strike_asymptote_window():
    # known failure: the Gamma-form asymptote converges too slowly for the
    # ratio to reach the 5% window even at K/S0 = 1e3
    ratios = {}
    for beta in (0.5, 0.75, 0.9):
        params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
        ratios[beta] = rate_cev(1e3, params).value / rate_cev_large_strike(1e3, params)
    ok = all(abs(r - 1.0) < 0.05 for r in ratios.values())
    detail = ", ".join(f"beta={b}: {r:.4f}" for b, r in ratios.items())
    _report(ok, "large-strike asymptote ratio within 5% at K/S0=1e3", detail)
    assert ok, f"asymptote ratios at K/S0=1e3 outside the 5% window: {detail}"


def test_small_strike_asymptote_window():
    ratios = {}
    for beta in (0.5, 0.75, 0.9):
        params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
        ratios[beta] = rate_cev(1e-3, params).value / rate_cev_small_strike(1e-3, params)
    ok = all(abs(r - 1.0) < 0.05 for r in ratios.values())
    _report(ok, "small-strike asymptote ratio within 5% at K/S0=1e-3",
            ", ".join(f"beta={b}: {r:.6f}" for b, r in ratios.items()))
    assert ok


def test_taylor_remainder_bounds():
    xs = [x for x in np.linspace(-0.2, 0.2, 81) if abs(x) > 1e-3]
    p_half = ModelParams(S0=1.0, sigma=1.0, beta=0.5)
    s_half = max(abs(rate_cev(math.exp(x), p_half).value - rate_cev_taylor(math.exp(x), p_half)) / abs(x) ** 5 for x in xs)
    p_34 = ModelParams(S0=1.0, sigma=1.0, beta=0.75)
    s_34 = max(abs(rate_cev(math.exp(x), p_34).value - rate_cev_taylor(math.exp(x), p_34)) / abs(x) ** 5 for x in xs)
    s_float = max(abs(rate_float_cev(math.exp(x), p_half).value - jf_taylor(math.exp(x))) / abs(x) ** 5 for x in xs)
    ok = s_half < 0.1 and s_34 < 0.05 and s_float < 0.5
    _report(ok, "fourth-order series remainders are O(x^5) with bounded ratio",
            f"sup ratios {s_half:.3f} (b=1/2), {s_34:.4f} (b=3/4), {s_float:.3f} (floating)")
    assert s_half < 0.1
    assert s_34 < 0.05
    assert s_float < 0.5


# ----------------------------------------------------------- simulation gate

def test_monte_carlo_agrees_with_asymptotics():
    params = ModelParams(S0=2.0, sigma=0.71, beta=0.5, r=0.05)
    spec = OptionSpec("fixed", "call", 2.0, 0.1)
    asym = price_fixed(spec, params).price
    t0 = time.perf_counter()
    est = simulate_asian(spec, params, McConfig(n_paths=1_000_000, n_steps=20_000, seed=17))
    elapsed = time.perf_counter() - t0
    dev = (est.mean - asym) / est.std_error
    ok = abs(dev) < 3.0 and elapsed < 240.0
    _report(ok, "1e6-path simulation matches the asymptotic price within 3 s.e.",
            f"deviation {dev:+.2f} s.e., {elapsed:.0f}s")
    assert abs(dev) < 3.0
    assert elapsed < 240.0


def test_monte_carlo_at_the_money_law():
    params = ModelParams(S0=2.0, sigma=0.71, beta=0.5)
    t0 = time.perf_counter()
    devs = {}
    for T in (0.04, 0.01):
        est = simulate_asian(
            OptionSpec("fixed", "call", 2.0, T), params,
            McConfig(n_paths=400_000, n_steps=4000, seed=17),
        )
        devs[T] = (est.mean - atm_price(params, T)) / est.std_error
    elapsed = time.perf_counter() - t0
    ok = all(abs(d) < 3.0 for d in devs.values()) and elapsed < 60.0
    _report(ok, "at-the-money price follows sigma S0^beta sqrt(T/(6 pi))",
            ", ".join(f"T={T}: {d:+.2f} s.e." for T, d in devs.items()))
    assert all(abs(d) < 3.0 for d in devs.values())
    assert elapsed < 60.0


# ------------------------------------------------------------- invariants

def test_put_call_parity_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        S0 = rng.uniform(0.5, 3.0)
        params = ModelParams(
            S0=S0,
            sigma=rng.uniform(0.1, 0.8),
            beta=rng.uniform(0.5, 0.95),
            r=rng.uniform(-0.02, 0.1),
            q=rng.uniform(0.0, 0.05),
        )
        K = S0 * rng.uniform(0.4, 2.5)
        T = rng.uniform(0.05, 2.0)
        call = price_fixed(OptionSpec("fixed", "call", K, T), params).price
        put = price_fixed(OptionSpec("fixed", "put", K, T), params).price
        worst = max(worst, abs(parity_gap(call, put, K, params, T)))
    ok = worst < 1e-13
    _report(ok, "put-call parity holds to 1e-13 over 1000 random scenarios",
            f"worst gap {worst:.2e}")
    assert worst < 1e-13


def test_rate_monotonicity_and_atm_zero():
    ok = True
    for beta in (0.5, 0.7, 0.9):
        params = ModelParams(S0=1.0, sigma=0.5, beta=beta)
        ok &= rate_cev(1.0, params).value == 0.0
        puts = [rate_cev(m, params).value for m in np.linspace(0.2, 0.9, 8)]
        calls = [rate_cev(m, params).value for m in np.linspace(1.1, 3.0, 8)]
        ok &= all(a > b for a, b in zip(puts, puts[1:]))
        ok &= all(a < b for a, b in zip(calls, calls[1:]))
    p5 = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    ok &= rate_float_cev(1.0, p5).value == 0.0
    floats_dn = [rate_float_cev(k, p5).value for k in np.linspace(0.4, 0.95, 8)]
    floats_up = [rate_float_cev(k, p5).value for k in np.linspace(1.05, 2.5, 8)]
    ok &= all(a > b for a, b in zip(floats_dn, floats_dn[1:]))
    ok &= all(a < b for a, b in zip(floats_up, floats_up[1:]))
    _report(ok, "rates vanish at the money and increase away from it, both styles")
    assert ok


def test_elementary_reductions_identity():
    worst = 0.0
    grids = (
        (((0.5, 0.5, 1.5), (0.5, 1.0, 1.5), (0.5, 1.5, 2.5), (1.0, 1.5, 2.5)),
         np.linspace(-0.5, 0.5, 11)),
        (((0.5, 0.5, 1.5), (0.5, 1.5, 2.5)), np.linspace(0.55, 0.95, 5)),
        (((0.5, 1.0, 1.5), (1.0, 1.5, 2.5)), np.linspace(-20.0, -1.5, 5)),
    )
    for triples, zs in grids:
        for a, b, c in triples:
            elem = HYP2F1_ELEMENTARY[(a, b, c)]
            for z in zs:
                if z == 0.0:
                    continue
                worst = max(worst, abs(hyp2f1(a, b, c, float(z)) / elem(float(z)) - 1.0))
    ok = worst < 1e-12
    _report(ok, "2F1 matches its closed-form reductions at beta=1/2",
            f"worst rel {worst:.2e}")
    assert worst < 1e-12


def test_floating_rate_legendre_duality():
    params = ModelParams(S0=1.0, sigma=0.45, beta=0.5)
    worst = max(
        abs(rate_float_cev(k, params).value / legendre_float(k, params) - 1.0)
        for k in (0.5, 0.8, 1.25, 2.0)
    )
    ok = worst < 1e-7
    _report(ok, "floating-strike rate equals its dual supremum within 1e-7",
            f"worst rel {worst:.2e}")
    assert worst < 1e-7

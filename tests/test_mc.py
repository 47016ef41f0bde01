"""Monte Carlo engine (full-truncation Euler, antithetic pairs).

Exactness on a deterministic (zero-volatility) scenario, seed determinism,
martingale and parity checks within standard-error bands, and agreement with
the asymptotic prices on the benchmark scenarios.
"""

import math

import numpy as np
import pytest

from cevasian import (
    McConfig,
    ModelParams,
    OptionSpec,
    average_forward,
    price_floating,
    rate_from_mc,
    simulate_asian,
    simulate_floating,
)
from cevasian.rate_sqrt import rate_sqrt

se_band = 3.5


def test_zero_volatility_matches_discrete_reference():
    # with sigma ~ 0 every path is the deterministic Euler recursion
    p = ModelParams(S0=2.0, sigma=1e-14, beta=0.5, r=0.05)
    config = McConfig(n_paths=64, n_steps=100, seed=1)
    est = simulate_asian(OptionSpec("fixed", "call", 1.9, 1.0), p, config)

    steps = 100
    dt = 1.0 / steps
    s = 2.0
    acc = 0.0
    for _ in range(steps):
        s_next = s * (1.0 + 0.05 * dt)
        acc += 0.5 * (s + s_next) * dt
        s = s_next
    expect = math.exp(-0.05) * max(acc - 1.9, 0.0)
    assert est.mean == pytest.approx(expect, abs=1e-9)
    assert est.std_error < 1e-8


def test_seed_determinism():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5, r=0.02)
    spec = OptionSpec("fixed", "call", 1.1, 0.5)
    config = McConfig(n_paths=20_000, n_steps=200, seed=7)
    a = simulate_asian(spec, p, config)
    b = simulate_asian(spec, p, config)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    c = simulate_asian(spec, p, McConfig(n_paths=20_000, n_steps=200, seed=8))
    assert c.mean != a.mean


def test_antithetic_toggle_consistent():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    spec = OptionSpec("fixed", "call", 1.0, 0.5)
    a = simulate_asian(spec, p, McConfig(n_paths=40_000, n_steps=200, seed=5))
    b = simulate_asian(spec, p, McConfig(n_paths=40_000, n_steps=200, seed=5, antithetic=False))
    assert a.mean != b.mean
    assert abs(a.mean - b.mean) < 5.0 * (a.std_error + b.std_error)


def test_average_is_a_martingale():
    # undiscounted E[avg] must equal the forward of the average; priced via a
    # strike that is effectively zero
    p = ModelParams(S0=2.0, sigma=0.3, beta=0.5, r=0.05)
    est = simulate_asian(
        OptionSpec("fixed", "call", 1e-12, 1.0), p,
        McConfig(n_paths=100_000, n_steps=400, seed=9),
    )
    undisc = est.mean * math.exp(0.05)
    se = est.std_error * math.exp(0.05)
    assert abs(undisc - average_forward(p, 1.0)) < se_band * se


def test_mc_put_call_parity():
    p = ModelParams(S0=2.0, sigma=0.4, beta=0.75, r=0.03)
    config = McConfig(n_paths=100_000, n_steps=400, seed=11)
    call = simulate_asian(OptionSpec("fixed", "call", 1.9, 1.0), p, config)
    put = simulate_asian(OptionSpec("fixed", "put", 1.9, 1.0), p, config)
    gap = call.mean - put.mean - math.exp(-0.03) * (average_forward(p, 1.0) - 1.9)
    assert abs(gap) < se_band * (call.std_error + put.std_error)


def test_step_refinement_stable():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5, r=0.02)
    spec = OptionSpec("fixed", "call", 1.2, 1.0)
    coarse = simulate_asian(spec, p, McConfig(n_paths=100_000, n_steps=200, seed=13))
    fine = simulate_asian(spec, p, McConfig(n_paths=100_000, n_steps=400, seed=13))
    assert abs(coarse.mean - fine.mean) < se_band * math.hypot(
        coarse.std_error, fine.std_error
    )


def test_absorption_at_zero_is_tracked():
    # low spot, high vol: many paths hit zero and stay there
    p = ModelParams(S0=0.25, sigma=1.5, beta=0.5)
    est = simulate_asian(
        OptionSpec("fixed", "put", 0.25, 2.0), p,
        McConfig(n_paths=20_000, n_steps=400, seed=2),
    )
    assert 1000 < est.n_absorbed < 20_000
    assert est.mean > 0.0


def test_floating_benchmark_within_error_band():
    p = ModelParams(S0=1.0, sigma=0.7, beta=0.5, r=0.04)
    est = simulate_floating(
        OptionSpec("floating", "put", 1.0, 1.0), p,
        McConfig(n_paths=200_000, n_steps=400, seed=3),
    )
    assert est.std_error < 5e-4
    assert abs(est.mean - 0.14376) < 3.0 * est.std_error
    # the asymptotic price carries an O(T) bias at T = 1, so compare it on a
    # relative scale rather than in standard-error units
    asym = price_floating(OptionSpec("floating", "put", 1.0, 1.0), p).price
    assert abs(asym / est.mean - 1.0) < 0.015


def test_rate_from_mc_decreases_towards_the_rate_function():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    config = McConfig(n_paths=100_000, n_steps=400, seed=3)
    vals = rate_from_mc(1.3, p, [0.4, 0.2, 0.1], config)
    assert np.all(np.isfinite(vals))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert np.all(vals > rate_sqrt(1.3, p).value)


def test_rate_from_mc_starved_sampling_gives_nan():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    config = McConfig(n_paths=1000, n_steps=400, seed=4)
    vals = rate_from_mc(3.0, p, [0.05], config)
    assert math.isnan(vals[0])


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0, n_steps=100, seed=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=100, n_steps=0, seed=0)


def test_style_mismatch_is_rejected():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    config = McConfig(n_paths=100, n_steps=10, seed=0)
    with pytest.raises(ValueError):
        simulate_asian(OptionSpec("floating", "call", 1.0, 1.0), p, config)
    with pytest.raises(ValueError):
        simulate_floating(OptionSpec("fixed", "call", 1.0, 1.0), p, config)

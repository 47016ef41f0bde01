"""Monte Carlo engine (full-truncation Euler, antithetic pairs).

Exactness on a deterministic (zero-volatility) scenario, seed determinism,
martingale and parity checks within standard-error bands, and agreement with
the asymptotic prices on the benchmark scenarios.
"""

import math
import os
import threading
import time

import numpy as np
import pytest

from cevasian import (
    ConvergenceError,
    McConfig,
    ModelParams,
    OptionSpec,
    average_forward,
    price_floating,
    rate_from_mc,
    simulate_asian,
    simulate_floating,
)
from cevasian import mc
from cevasian.rate_cev import rate_sqrt

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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimate_is_bit_identical_for_any_worker_count(monkeypatch, workers):
    # 150,000 paths are 3 blocks (32,768 + 32,768 + 9,464 pairs); the pinned
    # values come from running the blocks one after another
    monkeypatch.setattr(mc, "_workers", lambda n_blocks: workers)
    p = ModelParams(S0=0.25, sigma=1.5, beta=0.5, r=0.02)
    est = simulate_asian(OptionSpec("fixed", "put", 0.25, 1.0), p,
                         McConfig(n_paths=150_000, n_steps=20, seed=5))
    assert est == mc.McEstimate(mean=0.12536913056814272, std_error=0.00012219809155305578,
                                n_absorbed=112592, n_steps=20, n_blocks=3)


# beta = 0.75 runs the power path: two 3-block cases (32,768 + 32,768 +
# 9,464 pairs) and one single-block case, recorded with the two antithetic
# legs stepped one after another and one normal draw per step
PINNED_POW = [
    (ModelParams(S0=1.0, sigma=0.6, beta=0.75, r=0.03), OptionSpec("fixed", "put", 0.9, 1.0),
     McConfig(n_paths=150_000, n_steps=20, seed=21),
     mc.McEstimate(mean=0.08070240405906039, std_error=0.00025381422046452337,
                   n_absorbed=0, n_steps=20, n_blocks=3)),
    (ModelParams(S0=1.0, sigma=0.6, beta=0.75, r=0.03), OptionSpec("floating", "call", 1.0, 1.0),
     McConfig(n_paths=150_000, n_steps=20, seed=22),
     mc.McEstimate(mean=0.1426907184216688, std_error=0.0005840561940735077,
                   n_absorbed=1, n_steps=20, n_blocks=3)),
    (ModelParams(S0=2.0, sigma=0.8, beta=0.75, r=0.01), OptionSpec("fixed", "call", 2.1, 0.5),
     McConfig(n_paths=20_000, n_steps=40, seed=23),
     mc.McEstimate(mean=0.1759041249353272, std_error=0.001986724533104346,
                   n_absorbed=0, n_steps=20, n_blocks=1)),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", range(len(PINNED_POW)))
def test_power_path_estimate_is_pinned_for_any_worker_count(monkeypatch, workers, case):
    monkeypatch.setattr(mc, "_workers", lambda n_blocks: workers)
    p, spec, config, pinned = PINNED_POW[case]
    run = simulate_asian if spec.style == "fixed" else simulate_floating
    assert run(spec, p, config) == pinned


class _BrokenDraws:
    """A generator whose draw of normals number ``call`` raises or, with
    ``bad_chunk``, returns a chunk that the stepping thread cannot use.  The
    draws after it are slow, so that a drawing thread left running when the
    call returns is still alive."""

    def __init__(self, rng, call, bad_chunk):
        self.rng, self.call, self.bad_chunk, self.calls = rng, call, bad_chunk, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.call:
            if self.bad_chunk:
                return np.zeros((1, 7))
            raise RuntimeError("draw failed")
        if self.calls > self.call:
            time.sleep(0.2)
        return self.rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("call, bad_chunk, error", [
    (3, False, RuntimeError),  # the drawing thread fails on the last chunk
    (1, True, ValueError),     # the stepping thread fails with draws queued
])
def test_a_failing_draw_or_step_reaches_the_caller_and_stops_every_thread(
        monkeypatch, call, bad_chunk, error):
    # 20 steps are chunks of 8, 8 and 4 in each of 3 blocks
    monkeypatch.setattr(mc, "default_rng",
                        lambda seed: _BrokenDraws(np.random.default_rng(seed), call, bad_chunk))
    monkeypatch.setattr(mc, "_workers", lambda n_blocks: 2)
    before = threading.active_count()
    raised = []

    def run():
        try:
            simulate_asian(OptionSpec("fixed", "put", 0.25, 1.0),
                           ModelParams(S0=0.25, sigma=1.5, beta=0.75),
                           McConfig(n_paths=150_000, n_steps=20, seed=5))
        except Exception as exc:  # handed to the test thread below
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "simulate_asian hung after the failure"
    assert len(raised) == 1 and isinstance(raised[0], error)
    assert threading.active_count() == before


def test_worker_count_never_exceeds_cpus_or_blocks():
    assert mc._workers(1) == 1
    assert 1 <= mc._workers(10_000) <= os.cpu_count()


def test_integer_spot_simulates_like_a_float_spot():
    spec = OptionSpec("fixed", "call", 2.1, 0.5)
    config = McConfig(n_paths=2_000, n_steps=200, seed=1)
    as_int = simulate_asian(spec, ModelParams(S0=2, sigma=0.5, beta=0.75), config)
    as_float = simulate_asian(spec, ModelParams(S0=2.0, sigma=0.5, beta=0.75), config)
    assert as_int == as_float


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


def test_overflowing_discount_is_a_convergence_error():
    config = McConfig(n_paths=4, n_steps=1, seed=0)
    spec = OptionSpec("fixed", "call", 1.2, 10.0)
    # e^{-rT} = e^1000 overflows before any path is drawn
    with pytest.raises(ConvergenceError, match="discount factor"):
        simulate_asian(spec, ModelParams(S0=1.0, sigma=0.5, beta=0.5, r=-100.0), config)
    # the price returns, discounted to 0, but e^{rT} cannot undo the discount
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5, r=100.0, q=100.0)
    assert simulate_asian(spec, p, config).mean == 0.0
    with pytest.raises(ConvergenceError, match="undiscounting factor"):
        rate_from_mc(1.2, p, [10.0], config)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0, n_steps=100, seed=0)
    # one antithetic pair would report a standard error of exactly 0
    for n_paths in (1, 2):
        with pytest.raises(ValueError, match="two antithetic pairs"):
            McConfig(n_paths=n_paths, n_steps=100, seed=0)
    assert simulate_asian(OptionSpec("fixed", "call", 1.0, 1.0),
                          ModelParams(S0=1.0, sigma=0.5, beta=0.5),
                          McConfig(n_paths=3, n_steps=10, seed=0)).std_error > 0.0
    with pytest.raises(ValueError):
        McConfig(n_paths=100, n_steps=0, seed=0)


def test_style_mismatch_is_rejected():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    config = McConfig(n_paths=100, n_steps=10, seed=0)
    with pytest.raises(ValueError):
        simulate_asian(OptionSpec("floating", "call", 1.0, 1.0), p, config)
    with pytest.raises(ValueError):
        simulate_floating(OptionSpec("fixed", "call", 1.0, 1.0), p, config)

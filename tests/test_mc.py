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
from numpy.random import SeedSequence

from cevasian import (
    ConvergenceError,
    McConfig,
    ModelParams,
    OptionSpec,
    average_forward,
    price_floating,
    simulate_asian,
    simulate_floating,
)
from cevasian import mc
from cevasian.cli import main
from cevasian.rate_cev import rate_cev
from oracles import rate_from_mc

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


def _reference(spec, params, config):
    """The kernel as a plain recursion: the blocks in order, each leg on its
    own, one draw of m normals per step from the block's stream, and
    s = max(s (1 + mu dt) +- s^beta (z sigma sqrt(dt)), 0) at each step."""
    T, S0, K = spec.maturity, float(params.S0), spec.strike
    steps = max(1, round(config.n_steps * T))
    dt = T / steps
    scale = params.sigma * math.sqrt(dt)
    growth = 1.0 + (params.r - params.q) * dt
    n_pairs = (config.n_paths + 1) // 2
    n_blocks = -(-n_pairs // mc._BLOCK_PAIRS)
    sums, sums2, absorbed = [], [], 0
    for b, child in enumerate(SeedSequence(config.seed).spawn(n_blocks)):
        m = n_pairs // n_blocks + (b < n_pairs % n_blocks)
        rng = mc._generator(child)
        zs = [rng.standard_normal(m) * scale for _ in range(steps)]
        pays = []
        for sign in (1.0, -1.0):
            s, acc = np.full(m, S0), np.full(m, 0.5 * S0)
            for z in zs:
                s = np.maximum(s * growth + sign * (s ** params.beta * z), 0.0)
                acc = acc + s
            avg = (acc - 0.5 * s) / steps
            absorbed += int(np.count_nonzero(s <= 0.0))
            if spec.style == "fixed":
                pays.append(np.maximum(avg - K, 0.0) if spec.side == "call"
                            else np.maximum(K - avg, 0.0))
            else:
                pays.append(np.maximum(K * s - avg, 0.0) if spec.side == "call"
                            else np.maximum(avg - K * s, 0.0))
        pm = 0.5 * (pays[0] + pays[1])
        sums.append(float(np.sum(pm)))
        sums2.append(float(np.sum(pm * pm)))
    disc = math.exp(-params.r * T)
    mean = math.fsum(sums) / n_pairs
    var = max(math.fsum(sums2) / n_pairs - mean * mean, 0.0)
    return mc.McEstimate(disc * mean, disc * math.sqrt(var / n_pairs), absorbed, steps, n_blocks)


# (params, spec, config, pairs per block): 1 to 3 blocks, odd pair counts,
# both power branches and a case with absorbed paths
REFERENCE_CASES = [
    (ModelParams(S0=0.25, sigma=1.5, beta=0.5, r=0.02), OptionSpec("fixed", "put", 0.25, 1.0),
     McConfig(n_paths=150_000, n_steps=20, seed=5), mc._BLOCK_PAIRS),
    (ModelParams(S0=1.0, sigma=0.6, beta=0.75, r=0.03, q=0.01),
     OptionSpec("fixed", "call", 1.1, 0.5), McConfig(n_paths=20_001, n_steps=42, seed=3),
     mc._BLOCK_PAIRS),
    (ModelParams(S0=1.0, sigma=0.6, beta=0.75, r=0.03), OptionSpec("floating", "put", 1.0, 1.0),
     McConfig(n_paths=4_005, n_steps=19, seed=4), 1_000),
    (ModelParams(S0=2.0, sigma=0.8, beta=0.5, r=-0.01), OptionSpec("floating", "call", 0.9, 0.7),
     McConfig(n_paths=3_001, n_steps=30, seed=6), 1_000),
]


@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_kernel_equals_the_reference_recursion(monkeypatch, case):
    p, spec, config, block_pairs = REFERENCE_CASES[case]
    monkeypatch.setattr(mc, "_BLOCK_PAIRS", block_pairs)
    run = simulate_asian if spec.style == "fixed" else simulate_floating
    est = run(spec, p, config)
    assert est == _reference(spec, p, config)
    if case == 0:
        assert est.n_absorbed > 0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimate_is_bit_identical_for_any_worker_count(monkeypatch, workers):
    # 150,000 paths are 3 blocks of 25,000 pairs; the pinned values come
    # from _reference, which runs the blocks one after another
    monkeypatch.setattr(mc, "_workers", lambda n_blocks: workers)
    p = ModelParams(S0=0.25, sigma=1.5, beta=0.5, r=0.02)
    est = simulate_asian(OptionSpec("fixed", "put", 0.25, 1.0), p,
                         McConfig(n_paths=150_000, n_steps=20, seed=5))
    assert est == mc.McEstimate(mean=0.12532601002916108, std_error=0.00012184209457474546,
                                n_absorbed=112595, n_steps=20, n_blocks=3)


# beta = 0.75 runs the power path: two 3-block cases (3 x 25,000 pairs) and
# one single-block case, recorded from _reference
PINNED_POW = [
    (ModelParams(S0=1.0, sigma=0.6, beta=0.75, r=0.03), OptionSpec("fixed", "put", 0.9, 1.0),
     McConfig(n_paths=150_000, n_steps=20, seed=21),
     mc.McEstimate(mean=0.08097347086817051, std_error=0.0002554622430899259,
                   n_absorbed=1, n_steps=20, n_blocks=3)),
    (ModelParams(S0=1.0, sigma=0.6, beta=0.75, r=0.03), OptionSpec("floating", "call", 1.0, 1.0),
     McConfig(n_paths=150_000, n_steps=20, seed=22),
     mc.McEstimate(mean=0.14163698199568317, std_error=0.0005808307148089742,
                   n_absorbed=0, n_steps=20, n_blocks=3)),
    (ModelParams(S0=2.0, sigma=0.8, beta=0.75, r=0.01), OptionSpec("fixed", "call", 2.1, 0.5),
     McConfig(n_paths=20_000, n_steps=40, seed=23),
     mc.McEstimate(mean=0.17690020459754574, std_error=0.001974411899850927,
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
    make = mc._generator
    monkeypatch.setattr(mc, "_generator",
                        lambda seed: _BrokenDraws(make(seed), call, bad_chunk))
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
    assert np.all(vals > rate_cev(1.3, p).value)


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


@pytest.mark.parametrize("maturity, n_steps", [
    (1e300, 400),                           # 4e302 steps
    (mc.MAX_STEPS / 400 * (1 + 1e-9), 400),  # just above the bound
    (1.0, mc.MAX_STEPS + 1),
    (1.7e308, 10 ** 400),                   # n_steps T beyond the doubles
])
def test_step_count_above_the_bound_is_refused_before_any_draw(monkeypatch, maturity, n_steps):
    def no_draws(*args, **kwargs):
        raise AssertionError("seeded a draw for a refused step count")
    monkeypatch.setattr(mc, "SeedSequence", no_draws)
    spec = OptionSpec("fixed", "call", 1.2, maturity)
    config = McConfig(n_paths=4, n_steps=n_steps)
    # r != q: the forward of the average overflows too, but the bound comes first
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.75, r=0.05)
    with pytest.raises(ValueError, match="exceeds 1e[+]07 steps"):
        simulate_asian(spec, p, config)
    with pytest.raises(ValueError, match="exceeds 1e[+]07 steps"):
        simulate_floating(OptionSpec("floating", "put", 1.2, maturity), p, config)


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


@pytest.mark.parametrize("field, value, message", [
    ("n_paths", mc.MAX_PATHS + 1, "n_paths must be an integer from 3"),
    ("n_paths", 10 ** 15, "n_paths must be an integer from 3"),
    ("n_paths", 1e5, "n_paths must be an integer from 3"),
    ("n_paths", math.inf, "n_paths must be an integer from 3"),
    ("n_paths", math.nan, "n_paths must be an integer from 3"),
    ("seed", 1.5, "seed must be a non-negative integer"),
    ("seed", -1, "seed must be a non-negative integer"),
    ("n_steps", math.nan, "n_steps must be positive"),
    ("n_steps", -math.inf, "n_steps must be positive"),
])
def test_config_outside_its_domain_is_a_value_error(field, value, message):
    with pytest.raises(ValueError, match=message):
        McConfig(**{"n_paths": 100, "n_steps": 10, "seed": 0, field: value})


@pytest.mark.parametrize("flag", [f"--n-paths={mc.MAX_PATHS + 1}", f"--n-paths={10 ** 15}",
                                  "--seed=-1"])
def test_cli_refuses_a_config_outside_its_domain_before_any_draw(monkeypatch, capsys, flag):
    def no_draws(*args, **kwargs):
        raise AssertionError("seeded a draw for a refused config")
    monkeypatch.setattr(mc, "SeedSequence", no_draws)
    argv = ["mc", "--sigma=0.5", "--beta=0.5", "--strike=1", "--maturity=1", flag]
    assert main(argv) == 2
    assert "must be" in capsys.readouterr().err


def test_config_bounds_take_integers_of_any_kind():
    # the largest path count is accepted (and not run); numpy integers
    # simulate like Python ones
    assert McConfig(n_paths=mc.MAX_PATHS).n_paths == mc.MAX_PATHS
    spec, p = OptionSpec("fixed", "call", 1.0, 1.0), ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    as_numpy = McConfig(n_paths=np.int64(1_000), n_steps=10, seed=np.uint32(7))
    as_int = McConfig(n_paths=1_000, n_steps=10, seed=7)
    assert simulate_asian(spec, p, as_numpy) == simulate_asian(spec, p, as_int)


def test_style_mismatch_is_rejected():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    config = McConfig(n_paths=100, n_steps=10, seed=0)
    with pytest.raises(ValueError):
        simulate_asian(OptionSpec("floating", "call", 1.0, 1.0), p, config)
    with pytest.raises(ValueError):
        simulate_floating(OptionSpec("fixed", "call", 1.0, 1.0), p, config)

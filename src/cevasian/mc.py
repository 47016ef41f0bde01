"""Monte Carlo pricing of arithmetic Asian options under the CEV dynamics.

Full-truncation Euler scheme on S (the origin is absorbing: once a path is
clamped at zero both drift and diffusion vanish), trapezoidal time average,
antithetic pairs, and block-sequential accumulation with compensated sums so
results are reproducible for a given seed regardless of block size.

``n_steps`` counts Euler steps per unit of maturity; the actual number of
steps is max(1, round(n_steps * T)) so that step size is comparable across
the maturity grids used in the convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .pricing import OptionSpec

_BLOCK_PATHS = 65536  # paths per block (pairs count double)


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    n_steps: int = 400
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self) -> None:
        if self.n_paths <= 0:
            raise ValueError(f"n_paths must be positive, got {self.n_paths}")
        if self.n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {self.n_steps}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_absorbed: int


def _steps_for(T: float, config: McConfig) -> int:
    return max(1, int(round(config.n_steps * T)))


def _run_blocks(params: ModelParams, T: float, config: McConfig, payoff):
    """Simulate paths in blocks; payoff(avg, s_final) -> per-path payoffs."""
    steps = _steps_for(T, config)
    dt = T / steps
    sqdt = math.sqrt(dt)
    mu = params.r - params.q
    sig, beta, S0 = params.sigma, params.beta, params.S0

    if config.antithetic:
        n_pairs = (config.n_paths + 1) // 2
        unit = 2
        n_units = n_pairs
    else:
        unit = 1
        n_units = config.n_paths
    block_units = max(1, _BLOCK_PATHS // unit)
    n_blocks = (n_units + block_units - 1) // block_units
    children = np.random.SeedSequence(config.seed).spawn(n_blocks)

    sums, sums2 = [], []
    total_units = 0
    n_absorbed = 0

    for b in range(n_blocks):
        m = min(block_units, n_units - b * block_units)
        rng = np.random.default_rng(children[b])
        if config.antithetic:
            s_plus = np.full(m, S0)
            s_minus = np.full(m, S0)
            acc_plus = np.zeros(m)
            acc_minus = np.zeros(m)
            for _ in range(steps):
                z = rng.standard_normal(m)
                for s, acc, sign in ((s_plus, acc_plus, 1.0), (s_minus, acc_minus, -1.0)):
                    prev = s.copy()
                    s += mu * s * dt + sig * s ** beta * (sign * sqdt) * z
                    np.maximum(s, 0.0, out=s)
                    acc += 0.5 * (prev + s) * dt
            n_absorbed += int(np.count_nonzero(s_plus <= 0.0))
            n_absorbed += int(np.count_nonzero(s_minus <= 0.0))
            pm = 0.5 * (payoff(acc_plus / T, s_plus) + payoff(acc_minus / T, s_minus))
        else:
            s = np.full(m, S0)
            acc = np.zeros(m)
            for _ in range(steps):
                z = rng.standard_normal(m)
                prev = s.copy()
                s += mu * s * dt + sig * s ** beta * sqdt * z
                np.maximum(s, 0.0, out=s)
                acc += 0.5 * (prev + s) * dt
            n_absorbed += int(np.count_nonzero(s <= 0.0))
            pm = payoff(acc / T, s)
        sums.append(float(np.sum(pm)))
        sums2.append(float(np.sum(pm * pm)))
        total_units += m

    mean = math.fsum(sums) / total_units
    var = max(math.fsum(sums2) / total_units - mean * mean, 0.0)
    se = math.sqrt(var / total_units)
    disc = math.exp(-params.r * T)
    return McEstimate(disc * mean, disc * se, n_absorbed)


def simulate_asian(spec: OptionSpec, params: ModelParams, config: McConfig) -> McEstimate:
    """Monte Carlo price of a fixed-strike Asian option."""
    if spec.style != "fixed":
        raise ValueError(f"simulate_asian needs a fixed-strike spec, got style {spec.style!r}")
    K = spec.strike
    if spec.side == "call":
        payoff = lambda avg, s: np.maximum(avg - K, 0.0)
    else:
        payoff = lambda avg, s: np.maximum(K - avg, 0.0)
    return _run_blocks(params, spec.maturity, config, payoff)


def simulate_floating(spec: OptionSpec, params: ModelParams, config: McConfig) -> McEstimate:
    """Monte Carlo price of a floating-strike Asian option
    (call = (kappa S_T - A_T)^+, put = (A_T - kappa S_T)^+)."""
    if spec.style != "floating":
        raise ValueError(f"simulate_floating needs a floating-strike spec, got style {spec.style!r}")
    kappa = spec.strike
    if spec.side == "call":
        payoff = lambda avg, s: np.maximum(kappa * s - avg, 0.0)
    else:
        payoff = lambda avg, s: np.maximum(avg - kappa * s, 0.0)
    return _run_blocks(params, spec.maturity, config, payoff)


def rate_from_mc(K: float, params: ModelParams, T_grid, config: McConfig,
                 side: str | None = None) -> np.ndarray:
    """Estimate the rate function from simulated prices: -T log(undiscounted
    price) along a decreasing maturity grid.

    The side defaults to the out-of-the-money one for strike K.  Entries where
    the estimate is statistically starved (mean below twice its standard
    error, or non-positive) come back as NaN rather than a bogus rate.
    """
    if side is None:
        side = "call" if K >= params.S0 else "put"
    out = np.empty(len(T_grid))
    for i, T in enumerate(T_grid):
        spec = OptionSpec("fixed", side, K, float(T))
        est = simulate_asian(spec, params, config)
        undisc = est.mean * math.exp(params.r * T)
        if undisc <= 0.0 or est.mean < 2.0 * est.std_error:
            out[i] = math.nan
        else:
            out[i] = -T * math.log(undisc)
    return out

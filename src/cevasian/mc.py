"""Monte Carlo pricing of arithmetic Asian options under the CEV dynamics.

Full-truncation Euler scheme on S (the origin is absorbing: once a path is
clamped at zero both drift and diffusion vanish), trapezoidal time average
and antithetic pairs.  The pairs are simulated in fixed-size blocks, each
with its own child of ``SeedSequence(seed)``; the blocks run concurrently
on threads (numpy releases the interpreter lock inside its ufuncs and
samplers) and their sums are combined with the exact ``math.fsum``, so a
result is identical for a given seed whatever the number of cores.

``n_steps`` counts Euler steps per unit of maturity; the actual number of
steps is max(1, round(n_steps * T)) so that step size is comparable across
the maturity grids used in the convergence studies.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .pricing import OptionSpec

_BLOCK_PAIRS = 32768  # antithetic pairs per block


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    n_steps: int = 400
    seed: int = 0

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
    n_steps: int   # Euler steps per path
    n_blocks: int  # seed blocks of up to _BLOCK_PAIRS antithetic pairs


def _workers(n_blocks: int) -> int:
    """Threads for n_blocks independent blocks: one per usable CPU, at most
    one per block."""
    if hasattr(os, "sched_getaffinity"):
        n_cpu = len(os.sched_getaffinity(0))
    else:
        n_cpu = os.cpu_count() or 1
    return min(n_cpu, n_blocks)


def _steps_for(T: float, config: McConfig) -> int:
    return max(1, int(round(config.n_steps * T)))


def _run_blocks(params: ModelParams, T: float, config: McConfig, payoff):
    """Simulate antithetic pairs in blocks; payoff(avg, s_final) -> per-path
    payoffs.  A pair counts as one sample: the mean of its two payoffs."""
    steps = _steps_for(T, config)
    dt = T / steps
    sqdt = math.sqrt(dt)
    mu = params.r - params.q
    sig, beta, S0 = params.sigma, params.beta, float(params.S0)

    n_pairs = (config.n_paths + 1) // 2
    n_blocks = (n_pairs + _BLOCK_PAIRS - 1) // _BLOCK_PAIRS
    children = np.random.SeedSequence(config.seed).spawn(n_blocks)

    def block(b: int) -> tuple[float, float, int]:
        m = min(_BLOCK_PAIRS, n_pairs - b * _BLOCK_PAIRS)
        rng = np.random.default_rng(children[b])
        # (spot, running trapezoid sum, Brownian increment per unit normal);
        # the sum starts at the S0/2 end term and takes each new spot whole
        legs = [(np.full(m, S0), np.full(m, 0.5 * S0), dw) for dw in (sqdt, -sqdt)]
        for _ in range(steps):
            z = rng.standard_normal(m)
            for s, acc, dw in legs:
                s += mu * s * dt + sig * s ** beta * dw * z
                np.maximum(s, 0.0, out=s)
                acc += s
        absorbed = 0
        for s, acc, _ in legs:
            acc -= 0.5 * s  # the s_T end term counts half
            absorbed += int(np.count_nonzero(s <= 0.0))
        pm = 0.5 * sum(payoff(acc / steps, s) for s, acc, _ in legs)
        return float(np.sum(pm)), float(np.sum(pm * pm)), absorbed

    with ThreadPoolExecutor(max_workers=_workers(n_blocks)) as ex:
        sums, sums2, absorbed = zip(*ex.map(block, range(n_blocks)))

    mean = math.fsum(sums) / n_pairs
    var = max(math.fsum(sums2) / n_pairs - mean * mean, 0.0)
    se = math.sqrt(var / n_pairs)
    disc = math.exp(-params.r * T)
    return McEstimate(disc * mean, disc * se, sum(absorbed), steps, n_blocks)


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

"""Monte Carlo pricing of arithmetic Asian options under the CEV dynamics.

Full-truncation Euler scheme on S (the origin is absorbing: once a path is
clamped at zero both drift and diffusion vanish), trapezoidal time average
and antithetic pairs.  The pairs are simulated in fixed-size blocks, each
with its own child of ``SeedSequence(seed)``; their sums are combined with
the exact ``math.fsum``, so a result is identical for a given seed whatever
the number of cores.

Thread layout (numpy releases the interpreter lock inside its ufuncs and
samplers, so threads run in parallel): the blocks run on a pool of one
thread per usable CPU, at most one per block.  Each block thread starts one
drawing thread of its own, which draws the block's normals ``_CHUNK_STEPS``
steps at a time, up to ``_CHUNKS_AHEAD`` chunks ahead, while the block
thread steps both antithetic legs, held as one (2, m) array, through the
chunk it already has.  That is at most two threads per pool thread.  An
error on either thread reaches the caller, and a block's drawing thread is
stopped and joined before the block returns.

``n_steps`` counts Euler steps per unit of maturity; the actual number of
steps is max(1, round(n_steps * T)) so that step size is comparable across
the maturity grids used in the convergence studies.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .model import ConvergenceError, ModelParams, _exp
from .pricing import OptionSpec, average_forward

_BLOCK_PAIRS = 32768  # antithetic pairs per block
_CHUNK_STEPS = 8      # Euler steps per draw of normals
_CHUNKS_AHEAD = 2     # draws queued ahead of the stepping thread


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    n_steps: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 3:
            # one antithetic pair has no spread to estimate a standard error from
            raise ValueError(f"n_paths must be at least 3 (two antithetic pairs), got {self.n_paths}")
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
    payoffs.  A pair counts as one sample: the mean of its two payoffs.
    ConvergenceError where the forward or the discount (checked before any
    path is drawn), the price or its standard error is not a finite double."""
    average_forward(params, T)
    disc = _exp(-params.r * T, "discount factor")
    steps = _steps_for(T, config)
    dt = T / steps
    sqdt = math.sqrt(dt)
    dw = np.array([[sqdt], [-sqdt]])  # Brownian increment per unit normal, per leg
    mu = params.r - params.q
    sig, beta, S0 = params.sigma, params.beta, float(params.S0)

    n_pairs = (config.n_paths + 1) // 2
    n_blocks = (n_pairs + _BLOCK_PAIRS - 1) // _BLOCK_PAIRS
    children = SeedSequence(config.seed).spawn(n_blocks)
    chunks = [min(_CHUNK_STEPS, steps - i) for i in range(0, steps, _CHUNK_STEPS)]

    def block(b: int) -> tuple[float, float, int]:
        m = min(_BLOCK_PAIRS, n_pairs - b * _BLOCK_PAIRS)
        rng = default_rng(children[b])
        # row 0 is the + leg, row 1 the - leg; the running trapezoid sum
        # starts at the S0/2 end term and takes each new spot whole
        s = np.full((2, m), S0)
        acc = np.full((2, m), 0.5 * S0)
        drift, diff = np.empty((2, m)), np.empty((2, m))

        def draw(c: int) -> np.ndarray:
            # one draw of k*m normals is the same stream as k draws of m
            return rng.standard_normal((chunks[c], m))

        drawer = ThreadPoolExecutor(max_workers=1)
        try:
            ahead = deque(drawer.submit(draw, c) for c in range(min(_CHUNKS_AHEAD, len(chunks))))
            for c in range(len(chunks)):
                zs = ahead.popleft().result()
                if c + _CHUNKS_AHEAD < len(chunks):
                    ahead.append(drawer.submit(draw, c + _CHUNKS_AHEAD))
                for z in zs:
                    # s += (mu s) dt + ((sig s^beta) dw) z, in that order;
                    # np.sqrt is what s ** 0.5 computes, faster than np.power
                    if beta == 0.5:
                        np.sqrt(s, out=diff)
                    else:
                        np.power(s, beta, out=diff)
                    diff *= sig
                    diff *= dw
                    diff *= z
                    np.multiply(s, mu, out=drift)
                    drift *= dt
                    drift += diff
                    s += drift
                    np.maximum(s, 0.0, out=s)
                    acc += s
        finally:
            drawer.shutdown(cancel_futures=True)
        acc -= 0.5 * s  # the s_T end term counts half
        pay = payoff(acc / steps, s)
        pm = 0.5 * (pay[0] + pay[1])
        with np.errstate(over="ignore"):  # an inf sum raises ConvergenceError below
            return float(np.sum(pm)), float(np.sum(pm * pm)), int(np.count_nonzero(s <= 0.0))

    with ThreadPoolExecutor(max_workers=_workers(n_blocks)) as ex:
        sums, sums2, absorbed = zip(*ex.map(block, range(n_blocks)))

    mean = math.fsum(sums) / n_pairs
    var = max(math.fsum(sums2) / n_pairs - mean * mean, 0.0)
    price, se = disc * mean, disc * math.sqrt(var / n_pairs)
    if not math.isfinite(price + se):  # payoffs or their squares beyond the doubles
        raise ConvergenceError(f"the simulated price {price:g} +- {se:g} is not finite")
    return McEstimate(price, se, sum(absorbed), steps, n_blocks)


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
        undisc = est.mean * _exp(params.r * T, "undiscounting factor")
        if undisc <= 0.0 or est.mean < 2.0 * est.std_error:
            out[i] = math.nan
        else:
            out[i] = -T * math.log(undisc)
    return out

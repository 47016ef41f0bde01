"""Monte Carlo pricing of arithmetic Asian options under the CEV dynamics.

Full-truncation Euler scheme on S (the origin is absorbing: once a path is
clamped at zero both drift and diffusion vanish), trapezoidal time average
and antithetic pairs.  The pairs are simulated in blocks of equal share (the
first n_pairs % n_blocks blocks hold one pair more), at most ``_BLOCK_PAIRS``
each; every block draws from its own SFC64 stream, seeded by its child of
``SeedSequence(seed)``.  Block sums are combined with the exact
``math.fsum``, so a result is identical for a given seed whatever the number
of cores.  Seeded estimates differ from versions before the SFC64 streams
and equal shares (PCG64 streams, full blocks first), each within its
standard error.

Each Euler step is six passes over both legs, held as one (2, m) array,
with the normals z already scaled by sigma sqrt(dt):

    diff = s^beta;  diff *= z;  s *= 1 + mu dt;
    s[0] += diff[0], s[1] -= diff[1];  s = max(s, 0);  acc += s

Thread layout (numpy releases the interpreter lock inside its ufuncs and
samplers, so threads run in parallel): the blocks run on a pool of one
thread per usable CPU, at most one per block.  Each block thread starts one
drawing thread of its own, which draws and scales the block's normals
``_CHUNK_STEPS`` steps at a time, up to ``_CHUNKS_AHEAD`` chunks ahead,
while the block thread steps through the chunk it already has.  That is at
most two threads per pool thread.  An error on either thread reaches the
caller, and a block's drawing thread is stopped and joined before the block
returns.

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
from numbers import Integral

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .model import ConvergenceError, ModelParams, _exp
from .pricing import OptionSpec, average_forward

_BLOCK_PAIRS = 32768  # antithetic pairs per block, at most
_CHUNK_STEPS = 8      # Euler steps per draw of normals
_CHUNKS_AHEAD = 2     # draws queued ahead of the stepping thread
MAX_STEPS = 10 ** 7   # Euler steps per path; the schedule of draws holds one per chunk
MAX_PATHS = 10 ** 9   # paths per estimate; see McConfig


@dataclass(frozen=True)
class McConfig:
    """Paths, Euler steps per unit maturity and seed of one estimate.

    ``n_paths`` is an integer from 3 to MAX_PATHS = 1e9 and ``seed`` a
    non-negative integer; anything else raises ValueError.  The bound keeps
    the set-up small: a run spawns one SeedSequence child and queues one task
    per block before it draws, so 1e9 paths are 15,259 blocks (spawned in
    ~0.3 s on a 2-core x86-64 Xeon), while 1e15 would ask for 1.5e10
    children and exhaust memory before a path is drawn."""

    n_paths: int = 100_000
    n_steps: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        # one antithetic pair has no spread to estimate a standard error from
        if not (isinstance(self.n_paths, Integral) and 3 <= self.n_paths <= MAX_PATHS):
            raise ValueError(f"n_paths must be an integer from 3 (two antithetic pairs) "
                             f"to {MAX_PATHS:.0e}, got {self.n_paths!r}")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.n_steps > 0:  # NaN too
            raise ValueError(f"n_steps must be positive, got {self.n_steps!r}")


@dataclass(slots=True)
class McEstimate:
    mean: float
    std_error: float
    n_absorbed: int
    n_steps: int   # Euler steps per path
    n_blocks: int  # seed blocks of equal share, up to _BLOCK_PAIRS antithetic pairs each


def _generator(seed: SeedSequence) -> Generator:
    """The stream of one block."""
    return Generator(SFC64(seed))


def _workers(n_blocks: int) -> int:
    """Threads for n_blocks independent blocks: one per usable CPU, at most
    one per block."""
    if hasattr(os, "sched_getaffinity"):
        n_cpu = len(os.sched_getaffinity(0))
    else:
        n_cpu = os.cpu_count() or 1
    return min(n_cpu, n_blocks)


def _run_blocks(params: ModelParams, T: float, config: McConfig, payoff):
    """Simulate antithetic pairs in blocks; payoff(avg, s_final) -> per-path
    payoffs.  A pair counts as one sample: the mean of its two payoffs.
    ValueError where n_steps T exceeds MAX_STEPS = 1e7 Euler steps per path,
    and ConvergenceError where the forward or the discount, the price or its
    standard error is not a finite double; all but the last two are checked
    before anything is allocated or drawn."""
    if not config.n_steps <= MAX_STEPS / T:
        raise ValueError(f"n_steps T = {config.n_steps} x {T:g} exceeds {MAX_STEPS:.0e} steps")
    average_forward(params, T)
    disc = _exp(-params.r * T, "discount factor")
    steps = max(1, int(round(config.n_steps * T)))
    dt = T / steps
    scale = params.sigma * math.sqrt(dt)  # a normal times scale is sigma dW
    growth = 1.0 + (params.r - params.q) * dt
    beta, S0 = params.beta, float(params.S0)

    n_pairs = (config.n_paths + 1) // 2
    n_blocks = (n_pairs + _BLOCK_PAIRS - 1) // _BLOCK_PAIRS
    children = SeedSequence(config.seed).spawn(n_blocks)
    chunks = [min(_CHUNK_STEPS, steps - i) for i in range(0, steps, _CHUNK_STEPS)]

    def block(b: int) -> tuple[float, float, int]:
        m = n_pairs // n_blocks + (b < n_pairs % n_blocks)
        rng = _generator(children[b])
        # row 0 is the + leg, row 1 the - leg; the running trapezoid sum
        # starts at the S0/2 end term and takes each new spot whole
        s = np.full((2, m), S0)
        acc = np.full((2, m), 0.5 * S0)
        diff = np.empty((2, m))

        def draw(c: int) -> np.ndarray:
            # one draw of k*m normals is the same stream as k draws of m
            z = rng.standard_normal((chunks[c], m))
            z *= scale
            return z

        drawer = ThreadPoolExecutor(max_workers=1)
        # a path beyond the doubles turns inf or NaN: ConvergenceError below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                ahead = deque(drawer.submit(draw, c)
                              for c in range(min(_CHUNKS_AHEAD, len(chunks))))
                for c in range(len(chunks)):
                    zs = ahead.popleft().result()
                    if c + _CHUNKS_AHEAD < len(chunks):
                        ahead.append(drawer.submit(draw, c + _CHUNKS_AHEAD))
                    for z in zs:
                        # s = max(s (1 + mu dt) +- s^beta z, 0); np.sqrt is
                        # what s ** 0.5 computes, faster than np.power
                        if beta == 0.5:
                            np.sqrt(s, out=diff)
                        else:
                            np.power(s, beta, out=diff)
                        diff *= z
                        s *= growth
                        s[0] += diff[0]
                        s[1] -= diff[1]
                        np.maximum(s, 0.0, out=s)
                        acc += s
            finally:
                drawer.shutdown(cancel_futures=True)
            acc -= 0.5 * s  # the s_T end term counts half
            pay = payoff(acc / steps, s)
            pm = 0.5 * (pay[0] + pay[1])
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

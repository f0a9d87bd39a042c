"""Vectorized replica engine for expected-payoff estimation: the Monte Carlo
oracle that the exact payoffs in `analysis` are tested against.

Replicas are drawn in fixed-size blocks, each from a substream keyed by
(seed, tag, block index), and reduced with exact summation, so an estimate
is a function of its arguments and seed. The oracle is single-threaded; no
command runs it.

Sampling goes through quantile functions applied to a fixed layout of
uniforms, which makes same-seed evaluations at different allocations
common-random-number paired. A block's layout is, in stream order:

- ppss only: one column for miner i's window sum;
- one demand column (drawn for every family; a constant demand ignores it);
- one difficulty column per miner.

The warm window holds N-1 rounds at the evaluated strategy. Their sum is
exactly Gamma((N-1)*k*a_i), so one quantile column stands in for the
pre-rounds, and since the quantile increases with a_i at a fixed uniform,
the pairing across allocations is kept.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .csvio import ROW_BLOCK
from .mechanisms import pps_reward, ppss_reward, subsidy_terms
from .model import DemandModel, MinerProfile, PlatformParams, cost_eval, c_tilde, substream

BLOCK_SIZE = 4096
TAG_PAYOFF = 101


def gamma_ppf(shape: float, u: np.ndarray) -> np.ndarray:
    """Quantile of Gamma(shape, 1); shape 0 maps everything to 0."""
    if shape < 0:
        raise ValueError("shape must be nonnegative")
    if shape == 0:
        return np.zeros_like(np.asarray(u, dtype=float))
    from scipy import special

    return special.gammaincinv(shape, u)


def _draw_difficulties(rng, shapes: np.ndarray, m: int) -> np.ndarray:
    """(m, n) difficulty matrix from one round's uniform layout."""
    u = rng.random((m, len(shapes)))
    d = np.empty_like(u)
    for i, s in enumerate(shapes):
        d[:, i] = gamma_ppf(float(s), u[:, i])
    return d


def _block_payoffs(
    mechanism: str,
    miner_index: int,
    allocations: np.ndarray,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
    seed: int,
    block_index: int,
    m: int,
) -> np.ndarray:
    rng = substream(seed, TAG_PAYOFF, block_index)
    shapes = params.k * allocations

    if mechanism == "ppss":
        # The indicator reads miner i's last N-1 pre-rounds plus the current
        # draw. Those pre-rounds are i.i.d. Gamma(k*a_i), so their sum is
        # one Gamma((N-1)*k*a_i) quantile column, drawn first in the block.
        wlen = max(params.window_N - 1, 0)
        wsum = gamma_ppf(wlen * float(shapes[miner_index]), rng.random(m))

    M = demand.ppf(rng.random(m))
    d = _draw_difficulties(rng, shapes, m)

    totals = d.sum(axis=1)
    d_i = d[:, miner_index]
    if mechanism == "pps":
        rewards = pps_reward(d_i, totals, M, params)
    elif mechanism == "ppss":
        prof = profiles[miner_index]
        unit, numerator = subsidy_terms(prof.capacity_A, c_tilde(prof), params)
        rewards, _ = ppss_reward(d_i, totals, M, wsum, wlen, unit, numerator, params)
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")

    return rewards - cost_eval(profiles[miner_index].cost, float(allocations[miner_index]))


def payoff_samples(
    mechanism: str,
    miner_index: int,
    allocations: np.ndarray,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
    replicas: int,
    seed: int,
) -> np.ndarray:
    """Per-replica payoff draws for one miner, in replica order: block b
    holds replicas [b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE), drawn from its
    own substream."""
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    allocations = np.asarray(allocations, dtype=float)
    out = np.empty(replicas)
    for lo in range(0, replicas, BLOCK_SIZE):
        hi = min(lo + BLOCK_SIZE, replicas)
        out[lo:hi] = _block_payoffs(
            mechanism, miner_index, allocations, params, profiles, demand,
            seed, lo // BLOCK_SIZE, hi - lo,
        )
    return out


def exact_sum(x: np.ndarray) -> float:
    """math.fsum over x's values in x.ravel() order, converted to Python
    floats ROW_BLOCK rows at a time. fsum is exactly rounded over the same
    values in the same order, so the result (or exception) is that of one
    call on the whole array's list, while no Python copy of the whole array
    is made."""
    return math.fsum(itertools.chain.from_iterable(
        x[lo:lo + ROW_BLOCK].ravel().tolist() for lo in range(0, len(x), ROW_BLOCK)
    ))


def exact_mean(x: np.ndarray) -> float:
    """exact_sum(x) / len(x), finite for finite x. Where that sum overflows,
    it is taken over x * 2**-e instead, with e the bit length of len(x), and
    the mean scaled back by 2**e: an exact power of two, so the result is
    the mean of the unbounded-exponent sum (up to the bits that scaling
    drops from values below 2**(e-1022))."""
    try:
        return exact_sum(x) / len(x)
    except OverflowError:
        scale = 2.0 ** len(x).bit_length()
        return exact_sum(x / scale) / len(x) * scale


def exact_mean_ci(samples: np.ndarray) -> tuple[float, float]:
    """(mean, 95% CI half-width) via exactly rounded sums (exact_sum) of the
    samples and of their squared deviations. Where a deviation, its square
    or their sum overflows, though every sample is finite, the deviations
    are taken of the samples scaled by an exact power of two (2**-e with
    every |sample| below 2**e) and the half-width scaled back; the mean is
    exact_mean's.

    The half-width is the normal one, 1.96 * sd / sqrt(r). It undercovers a
    heavy-tailed sample whose large values are rarer than 1/r: a ppss
    payoff whose subsidy pays up to numerator/eps_k near D = lambda*A*k.
    Recorded example (lognormal demand, mu 4.3749, sigma 6.1e-5; k 52.25,
    N 4, b 1.1; capacities 1.0, 0.699, 0.589 with linear costs 229.1,
    156.9, 21.6; allocations 0.5524, 0, 0.5096): the exact reward of miner
    0 is 32.236, and the estimate reads 31.74 +- 0.08 at 2e4 replicas,
    31.79 +- 0.10 at 2e5 and 32.28 +- 0.17 at 8e6, where one replica
    reads 143 582.
    """
    r = len(samples)
    mean = exact_mean(samples)
    if r < 2:
        return mean, 0.0
    with np.errstate(over="ignore"):
        squares = (samples - mean) ** 2
    try:
        var = exact_sum(squares) / (r - 1)
    except OverflowError:
        var = math.inf
    if var < math.inf or not np.isfinite(samples).all():
        return mean, 1.96 * math.sqrt(var / r)
    scale = 2.0 ** min(math.frexp(float(np.abs(samples).max()))[1], 1023)
    var = exact_sum((samples / scale - mean / scale) ** 2) / (r - 1)
    return mean, 1.96 * math.sqrt(var / r) * scale

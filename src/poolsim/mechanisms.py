"""PPS and PPSS reward kernels.

Both rules are written once, as broadcasting array functions. The engine's
settle calls pps_reward once on a whole (rounds, n) game, with (rounds, 1)
totals and demands, and ppss_reward once per (n,) round row; the Monte Carlo
calls them with one miner's (m,) replica column. Each element is computed
with the same operations in the same order in every shape, so all of them
agree bit for bit.
"""
from __future__ import annotations

import numpy as np

from .model import PlatformParams


def subsidy_shape(D, capacity, params: PlatformParams):
    """K(D) = 1 - x * e^(1 - x) with x = lambda * A * k / D.

    `capacity` (A) broadcasts against D. Range [0, 1); exactly 0 at
    D = lambda * A * k. Despite the paper-style reading as a decreasing
    function, K is U-shaped in D: decreasing on (0, lambda*A*k), increasing
    beyond.
    """
    D = np.asarray(D, dtype=float)
    if np.any(D <= 0):
        raise ValueError("subsidy_shape requires D > 0")
    x = params.lam * capacity * params.k / D
    out = 1.0 - x * np.exp(1.0 - x)
    return out if out.ndim else float(out)


def _share(d, total):
    """D_i / |D|, and 0 where |D| = 0."""
    return np.divide(d, total, out=np.zeros(np.shape(d)), where=total > 0)


def pps_reward(d, total, M, params: PlatformParams):
    """Pay-Per-Share: R_i = (D_i / |D|) * b * min{|D|, M}; 0 when |D| = 0."""
    return _share(d, total) * params.b * np.minimum(total, M)


def subsidy_terms(caps, c_tildes, params: PlatformParams):
    """(unit, numerator) = (lambda * A * k, c~/k - b): the per-miner
    constants of ppss_reward, clamping the numerator at zero unless
    subsidy_clamp_nonneg is off. They do not change within a run or a Monte
    Carlo block, so callers compute them once.
    """
    unit = params.lam * caps * params.k
    numerator = c_tildes / params.k - params.b
    if params.subsidy_clamp_nonneg:
        numerator = np.maximum(numerator, 0.0)
    return unit, numerator


def ppss_reward(d, total, M, window_sum, window_len, unit, numerator, params: PlatformParams):
    """Pay-Per-Share with Subsidy; returns (rewards, flags).

    R_i = (D_i / |D|) * (b + B_i * numerator_i / max(K(D_i), eps_k)) * min{|D|, M},
    with (unit, numerator) = subsidy_terms(A, c~, params).

    B_i, the rolling-window indicator, is 1 iff D_i > 0 and window_sum + D_i
    (the last window_len <= N-1 completed rounds plus the current one) clears
    unit_i = lambda * A_i * k per round counted; during cold start the
    threshold is prorated to the rounds available. A negative numerator
    (marginal cost below the base reward rate) is clamped to zero by
    subsidy_terms unless subsidy_clamp_nonneg is off. Coincides with
    pps_reward wherever no flag is set.
    """
    flags = (d > 0) & (window_sum + d >= unit * (window_len + 1))
    # subsidy_shape inline, without its D > 0 check: a flag implies d > 0
    x = unit / np.where(flags, d, 1.0)
    K = np.maximum(1.0 - x * np.exp(1.0 - x), params.eps_k)
    per_unit = params.b + np.where(flags, numerator / K, 0.0)
    return _share(d, total) * per_unit * np.minimum(total, M), flags

"""PPS and PPSS reward kernels.

Both rules are written once, as broadcasting array functions. The engine's
settle calls pps_reward once on a whole (rounds, n) game, with (rounds, 1)
totals and demands, and ppss_reward once per (n,) round row; the Monte Carlo
calls them with one miner's (m,) replica column. Each element is computed
with the same operations in the same order in every shape, so all of them
agree bit for bit. The exact ppss payoff (analysis) integrates ppss_rate, so
no other module calls shape_k.
"""
from __future__ import annotations

import numpy as np

from .model import PlatformParams


def shape_k(unit, D):
    """K = 1 - x * e^(1 - x) with x = unit / D, unit = lambda * A * k: the
    subsidy shape's one formula, with no check on D."""
    x = unit / D
    return 1.0 - x * np.exp(1.0 - x)


def subsidy_shape(D, capacity, params: PlatformParams):
    """K(D) = shape_k(lambda * A * k, D), for D > 0.

    `capacity` (A) broadcasts against D. Range [0, 1); exactly 0 at
    D = lambda * A * k. Despite the paper-style reading as a decreasing
    function, K is U-shaped in D: decreasing on (0, lambda*A*k), increasing
    beyond.
    """
    D = np.asarray(D, dtype=float)
    if np.any(D <= 0):
        raise ValueError("subsidy_shape requires D > 0")
    out = shape_k(params.lam * capacity * params.k, D)
    return out if out.ndim else float(out)


def _share(d, total):
    """D_i / |D|, and 0 where |D| = 0."""
    return np.divide(d, total, out=np.zeros(np.shape(d)), where=total > 0)


def pps_reward(d, total, M, params: PlatformParams):
    """Pay-Per-Share: R_i = (D_i / |D|) * b * min{|D|, M}; 0 when |D| = 0."""
    return _share(d, total) * params.b * np.minimum(total, M)


def subsidy_terms(caps, c_tildes, params: PlatformParams):
    """(unit, numerator) = (lambda * A * k, max(c~/k - b, 0)): the
    per-miner constants of ppss_reward. The clamp makes the subsidy a
    payment, never a charge, so every ppss rate is at least b. They do not
    change within a run or a Monte Carlo block, so callers compute them once.
    """
    unit = params.lam * caps * params.k
    return unit, np.maximum(c_tildes / params.k - params.b, 0.0)


def ppss_rate(fires, x, unit, numerator, params: PlatformParams):
    """PPSS pay per unit of work, b + fires * numerator / max(K(x), eps_k),
    K = shape_k(unit, x); `fires` is the 0/1 indicator or its probability,
    and where it is 0 the rate is exactly b (numerator must be finite)."""
    return params.b + fires * numerator / np.maximum(shape_k(unit, x), params.eps_k)


def ppss_reward(d, total, M, window_sum, window_len, unit, numerator, params: PlatformParams):
    """Pay-Per-Share with Subsidy; returns (rewards, flags).

    R_i = (D_i / |D|) * (b + B_i * numerator_i / max(K(D_i), eps_k)) * min{|D|, M},
    with (unit, numerator) = subsidy_terms(A, c~, params).

    B_i, the rolling-window indicator, is 1 iff D_i > 0 and window_sum + D_i
    (the last window_len <= N-1 completed rounds plus the current one) clears
    unit_i = lambda * A_i * k per round counted; during cold start the
    threshold is prorated to the rounds available. A miner whose marginal
    cost is below the base reward rate has numerator 0 (subsidy_terms), and
    is paid as under pps. Coincides with pps_reward wherever no flag is set.
    """
    flags = (d > 0) & (window_sum + d >= unit * (window_len + 1))
    # shape_k has no D > 0 check, and needs none: a flag implies d > 0
    per_unit = ppss_rate(flags, np.where(flags, d, 1.0), unit, numerator, params)
    return _share(d, total) * per_unit * np.minimum(total, M), flags

"""Domain types and the Gamma computing model.

Allocations of computing power turn into per-round difficulty transcripts:
miner i's output is a Gamma(k * a_i, 1) draw, so E[D_i] = k * a_i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Most points a best-response grid or a sweep axis may ask for. A best
# response keeps a value per grid point and a sweep runs every cell, so a
# larger count is refused as a usage error rather than allocated.
MAX_GRID = 2**16


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent RNG substream keyed by (seed, *path).

    The key is positional, so the same stream is obtained regardless of
    the order in which it is derived. The stream is numpy's
    default_rng(SeedSequence([seed, *path])); the key is split into the
    uint32 words numpy would make of it (least significant first, one zero
    word for 0), which skips numpy's per-int coercion.
    """
    words = []
    for key in (seed, *path):
        key = int(key)
        if key < 0:
            raise ValueError("expected non-negative integer")
        words.append(key & 0xFFFFFFFF)
        while key := key >> 32:
            words.append(key & 0xFFFFFFFF)
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))


# The smallest positive and the largest uniform Generator.random returns.
U_MIN, U_MAX = 2.0**-53, 1.0 - 2.0**-53


@dataclass(frozen=True)
class PlatformParams:
    """Platform-chosen constants.

    p: money paid per demanded difficulty unit (price).
    b: base reward per completed difficulty unit.
    k: difficulty units produced per power unit, in expectation.
    lam: subsidy threshold fraction in (0, 1).
    window_N: rolling-window length, in rounds.
    eps_k: floor for the subsidy-shape divisor (removes the K = 0 singularity).
    subsidy_clamp_nonneg: clamp negative subsidy factors to zero.
    """

    p: float
    b: float
    k: float
    lam: float = 0.8
    window_N: int = 10
    eps_k: float = 1e-3
    subsidy_clamp_nonneg: bool = True

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("p must be positive")
        if not self.b > 0:
            raise ValueError("b must be positive")
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not 0 < self.lam < 1:
            raise ValueError("lambda must lie in (0, 1)")
        if self.window_N < 1:
            raise ValueError("N must be a positive integer")
        if not 0 < self.eps_k < 1:
            raise ValueError("eps_k must lie in (0, 1)")


@dataclass(frozen=True)
class CostFunction:
    """Opportunity-cost family: Linear(r) or Power(c, q).

    Both are continuous, convex, strictly increasing on [0, A] with C(0) = 0,
    and differentiable (needed for the marginal cost at capacity).
    """

    family: str  # "linear" | "power"
    r: float = 0.0
    c: float = 0.0
    q: float = 1.0

    def __post_init__(self):
        if self.family == "linear":
            if not self.r > 0:
                raise ValueError("linear cost requires r > 0")
        elif self.family == "power":
            if not self.c > 0:
                raise ValueError("power cost requires c > 0")
            if not self.q >= 1:
                raise ValueError("power cost requires q >= 1")
        else:
            raise ValueError(f"unknown cost family {self.family!r}")


def cost_eval(cost: CostFunction, a) -> float:
    """C(a), the opportunity cost of allocating a power units."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("allocation must be nonnegative")
    if cost.family == "linear":
        out = cost.r * a
    else:
        out = cost.c * a ** cost.q
    return out if out.ndim else float(out)


def cost_marginal(cost: CostFunction, a) -> float:
    """C'(a); nondecreasing in a by convexity."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("allocation must be nonnegative")
    if cost.family == "linear":
        out = np.full_like(a, cost.r)
    else:
        out = cost.c * cost.q * a ** (cost.q - 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MinerProfile:
    """Economic identity of one miner: capacity plus opportunity cost. A
    miner is its index in the config's profiles and policies."""

    capacity_A: float
    cost: CostFunction

    def __post_init__(self):
        if not self.capacity_A > 0:
            raise ValueError("capacity_A must be positive")


def c_tilde(profile: MinerProfile) -> float:
    """Marginal opportunity cost at full capacity, C'(A); maximal on [0, A]."""
    return float(cost_marginal(profile.cost, profile.capacity_A))


@dataclass(frozen=True)
class MinerPolicy:
    """Policy kinds: static(a), myopic_br(grid), delta_adaptive(step, floor).

    myopic_br maximises the raw expected payoff, exact under both mechanisms
    (pps_expected_payoff, ppss_expected_payoff), not the floor objective that
    ppss incentive verdicts use: the raw payoff is what a myopic miner
    actually earns in the round it plays. Its grid has 2 to MAX_GRID points.
    """

    kind: str
    a: float = 0.0
    grid: int = 64
    step: float = 0.5
    floor: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "myopic_br", "delta_adaptive"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "static" and not self.a >= 0:
            raise ValueError("static allocation a must be nonnegative")
        if self.kind == "myopic_br" and not 2 <= self.grid <= MAX_GRID:
            raise ValueError(f"myopic_br grid must lie in [2, {MAX_GRID}], got {self.grid}")
        if self.kind == "delta_adaptive" and not 0 < self.step < 1:
            raise ValueError("delta_adaptive step must lie in (0, 1)")
        if self.kind == "delta_adaptive" and not self.floor >= 0:
            raise ValueError("delta_adaptive floor must be nonnegative")


@dataclass(frozen=True)
class DemandModel:
    """Per-round demand distribution F with analytic mean mu_F.

    Families: constant(M), uniform(lo, hi), gamma(shape, rate),
    lognormal(mu, sigma). mu_F must be finite and positive, and so must
    ppf at U_MIN and at U_MAX, which bound every draw.
    """

    family: str
    M: float = 0.0
    lo: float = 0.0
    hi: float = 0.0
    shape: float = 0.0
    rate: float = 1.0
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.family == "constant":
            if not self.M > 0:
                raise ValueError("constant demand requires M > 0")
        elif self.family == "uniform":
            if not 0 < self.lo < self.hi:
                raise ValueError("uniform demand requires 0 < lo < hi")
        elif self.family == "gamma":
            if not (self.shape > 0 and self.rate > 0):
                raise ValueError("gamma demand requires shape > 0 and rate > 0")
        elif self.family == "lognormal":
            if not self.sigma >= 0:
                raise ValueError("lognormal demand requires sigma >= 0")
        else:
            raise ValueError(f"unknown demand family {self.family!r}")
        if not 0 < self.mu_F < math.inf:
            raise ValueError(f"demand mean mu_F must be finite and positive, got {self.mu_F}")
        # ppf is monotone, so its values at the extreme uniforms bound every draw
        with np.errstate(over="ignore"):
            lo, hi = float(self.ppf(U_MIN)), float(self.ppf(U_MAX))
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"demand draws must lie in (0, inf); its quantiles span [{lo}, {hi}]")

    @property
    def mu_F(self) -> float:
        """The mean; inf where it overflows a float."""
        if self.family == "constant":
            return self.M
        if self.family == "uniform":
            return 0.5 * (self.lo + self.hi)
        if self.family == "gamma":
            return self.shape / self.rate
        try:
            return math.exp(self.mu + 0.5 * self.sigma**2)
        except OverflowError:
            return math.inf

    def ppf(self, u):
        """Quantile function at u (a float or an array), the demand's only
        sampler; gamma and lognormal read u below U_MIN (an exact 0) as U_MIN."""
        if self.family == "uniform":
            return self.lo + (self.hi - self.lo) * u
        u = np.maximum(u, U_MIN)
        if self.family == "constant":
            return np.full_like(u, self.M)
        from scipy import special  # here, so constant and uniform demands never load it

        if self.family == "gamma":
            return special.gammaincinv(self.shape, u) / self.rate
        return np.exp(self.mu + self.sigma * special.ndtri(u))


def sample_demand(model: DemandModel, rng: np.random.Generator) -> float:
    """One demand draw M_j = ppf(u), u the stream's next uniform; a constant draws nothing."""
    return model.M if model.family == "constant" else float(model.ppf(rng.random()))


def sample_transcript(params: PlatformParams, allocations, rng: np.random.Generator,
                      *, as_list: bool = False):
    """One round's outputs: D_i ~ Gamma(k * a_i, 1) independently per miner.

    Miners with a_i = 0 produce exactly 0. Draws happen in miner order from
    the supplied stream, so the outputs are reproducible bit for bit. A shape
    that is not positive (0, -0.0 or NaN) draws nothing and gives 0.0. Each
    draw is a scalar standard_gamma call, the same draw as the array form's
    element without its per-call array validation.

    By default allocations is array-like and the outputs come back as an
    array of its shape (a float for a 0-d one). With as_list, allocations is
    a sequence of floats and the outputs a list of Python floats, with no
    numpy array made: the engine's per-round path. Both paths compute the
    same shapes k * a_i and run the same draw loop, so they draw the same
    bits from the same stream.
    """
    if as_list:
        shapes = [params.k * a for a in allocations]
    else:
        array = params.k * np.asarray(allocations, dtype=float)
        shapes = array.ravel().tolist()
    if any(s < 0 for s in shapes):
        raise ValueError("allocations must be nonnegative")
    draws = [rng.standard_gamma(s) if s > 0 else 0.0 for s in shapes]
    if as_list:
        return draws
    return np.array(draws).reshape(array.shape) if array.ndim else draws[0]

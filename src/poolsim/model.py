"""Domain types and the Gamma computing model.

Allocations of computing power turn into per-round difficulty transcripts:
miner i's output is a Gamma(k * a_i, 1) draw, so E[D_i] = k * a_i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent RNG substream keyed by (seed, *path).

    The key is positional, so the same stream is obtained regardless of
    which worker (or in which order) it is derived.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(p) for p in path]]))


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
    """Economic identity of one miner: capacity plus opportunity cost."""

    id: int
    capacity_A: float
    cost: CostFunction

    def __post_init__(self):
        if not self.capacity_A > 0:
            raise ValueError("capacity_A must be positive")


def c_tilde(profile: MinerProfile) -> float:
    """Marginal opportunity cost at full capacity, C'(A); maximal on [0, A]."""
    return float(cost_marginal(profile.cost, profile.capacity_A))


@dataclass(frozen=True)
class DemandModel:
    """Per-round demand distribution F with analytic mean mu_F.

    Families: constant(M), uniform(lo, hi), gamma(shape, rate),
    lognormal(mu, sigma). All samples are positive, and mu_F must be
    finite and positive.
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
        """Quantile function; used for common-random-number sampling."""
        from scipy import special

        u = np.asarray(u, dtype=float)
        if self.family == "constant":
            return np.full_like(u, self.M)
        if self.family == "uniform":
            return self.lo + (self.hi - self.lo) * u
        if self.family == "gamma":
            return special.gammaincinv(self.shape, u) / self.rate
        return np.exp(self.mu + self.sigma * special.ndtri(u))


def sample_demand(model: DemandModel, rng: np.random.Generator) -> float:
    """One positive demand draw M_j."""
    if model.family == "constant":
        return model.M
    if model.family == "uniform":
        return float(rng.uniform(model.lo, model.hi))
    if model.family == "gamma":
        return float(rng.gamma(model.shape) / model.rate)
    return float(rng.lognormal(model.mu, model.sigma))


def sample_transcript(params: PlatformParams, allocations, rng: np.random.Generator) -> np.ndarray:
    """One round's outputs: D_i ~ Gamma(k * a_i, 1) independently per miner.

    Miners with a_i = 0 produce exactly 0. Draws happen in miner order from
    the supplied stream, so the outputs are reproducible bit for bit.
    """
    shapes = params.k * np.asarray(allocations, dtype=float)
    if np.any(shapes < 0):
        raise ValueError("allocations must be nonnegative")
    d = np.zeros_like(shapes)
    pos = shapes > 0
    if np.any(pos):
        d[pos] = rng.gamma(shapes[pos])
    return d

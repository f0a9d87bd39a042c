"""Domain types and the Gamma computing model.

Allocations of computing power turn into per-round difficulty transcripts:
miner i's output is a Gamma(k * a_i, 1) draw, so E[D_i] = k * a_i.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

# Most points a best-response grid or a sweep axis may ask for. A best
# response keeps a value per grid point and a sweep runs every cell, so a
# larger count is refused as a usage error rather than allocated.
MAX_GRID = 2**16


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent RNG substream keyed by (seed, *path).

    The key is positional, so the same stream is obtained regardless of
    the order in which it is derived. The stream is numpy's
    default_rng(SeedSequence([seed, *path])), bit for bit: PCG64 is seeded
    with the words numpy's SeedSequence would generate for that key. They
    are hashed 1 024 (_BLOCK) keys at a time, for the aligned block of keys
    that differ only in their last element, in one pass over uint32
    arrays, and the last few blocks are kept, so consecutive keys (rounds,
    Monte Carlo blocks) cost a lookup. The generator's
    bit_generator.seed_seq is an adapter that holds those words, so
    spawn() is unsupported. A negative key raises ValueError, and a
    non-integer one (2.5) TypeError, as in numpy.
    """
    keys = tuple(map(operator.index, (seed, *path)))
    if min(keys) < 0:
        raise ValueError("expected non-negative integer")
    block, row = divmod(keys[-1], _BLOCK)
    return np.random.Generator(_pcg64()(_SeedWords(_block_words(keys[:-1], block)[row])))


# Keys hashed in one pass. 2**32 is a multiple of it, so the last elements
# of a block's keys split into the same number of uint32 words, and only the
# lowest word varies.
_BLOCK = 1024
_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, as numpy
# implements it); XSHIFT is 16 for its 4-word pool.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _key_words(key: int) -> list[int]:
    """The uint32 words numpy makes of a non-negative int, least
    significant first, one zero word for 0."""
    words = [key & _M32]
    while key := key >> 32:
        words.append(key & _M32)
    return words


@functools.lru_cache(maxsize=4)
def _block_words(prefix: tuple[int, ...], block: int) -> np.ndarray:
    """PCG64 seed words, a read-only (_BLOCK, 4) uint64 array: row t is
    SeedSequence([*prefix, block * _BLOCK + t]).generate_state(4, uint64)."""
    low, *high = _key_words(block * _BLOCK)
    entropy = [np.full(_BLOCK, w, np.uint32) for key in prefix for w in _key_words(key)]
    entropy.append(np.arange(low, low + _BLOCK, dtype=np.uint32))
    entropy += [np.full(_BLOCK, w, np.uint32) for w in high]
    words = _seed_sequence_state(entropy)
    words.flags.writeable = False
    return words


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """numpy's SeedSequence mix_entropy and generate_state(4, uint64),
    step for step, on columns: entropy[w] holds word w of every key, and row
    t of the result is key t's state. uint32 arrays wrap on overflow as the
    C code does (a numpy uint32 scalar would warn instead)."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _M32
        value = value * h
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = np.empty((len(zero), 8), np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & _M32
        value = value * h
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """The ISeedSequence PCG64 is built from: it returns one key's
    precomputed seed words and supports nothing else."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("holds only PCG64's seed words, generate_state(4, np.uint64)")
        return self.words


@functools.cache
def _pcg64():
    """numpy's PCG64, once _SeedWords is registered as an ISeedSequence.
    Done on the first stream, since it loads numpy.random, which importing
    poolsim does not."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return np.random.PCG64


# The smallest positive and the largest uniform Generator.random returns.
U_MIN, U_MAX = 2.0**-53, 1.0 - 2.0**-53


def _check_numbers(obj) -> None:
    """A ValueError where a float field of `obj` holds no real number in the
    float range, or an int field an integer beyond int64: values a YAML
    config cannot spell, since its reader refuses them."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "float" and (what := _not_finite(v)):
            raise ValueError(f"{f.name} must be a finite number, got {what}")
        if f.type == "int" and isinstance(v, numbers.Integral) and not -2**63 <= operator.index(v) < 2**63:
            raise ValueError(f"{f.name} does not fit in a 64-bit integer")


def _not_finite(v) -> str | None:
    """What `v` is, where it is no real number in the float range; else None."""
    if isinstance(v, numbers.Integral):
        # compared exactly: converting an int beyond the float range overflows
        return None if abs(v) <= sys.float_info.max else "an int beyond the float range"
    if not isinstance(v, numbers.Real):
        return f"a {type(v).__name__}"
    return None if math.isfinite(v) else repr(v)


@dataclass(frozen=True)
class PlatformParams:
    """Platform-chosen constants.

    p: money paid per demanded difficulty unit (price).
    b: base reward per completed difficulty unit.
    k: difficulty units produced per power unit, in expectation.
    lam: subsidy threshold fraction in (0, 1).
    window_N: rolling-window length, in rounds.
    eps_k: floor for the subsidy-shape divisor (removes the K = 0 singularity).
    """

    p: float
    b: float
    k: float
    lam: float = 0.8
    window_N: int = 10
    eps_k: float = 1e-3

    def __post_init__(self):
        _check_numbers(self)
        if not self.p > 0:
            raise ValueError("p must be positive")
        if not self.b > 0:
            raise ValueError("b must be positive")
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not 0 < self.lam < 1:
            raise ValueError("lambda must lie in (0, 1)")
        # an int or a numpy integer, as operator.index takes; never a float
        if not (isinstance(self.window_N, numbers.Integral) and self.window_N >= 1):
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
    q: float = 2.0  # config reads the YAML default from here

    def __post_init__(self):
        _check_numbers(self)
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
    out = cost.r * a if cost.family == "linear" else _power_cost(cost.c, cost.q, a)
    return out if out.ndim else float(out)


def cost_marginal(cost: CostFunction, a) -> float:
    """C'(a); nondecreasing in a by convexity."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("allocation must be nonnegative")
    if cost.family == "linear":
        out = np.full_like(a, cost.r)
    else:
        out = _power_cost(cost.c * cost.q, cost.q - 1.0, a)
    return out if out.ndim else float(out)


def _power_cost(coef, q, a):
    """coef * a ** q for an array a >= 0 and q >= 0."""
    with np.errstate(over="ignore"):
        out = coef * a ** q
        # a ** q overflows before coef * a ** q does where coef < 1; there,
        # and only there, coef is folded in first (np.power, as a ** q, so
        # that a scalar a gets the bits of an array's element). Only where
        # q > 1 can a ** q overflow first; elsewhere coef ** (1 / q) could
        # overflow a float and raise.
        if q > 1.0 and np.isinf(out).any():
            out = np.where(np.isinf(out), np.power(coef ** (1.0 / q) * a, q), out)
    return out


@dataclass(frozen=True)
class MinerProfile:
    """Economic identity of one miner: capacity plus opportunity cost. A
    miner is its index in the config's profiles and policies."""

    capacity_A: float
    cost: CostFunction

    def __post_init__(self):
        _check_numbers(self)
        if not self.capacity_A > 0:
            raise ValueError("capacity_A must be positive")


def c_tilde(profile: MinerProfile) -> float:
    """Marginal opportunity cost at full capacity, C'(A); maximal on [0, A]."""
    return float(cost_marginal(profile.cost, profile.capacity_A))


@dataclass(frozen=True)
class MinerPolicy:
    """Policy kinds: static(a), myopic_br(grid), delta_adaptive(step, floor).

    myopic_br maximises the raw expected payoff, exact under both mechanisms
    (analysis.payoff_curve), not the floor objective that ppss incentive
    verdicts use: the raw payoff is what a myopic miner actually earns in
    the round it plays. Its grid has 2 to MAX_GRID points.
    """

    kind: str
    a: float = 0.0
    grid: int = 64
    step: float = 0.5
    floor: float = 0.0

    def __post_init__(self):
        _check_numbers(self)
        if self.kind not in ("static", "myopic_br", "delta_adaptive"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "static" and not self.a >= 0:
            raise ValueError("static allocation a must be nonnegative")
        if self.kind == "myopic_br" and not (
                isinstance(self.grid, numbers.Integral) and 2 <= self.grid <= MAX_GRID):
            raise ValueError(f"myopic_br grid must be an integer in [2, {MAX_GRID}], got {self.grid}")
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
        _check_numbers(self)
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


def sample_transcript(params: PlatformParams, allocations, rng: np.random.Generator) -> list[float]:
    """One round's outputs: D_i ~ Gamma(k * a_i, 1) independently per miner.

    allocations is a sequence of floats a_i; the outputs come back as a list
    of Python floats in the same order. Miners with a_i = 0 produce exactly
    0. Draws happen in miner order from the supplied stream, one scalar
    standard_gamma call per positive shape, so the outputs are reproducible
    bit for bit. A shape that is not positive (0, -0.0 or NaN) draws nothing
    and gives 0.0.
    """
    shapes = [params.k * a for a in allocations]
    if any(s < 0 for s in shapes):
        raise ValueError("allocations must be nonnegative")
    return [rng.standard_gamma(s) if s > 0 else 0.0 for s in shapes]

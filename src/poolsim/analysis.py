"""Expected payoffs, best responses, incentive-compatibility checkers, and
budget-balance audits.

Incentive checks come in two flavors. The raw expected payoff is the
mechanism as implemented, exact under both mechanisms, and payoff_curve is
its one entry point: in closed form under pps (_pps_expected_reward), by
quadrature under ppss (_PpssReward). The "floor" objective is the
guaranteed-payoff lower bound a * c~ - C(a), which is the object the
subsidy mechanism's capacity-commitment argument actually maximizes. PPSS
incentive verdicts use the floor objective; the raw payoff curve stays
available as a diagnostic (best_response with objective="payoff") because
the guarded subsidy overpays near D = lambda*A*k and its raw best response
can sit below capacity. The raw ppss payoff is taken at warm windows: the
indicator reads N-1 earlier rounds at the same allocation, as it does from
round N on in a game of static miners. expected_payoff_mc is the Monte Carlo
estimate of either payoff, kept as the oracle the exact forms are tested
against.

OCD-IC and DOCD-IC are one test, incentive_verdict, under different
information: OCD-IC passes the demand distribution F, DOCD-IC a constant
demand at the announced M. PPSS verdicts read neither the demand nor the
rolling windows, because the floor does not depend on them: with
c~ = C'(A), floor'(a) = C'(A) - C'(a) >= 0 by convexity of C, so capacity
is a weak floor best response. Under a linear cost the floor curve is
exactly 0.0 at every grid point, and the tie-break toward the larger
allocation picks capacity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import ppss_rate, subsidy_terms
from .model import (
    MAX_GRID,
    CostFunction,
    DemandModel,
    MinerProfile,
    PlatformParams,
    cost_eval,
    c_tilde,
)
from .montecarlo import exact_mean_ci, payoff_samples

# 64-node Gauss-Legendre rule on [0, 1], for integrals over a demand quantile.
# numpy's nodes, not scipy.special.roots_legendre: that one imports
# scipy.linalg, which adds about 7 MB to every command's resident memory.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_GL_U, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W


@dataclass(frozen=True)
class PayoffEstimate:
    """Monte Carlo estimate of an expected payoff with a 95% normal CI."""

    mean: float
    ci_half_width: float


@dataclass(frozen=True)
class BestResponseResult:
    argmax_a: float
    value: float
    grid_resolution: float
    # "closed_form": the floor objective, or the pps payoff;
    # "quadrature": the ppss payoff (_PpssReward)
    method: str
    # (a, objective) at each grid point, in grid order
    curve: tuple[tuple[float, float], ...]


def _checked_allocations(allocations, profiles: list[MinerProfile]) -> np.ndarray:
    """The allocation vector as floats; every entry must lie in [0, A_i]."""
    allocations = np.asarray(allocations, dtype=float)
    for i, (a, prof) in enumerate(zip(allocations, profiles, strict=True)):
        if not 0 <= a <= prof.capacity_A:
            raise ValueError(f"allocation {a} outside [0, {prof.capacity_A}] for miner {i}")
    return allocations


def expected_payoff_mc(
    mechanism: str,
    miner_index: int,
    allocations,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
    replicas: int,
    seed: int,
) -> PayoffEstimate:
    """Unbiased MC estimate of miner `miner_index`'s expected payoff.

    PPSS runs fill the rolling window with N-1 rounds at the same strategy;
    a constant `demand` pins M.
    A function of its arguments, seed included. Every allocation must lie
    in [0, A_i].
    The CI is exact_mean_ci's normal one, which undercovers ppss payoffs
    whose subsidy pays up to numerator/eps_k on outputs rarer than
    1/replicas (recorded example there); payoff_curve is exact.
    """
    allocations = _checked_allocations(allocations, profiles)
    samples = payoff_samples(
        mechanism, miner_index, allocations, params, profiles, demand, replicas, seed,
    )
    mean, ci = exact_mean_ci(samples)
    return PayoffEstimate(mean=mean, ci_half_width=ci)


def _expected_min_gamma(s, M):
    """E[min(G, M)] for G ~ Gamma(s, 1): s * P(s+1, M) + M * Q(s, M).

    scipy's P and Q are NaN from a shape of about 3e305 (scipy 1.17). There
    G's relative spread s**-0.5 is below 2e-152, so the value is min(s, M)
    to rounding; where P and Q are finite, from s = 2**500 on, the formula
    already gives min(s, M) bit for bit."""
    from scipy import special

    value = s * special.gammainc(s + 1.0, M) + M * special.gammaincc(s, M)
    return np.where(np.isfinite(value), value, np.minimum(s, M))


def _pps_expected_reward(
    allocations: np.ndarray, i: int, params: PlatformParams, demand: DemandModel,
) -> np.ndarray:
    """Miner i's exact pps reward E[R_i] at each row of `allocations`; a row
    whose entry i is 0 reads 0.

    With s_i = k*a_i and s = k*sum(a), the share D_i/|D| ~ Beta(s_i, s - s_i)
    is independent of |D| ~ Gamma(s) (Lukacs 1955), so
    E[R_i] = b * (s_i/s) * E[min(|D|, M)], and for a fixed M
    E[min(|D|, M)] = s * P(s+1, M) + M * Q(s, M), P and Q the regularized
    incomplete gamma functions. A constant demand takes one evaluation; any
    other demand is integrated over its quantile with a fixed 64-node
    Gauss-Legendre rule."""
    a = allocations[:, i]
    total = allocations.sum(axis=1)
    s = params.k * total
    if demand.family == "constant":
        expected_min = _expected_min_gamma(s, demand.M)
    else:
        rows = _expected_min_gamma(s[:, None], demand.ppf(_GL_U))
        # one dot product per row, as a single allocation takes: a matrix
        # product may sum a row in another order
        expected_min = np.array([_GL_W @ row for row in rows])
    with np.errstate(invalid="ignore"):  # 0/0 on a row of zeros
        reward = params.b * (a / total) * expected_min
    return np.where(a == 0, 0.0, reward)


# Quadrature for the ppss payoff. Each rule is composite Gauss-Legendre,
# cut at |score| <= _T (mass beyond: about 2 * Phi(-8) = 1.2e-15).
# The outer rule integrates miner i's output X' ~ Gamma(a), a = s + 1 >= 1,
# over its Wilson-Hilferty score u (Wilson & Hilferty, "The distribution of
# chi-square", PNAS 17, 1931): x(u) = a * c**3, c = 1 - 1/(9a) + u/(3 sqrt(a)).
# x is then nearly linear in u and u nearly standard normal, as under the exact
# normal score, but node, weight and the score of a break are closed forms.
# u starts where x = 0 when that lies above -_T.
# The inner rule, over the others' output, keeps the exact normal score t,
# the point where the standard normal CDF equals the output's CDF, weighted by
# the normal density: the others' shape may lie below 1, where the density of
# x(u) is singular at 0.
_T = 8.0
_OUTER_X, _OUTER_W = np.polynomial.legendre.leggauss(10)
_OUTER_WIDTH = 2.0  # widest outer panel, in u
# An outer node's c is at least this, so a node that rounding puts at or
# below x = 0 is a positive output (x >= 8e-28 * a) of weight below 1e-18.
_C_MIN = 2.0**-30
# Below this power, an outer integrand that goes as distance**power at the
# end of an interval gets panels graded toward that end (_graded_gap). One
# panel of 10 nodes there loses about 1e-5 at power 0.05, 2e-8 at 2.2 and
# 1e-12 at 7.5, and less than 1e-13 from about 9 on.
_POWER_GRADED = 8.0
# Grading levels, at most 40, and the far edge of a level's panel in units of
# the first panel's width, 2**level - 1.
_LEVELS = np.arange(1, 41)
_GRADED_STEPS = 2.0**_LEVELS - 1.0
_INNER_X, _INNER_W = np.polynomial.legendre.leggauss(8)
_INNER_PANELS = 16
# The others' range screens (_OthersRule) sit this far, relatively, past the
# quantiles at score +-_T.
_SCREEN_MARGIN = 1e-9
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# An inner panel's reference points on [-1, 1] (its edges and nodes), and the
# matrix that turns values there into monomial coefficients.
_INNER_REF = np.concatenate(([-1.0], _INNER_X, [1.0]))
_INNER_FIT = np.linalg.inv(np.vander(_INNER_REF, len(_INNER_REF), increasing=True))
# Outer nodes evaluated together: h builds a (nodes, 128) matrix, so a grid of
# many allocations, or of allocations times demand nodes, goes in blocks.
_BLOCK_NODES = 4096
# From this output shape on, an outer node's log weight takes a series in
# d = c - 1 (_PpssReward._means); below it, the closed form is good to about
# 1e-13.
_SHAPE_SERIES = 2.0**20


def _gamma_score(shape, x: np.ndarray) -> np.ndarray:
    """Normal score of x under Gamma(shape, 1), taken from the nearer tail;
    shape is a float or an array of x's shape."""
    from scipy import special

    p = special.gammainc(shape, x)
    t = special.ndtri(p)
    upper = p > 0.5
    t[upper] = -special.ndtri(special.gammaincc(_at(shape, upper), x[upper]))
    return t


def _gamma_at_score(shape, t: np.ndarray) -> np.ndarray:
    """Gamma(shape, 1) quantile at normal score t, taken from the nearer
    tail; shape is a float or an array of t's shape."""
    from scipy import special

    x = np.empty_like(t)
    lower = t <= 0
    x[lower] = special.gammaincinv(_at(shape, lower), special.ndtr(t[lower]))
    upper = ~lower
    x[upper] = special.gammainccinv(_at(shape, upper), special.ndtr(-t[upper]))
    return x


def _at(shape, mask):
    """A float shape as it is, an array one at the mask."""
    return shape[mask] if np.ndim(shape) else shape


def _panel_rule(left, lengths, counts, gl_x, gl_w):
    """Nodes and weights of the integral of f over the intervals
    [left, left + lengths): each is cut into `counts` equal panels, with one
    Gauss-Legendre rule per panel."""
    step = (lengths / counts).repeat(counts)
    offset = np.arange(counts.sum()) - (counts.cumsum() - counts).repeat(counts)
    half = 0.5 * step
    mid = left.repeat(counts) + step * offset + half
    t = (mid[:, None] + half[:, None] * gl_x).ravel()
    return t, (half[:, None] * gl_w).ravel()


def _graded_gap(power: np.ndarray, side: float) -> np.ndarray:
    """First-panel width, signed by `side`, for grading toward an endpoint
    singularity distance**power (see _PpssReward._intervals): the last panel
    is 2**-L of full width, L = ceil(40 / (power + 1)) up to 40, so that its
    share of the integral is about 2**-40; 0 (no grading) from _POWER_GRADED
    on."""
    levels = np.minimum(np.ceil(40.0 / (power + 1.0)), 40.0)
    return np.where(power < _POWER_GRADED, side * _OUTER_WIDTH * 2.0**-levels, 0.0)


def _log_gamma_norm(a: np.ndarray) -> np.ndarray:
    """(a - 1/2) ln a - a - ln Gamma(a), a >= 1. Written so, it loses about
    a ln a ulps to cancellation; it equals -ln(2 pi)/2 minus Stirling's
    remainder, whose series (Abramowitz & Stegun 6.1.41) is exact to an ulp
    from a = 10 on. Shapes below 10 take the direct form, and gammaln runs
    on those alone."""
    from scipy import special

    r = 1.0 / a
    r2 = r * r
    remainder = r * (1 / 12 + r2 * (-1 / 360 + r2 * (1 / 1260 + r2 * (
        -1 / 1680 + r2 * (1 / 1188 + r2 * (-691 / 360360))))))
    out = -0.5 * math.log(2.0 * math.pi) - remainder
    small = a < 10.0
    a = a[small]
    out[small] = (a - 0.5) * np.log(a) - a - special.gammaln(a)
    return out


class _OthersRule:
    """h(x) = E[min(1, M/(x + Y))] for Y ~ Gamma(shape, 1), the other miners'
    summed output. The rule on Y's score, _INNER_PANELS equal panels of 8
    nodes, is built once, the first time a kink c = M - x does not lie above
    Y's range. min(1, .) kinks at Y = c, so the panel holding c's score is
    integrated from that score up, at outputs interpolated (degree 9, in
    log y) from the panel's edges and nodes.

    Y's range is cut at score +-_T, and the kink's score t_c is needed only
    inside it: above Y's quantile at +_T, h = 1, and below its quantile at
    -_T, t_c is -_T. So only those two quantiles are computed up front, and
    each screen keeps a relative margin of _SCREEN_MARGIN past its quantile,
    which covers the inverse's rounding. A screen is kept only if the score
    at its edge, computed forward, lies beyond +-_T, so every output is the
    one the score itself would give.

    Fast exit: where every kink of a pass lies above the top screen, h
    returns the float 1.0 before any other work. Each output would read
    exactly 1.0 there (its score is set to +_T, and a row at +_T is set to
    1.0), and the caller's product rate * 1.0 is the rate, bit for bit."""

    def __init__(self, shape: float):
        self.shape = shape
        self.y = None  # the rule on Y's score, built by _build
        q_lo, q_hi = _gamma_at_score(shape, np.array([-_T, _T]))
        c_lo, c_hi = q_lo * (1.0 - _SCREEN_MARGIN), q_hi * (1.0 + _SCREEN_MARGIN)
        # (a quantile of 0, at a shape below about 1e-18, screens every c > 0)
        tiniest = np.finfo(float).smallest_subnormal
        t_lo, t_hi = _gamma_score(shape, np.array([c_lo, max(c_hi, tiniest)]))
        # c below c_lo: t_c = -_T; c above c_hi: h = 1. A NaN edge or score
        # keeps its screen off.
        self.c_lo = c_lo if t_lo <= -_T else 0.0
        self.c_hi = c_hi if t_hi >= _T else np.inf

    def _build(self):
        """The rule on Y's score, at exact quantiles."""
        shape = self.shape
        self.width = 2.0 * _T / _INNER_PANELS
        self.edges = np.linspace(-_T, _T, _INNER_PANELS + 1)
        lengths = np.diff(self.edges)
        counts = np.ceil(lengths / self.width).astype(int)
        # E[f(Z)], Z standard normal: the panel rule times the normal density
        self.t, self.w = _panel_rule(self.edges[:-1], lengths, counts, _INNER_X, _INNER_W)
        self.w = self.w * np.exp(-0.5 * self.t * self.t) * _INV_SQRT_2PI
        self.y = _gamma_at_score(shape, self.t)
        self.panel = np.repeat(np.arange(_INNER_PANELS), len(_INNER_X))
        y_edges = _gamma_at_score(shape, self.edges)
        ref = np.column_stack((y_edges[:-1], self.y.reshape(_INNER_PANELS, -1), y_edges[1:]))
        # An output that underflows to 0 has no logarithm; a kink in such a
        # panel takes exact quantiles instead.
        self.smooth = (ref > 0).all(axis=1)
        self.coef = _INNER_FIT @ np.log(np.where(ref > 0, ref, 1.0)).T

    def h(self, x: np.ndarray, M: np.ndarray, bounds: list[int]):
        """h at outputs x, each with its own demand M. `bounds` cut x into
        segments, and each segment's rows above the kink take one matrix
        product of their own: BLAS sums rows in groups, so one product over
        several segments could round a row otherwise than a lone segment.
        The kink's score is computed only where c lies between the screens
        (see the class docstring). Where every kink lies above the top
        screen, h is 1 at every output and the float 1.0 is returned, the
        value each row would read."""
        c = M - x
        if (c > self.c_hi).all():
            return 1.0
        from scipy import special

        out = np.empty_like(x)
        # t_c at or below -_T: no mass below the kink, and its panel is the first
        tc = np.full_like(x, -_T)
        tc[c > self.c_hi] = _T
        near = (c >= self.c_lo) & (c <= self.c_hi) & (c > 0)
        if near.any():
            tc[near] = np.maximum(_gamma_score(self.shape, c[near]), -_T)
        full = tc >= _T
        out[full] = 1.0  # the kink lies past Y's range
        rows = np.nonzero(~full)[0]
        if not len(rows):
            return out
        if self.y is None:
            self._build()
        tc, xr, M = tc[rows], x[rows], M[rows]
        p = np.minimum(((tc + _T) / self.width).astype(int), _INNER_PANELS - 1)
        res = special.ndtr(tc) - special.ndtr(-_T)  # min(1, .) = 1 below the kink
        tail = xr[:, None] + self.y
        np.divide(M[:, None], tail, out=tail)
        tail[self.panel[None, :] <= p[:, None]] = 0.0  # at or below the kink's panel
        cuts = np.searchsorted(rows, bounds)
        for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            if r1 > r0:
                res[r0:r1] += tail[r0:r1] @ self.w
        lo = self.edges[p]
        half = 0.5 * (lo + self.width - tc)
        tau = tc[:, None] + half[:, None] * (_INNER_X + 1.0)
        rho = 2.0 * (tau - lo[:, None]) / self.width - 1.0
        coef = self.coef[:, p]
        log_y = coef[-1][:, None]
        for cm in coef[-2::-1]:
            log_y = log_y * rho + cm[:, None]
        y = np.exp(log_y)
        rough = ~self.smooth[p]
        if rough.any():
            y[rough] = _gamma_at_score(self.shape, tau[rough].ravel()).reshape(-1, len(_INNER_X))
        wk = half[:, None] * _INNER_W * np.exp(-0.5 * tau * tau) * _INV_SQRT_2PI
        res += (wk * M[:, None] / (xr[:, None] + y)).sum(axis=1)
        out[rows] = res
        return out


class _PpssReward:
    """Miner i's exact expected ppss reward E[R_i] as a function of its own
    allocation, the other miners' held fixed.

    Condition on miner i's output x ~ Gamma(s_i), s_i = k*a_i. With
    (unit, numerator) = subsidy_terms(...), the others' output
    Y ~ Gamma(k * sum_{j != i} a_j) and a warm window W ~ Gamma((N-1)*s_i)
    (W, Y and x independent):

        E[R_i] = integral of f_{s_i}(x) * phi(x) * x * h(x) dx,
        phi(x) = b + P(W >= unit*N - x) * numerator / max(K(x), eps_k),
        h(x) = E_{M,Y}[min(1, M/(x + Y))].

    N = 1 turns P into the indicator x >= unit; a single miner has
    h(x) = E_M[min(1, M/x)]. The integrals are composite Gauss-Legendre,
    the outer one on x's Wilson-Hilferty score (closed-form nodes and
    weights, no inverse incomplete gamma), the inner one (_OthersRule) on
    Y's exact normal score; both are split where the integrand kinks or
    jumps, and the outer one is graded toward its endpoint singularities.
    At a constant demand the result agrees with nested adaptive quadrature
    to about 1e-11 or better where that was measured, at outputs k*a_i from
    0.06 to 100. Without a subsidy it agrees with the pps closed form to
    about 5e-14 at outputs k*a from 1 to 1e300 with the demand above supply,
    one miner or two. A random demand is integrated over its quantile with
    the 64-node rule _pps_expected_reward uses.

    What does not change along a best-response curve is built once: the
    others' output rule, the two roots of K = eps_k, subsidy_terms and the
    demand nodes. A call takes an array of allocations and integrates all of
    them, at every demand node, in one pass.

    Screens and fast exits skip work whose result is already fixed, each
    chosen from the pass's own inputs, and leave every bit of the result:
    - _OthersRule skips the kink's score outside the others' range, and h
      returns 1.0 when every kink lies above it (see _OthersRule);
    - _rate skips the warm window's probability where the rate rounds to b;
    - _intervals leaves out a graded end whose power is _POWER_GRADED or
      more at every segment: its gaps are 0, so every break it adds is a
      copy of lo, which only makes empty intervals, and those are dropped;
      with no graded panel at all, it skips the grading arrays;
    - _means skips the block search when the last segment's first node falls
      in the first block, where the search returns one block;
    - a constant demand's single node of weight 1.0 skips the tiling and
      fsum: fsum of one term is the term, but for fsum([-0.0]) == 0.0,
      which adding 0.0 gives as well.
    What is fixed per curve (the points whose scores break the outer rule,
    the grading steps) is built once, not per pass."""

    def __init__(
        self,
        i: int,
        others_total: float,
        params: PlatformParams,
        profiles: list[MinerProfile],
        demand: DemandModel,
    ):
        from scipy import special

        prof = profiles[i]
        self.params = params
        self.unit, self.numerator = (
            float(v) for v in subsidy_terms(prof.capacity_A, c_tilde(prof), params)
        )
        # The indicator fires when the warm window's Gamma((N-1)*s) sum of
        # N-1 rounds (none at N = 1) plus the current output reaches
        # `threshold`.
        self.threshold, self.window_rounds = self.unit * params.window_N, params.window_N - 1
        # K(x) = eps_k where x*e^(1-x) = 1 - eps_k, x = unit/D: the two real
        # branches of Lambert W
        arg = -(1.0 - params.eps_k) / math.e
        roots = tuple(self.unit / -special.lambertw(arg, branch).real for branch in (-1, 0))
        # Where the integrand kinks or jumps besides x = M, under a subsidy:
        # the roots, the indicator's threshold, and the pole of 1/K, last.
        self.kinks = ()
        if self.numerator != 0:
            # (a unit that underflows to 0 leaves no threshold)
            threshold = (self.threshold,) if self.threshold > 0 else ()
            self.kinks = (*roots, *threshold, self.unit)
            # _rate's window screen: a Chernoff exponent above this leaves
            # the rate at exactly b
            self.log_cap = (math.log(self.numerator) - math.log(params.eps_k)
                            - math.log(params.b) + 56.0 * math.log(2.0))
        # scipy's inverse incomplete gamma is NaN at a subnormal shape, whose
        # output is 0 to within the rule's accuracy: no other miner
        others_shape = params.k * others_total
        self.others = _OthersRule(others_shape) if others_shape >= np.finfo(float).tiny else None
        if demand.family == "constant":
            self.demand_M, self.demand_w = np.array([demand.M]), np.array([1.0])
        else:
            self.demand_M, self.demand_w = demand.ppf(_GL_U), _GL_W
        # The outputs whose scores _intervals takes, one row per demand node:
        # x = 0, the node's M, then the kinks.
        self.points = np.zeros((len(self.demand_M), 2 + len(self.kinks)))
        self.points[:, 1], self.points[:, 2:] = self.demand_M, self.kinks
        # 1 - h(x) = E[(x + Y - M)^+ / (x + Y)] goes as (M - x)**(shape + 1)
        # below x = M, shape the others'. The outer rule is graded toward it
        # at a constant demand only: a random one is integrated with the
        # 64-node demand rule, whose error (about 1e-6) grading cannot lower.
        self.m_gap = 0.0
        if self.others is not None and demand.family == "constant":
            self.m_gap = float(_graded_gap(others_shape + 1.0, -1.0))

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """E[R_i] at each allocation in the 1-D array a."""
        # a shape k*a of 0 (a = 0, or k*a underflowing) has no output, so no
        # reward, as in the MC and the engine
        out = np.zeros(len(a))
        s = self.params.k * a
        live = s.nonzero()[0]
        if not len(live):
            return out
        s = s[live]
        nodes = len(self.demand_M)
        if nodes == 1:
            # A constant demand's one node weighs 1.0, so each value is its
            # one term s * mean, which math.fsum returns as it is, but for
            # math.fsum([-0.0]) == 0.0: adding 0.0 does the same.
            out[live] = s * self._means(s, self.demand_M.repeat(len(live))) + 0.0
            return out
        # one segment per (allocation, demand node), allocation-major
        s = np.repeat(s, nodes)
        M = np.tile(self.demand_M, len(live))
        terms = (s * self._means(s, M)).reshape(len(live), nodes) * self.demand_w
        out[live] = [math.fsum(row) for row in terms.tolist()]
        return out

    def _means(self, s: np.ndarray, M: np.ndarray) -> np.ndarray:
        """E[g(X')] per segment, X' ~ Gamma(a), a = s + 1: x * f_s(x) =
        s * f_a(x), so E[X g(X)] = s * E[g(X')], and the integrand g = per-unit
        rate * h is bounded. The rule runs over X''s Wilson-Hilferty score u
        (see _intervals): a node at u sits at x = a * c**3 and weighs
        f_a(x) * dx/du = f_a(x) * sqrt(a) * c**2. Its logarithm is taken as
        (3a - 1) ln c - a (c**3 - 1) + _log_gamma_norm(a), with d = c - 1
        formed from u directly, so that the terms of size a ln a in
        ln f_a(x) = (a - 1) ln x - x - ln Gamma(a) cancel in closed form.
        The first two terms are each about sqrt(a) |u| and differ by about
        -u**2/2, so written so they lose about sqrt(a) |u| ulps. A segment of
        shape _SHAPE_SERIES or more takes them as 3a (L - d - d**2 (1 + d/3))
        - L, L = ln c, with the bracket from its Taylor series in d up to
        d**9: |d| <= 3e-3 there, so that is exact to an ulp, and no term
        cancels. The form follows the segment's own shape, so its values do
        not depend on the rest of the pass."""
        n, shape = len(s), s + 1.0
        # c = 1 - 1/(9a) + u/(3 sqrt(a)): each segment's two coefficients
        root3 = 3.0 * np.sqrt(shape)
        ninth = 1.0 / (9.0 * shape)
        left, lengths, seg = self._intervals(s, shape, root3, ninth)
        counts = np.ceil(lengths / _OUTER_WIDTH).astype(int)  # panels no wider than that
        # each segment's first interval and first node, and the ends
        first = seg.searchsorted(np.arange(n + 1))
        start = np.concatenate(([0], counts.cumsum()))[first] * len(_OUTER_X)
        slope = 1.0 / root3
        log_norm = _log_gamma_norm(shape)
        out = np.empty(n)
        # a block holds the segments whose first node falls in one stretch
        # of _BLOCK_NODES nodes: one block when the last segment's does
        if start[n - 1] < _BLOCK_NODES:
            cuts = [0, n]
        else:
            cuts = [0, *(np.flatnonzero(np.diff(start[:-1] // _BLOCK_NODES)) + 1).tolist(), n]
        for j, e in zip(cuts[:-1], cuts[1:]):
            iv = slice(first[j], first[e])
            u, w = _panel_rule(left[iv], lengths[iv], counts[iv], _OUTER_X, _OUTER_W)
            node = seg[iv].repeat(counts[iv] * len(_OUTER_X))
            a = shape[node]
            d = np.maximum(u * slope[node] - ninth[node], _C_MIN - 1.0)
            x = a * (1.0 + d) ** 3
            bounds = (start[j:e + 1] - start[j]).tolist()
            log_c = np.log1p(d)
            log_w = (3.0 * a - 1.0) * log_c - a * (d * (3.0 + d * (3.0 + d)))
            # a segment of shape _SHAPE_SERIES or more takes the series
            # L - d - d**2 (1 + d/3) = -3/2 d**2 - d**4/4 + d**5/5 - ...
            # (the d**3 terms cancel exactly)
            for k in (shape[j:e] >= _SHAPE_SERIES).nonzero()[0].tolist():
                lo, hi = bounds[k], bounds[k + 1]
                dk = d[lo:hi]
                log_w[lo:hi] = 3.0 * shape[j + k] * (dk * dk * (-1.5 + dk * dk * (-1 / 4 + dk * (
                    1 / 5 + dk * (-1 / 6 + dk * (1 / 7 + dk * (-1 / 8 + dk / 9))))))) - log_c[lo:hi]
            w *= np.exp(log_w + log_norm[node])
            if self.others is not None:
                h = self.others.h(x, M[node], bounds)
            else:
                h = np.minimum(1.0, M[node] / x)
            g = self._rate(x, s[node]) * h
            out[j:e] = [w[lo:hi] @ g[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        return out

    def _rate(self, x: np.ndarray, s: np.ndarray):
        """Per-unit rate ppss_rate at outputs x, firing with the indicator's
        probability; b where the numerator is 0.

        A warm window W ~ Gamma(alpha) fires with probability P(W >= w),
        w = threshold - x, at most exp(-alpha (r - 1 - ln r)), r = w/alpha > 1
        (Chernoff). Where that bound times numerator/eps_k is below
        b * 2**-56, the subsidy term is under a quarter of b's half-ulp, and
        the rate rounds to exactly b whatever the probability: it is taken
        as 0 there, without the gammaincc call. The bound is compared in
        logarithms, and the factor 4 of slack covers their rounding."""
        from scipy import special

        if self.numerator == 0:
            return np.full_like(x, self.params.b)
        if self.window_rounds > 0:
            alpha = self.window_rounds * s
            w = np.maximum(self.threshold - x, 0.0)
            need = w <= alpha
            tail = (~need).nonzero()[0]
            d = w[tail] / alpha[tail] - 1.0  # r - 1 > 0
            need[tail] = alpha[tail] * (d - np.log1p(d)) <= self.log_cap
            fires = np.zeros_like(x)
            fires[need] = special.gammaincc(alpha[need], w[need])
        else:
            fires = x >= self.threshold
        return ppss_rate(fires, x, self.unit, self.numerator, self.params)

    def _intervals(self, s: np.ndarray, shape: np.ndarray, root3: np.ndarray,
                   ninth: np.ndarray):
        """Each segment's outer rule as intervals of Wilson-Hilferty score:
        (left edges, lengths, segment), sorted by segment. The score of an
        output x under Gamma(a), the inverse of x(u) = a * c**3, is
        u = 3 sqrt(a) (cbrt(x/a) - 1 + 1/(9a)); root3 and ninth hold each
        segment's 3 sqrt(a) and 1/(9a). The score range, from the larger of
        -_T and the score of x = 0 up to _T, is split where the integrand
        kinks or jumps: at x = M and, under a subsidy, at the roots of
        K = eps_k and the indicator's threshold. Every break is a closed-form
        score. Panels are graded geometrically toward the points where the
        integrand is rough on a scale finer than a panel: past each root,
        toward 1/K's double pole; and toward the ends where it goes as a
        small power of the distance (_graded_gap): x = 0 when the range
        starts there, x = M from below, and the threshold from below. An end
        whose power is _POWER_GRADED or more at every segment grades nothing
        and is left out, as is the grading when no anchor grades."""
        n = len(s)
        # the scores of self.points (x = 0, M and the kinks); a segment's
        # points are the row of its demand node
        ratio = self.points / shape.reshape(-1, len(self.points), 1)
        scores = root3[:, None] * (np.cbrt(ratio.reshape(n, -1)) - 1.0 + ninth[:, None])
        lo = np.maximum(scores[:, 0], -_T)
        # From each anchor, panels of width |gap|, 2|gap|, 4|gap|, ... on the
        # side the gap's sign gives, until they reach full width; a gap of 0,
        # or an anchor at -_T, grades none. x(u)'s density goes as
        # (u - lo)**(3a - 1) where the range starts at x = 0.
        anchors, gaps = [], []

        def graded_end(anchor, power, side):
            if (power < _POWER_GRADED).any():
                anchors.append(anchor)
                gaps.append(_graded_gap(power, side)[:, None])

        graded_end(lo[:, None], 3.0 * shape - 1.0, 1.0)
        if self.m_gap:
            anchors.append(scores[:, 1:2])
            gaps.append(np.full((n, 1), self.m_gap))
        # x = 0 is a break too: it becomes lo below
        breaks = [scores]
        if len(self.kinks):
            # 1/K has a double pole at D = unit (the last kink), just past
            # each root: grade the panels beyond a root, from a first panel
            # as wide as the root's distance to the pole.
            roots, breaks = scores[:, 2:4], [scores[:, :-1]]
            anchors.append(roots)
            gaps.append(roots - scores[:, -1:])
            if self.window_rounds > 0:
                # a warm window fires with probability 1 - O((threshold -
                # x)**alpha), alpha = (N-1)*s, below the threshold (the third
                # kink)
                graded_end(scores[:, 4:5], self.window_rounds * s, -1.0)
        if anchors:
            anchors, gap = np.concatenate(anchors, axis=1), np.concatenate(gaps, axis=1)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                # (|anchor| < _T holds for finite anchors only)
                levels = np.where(
                    np.isfinite(gap) & (gap != 0) & (np.abs(anchors) < _T),
                    np.minimum(np.ceil(np.log2(_OUTER_WIDTH / np.abs(gap))), 40), 0,
                )
                top = int(levels.max())
                if top:
                    graded = anchors[:, :, None] + gap[:, :, None] * _GRADED_STEPS[:top]
                    graded = np.where(_LEVELS[:top] <= levels[:, :, None], graded, -_T)
                    breaks.append(graded.reshape(n, -1))
        # A break at or below lo becomes a copy of lo, one at or above _T a
        # copy of _T (a NaN one sorts past _T), and copies give the empty
        # intervals that are dropped.
        edges = np.concatenate((*breaks, np.full((n, 1), _T)), axis=1)
        np.minimum(edges, _T, out=edges)
        np.maximum(edges, lo[:, None], out=edges)
        edges.sort(axis=1)
        lengths = edges[:, 1:] - edges[:, :-1]
        keep = lengths > 0
        return edges[:, :-1][keep], lengths[keep], keep.nonzero()[0]


def _payoff_objective(
    mechanism: str,
    i: int,
    allocations,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
):
    """Miner i's exact expected payoff as a function of an array of its own
    allocations, the other miners held at `allocations` (entry i is
    ignored). What does not depend on miner i's allocation is built here,
    once."""
    allocations = _checked_allocations(allocations, profiles)
    cost = profiles[i].cost
    if mechanism == "pps":

        def payoff(a: np.ndarray) -> np.ndarray:
            rows = np.repeat(allocations[None, :], len(a), axis=0)
            rows[:, i] = a
            return _pps_expected_reward(rows, i, params, demand) - cost_eval(cost, a)

    elif mechanism == "ppss":
        others = allocations.copy()
        others[i] = 0.0
        reward = _PpssReward(i, float(others.sum()), params, profiles, demand)

        def payoff(a: np.ndarray) -> np.ndarray:
            return reward(a) - cost_eval(cost, a)

    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    return payoff


def payoff_curve(
    mechanism: str,
    i: int,
    allocations,
    grid,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
) -> np.ndarray:
    """Miner i's exact expected payoff E[R_i] - C(a) at every allocation a in
    `grid`, the other miners at `allocations` (entry i is ignored), in one
    array pass: the pps closed form (_pps_expected_reward) or the ppss
    quadrature (_PpssReward), where the formulas are stated. Each value is
    the one a grid of that allocation alone gives. Every allocation must lie
    in [0, A_i]; miner i's own payoff at `allocations` is
    payoff_curve(mechanism, i, allocations, [allocations[i]], ...)[0]."""
    grid = np.asarray(grid, dtype=float).ravel()
    capacity = profiles[i].capacity_A
    if not ((grid >= 0) & (grid <= capacity)).all():
        raise ValueError(f"grid outside [0, {capacity}] for miner {i}")
    payoff = _payoff_objective(mechanism, i, allocations, params, profiles, demand)
    return payoff(grid)


def floor_payoff(a, c_tilde_value: float, cost: CostFunction):
    """Guaranteed-payoff lower bound a * c~ - C(a); nondecreasing on [0, A].
    A float for a float, an array for an array."""
    a = np.asarray(a, dtype=float)
    out = a * float(c_tilde_value) - cost_eval(cost, a)
    return out if out.ndim else float(out)


def best_response(
    mechanism: str,
    miner_index: int,
    others_fixed,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
    grid_points: int = 64,
    objective: str = "payoff",
) -> BestResponseResult:
    """Maximize the chosen objective over a uniform grid on [0, A_i], then
    refine with golden-section search on the bracketing interval.

    Both objectives are exact: the floor in closed form, the payoff as
    payoff_curve computes it. The whole grid is evaluated in one array
    pass; the refinement evaluates two golden-section steps a pass: the
    pending probe and both places the next step can probe. An
    interior bracket takes 5 refinement passes of 14 points in all, a
    bracket at a = 0 or a = A 4 passes of 11, and the result is bit-identical
    to evaluating one probe a pass. Fewer, wider passes pay where a pass
    costs mostly its fixed overhead (a constant demand); under a random
    demand a ppss pass costs mostly per point, and the extra points cost
    about 5-10%. Ties break toward the larger allocation.
    """
    if not 2 <= grid_points <= MAX_GRID:
        raise ValueError(f"grid_points must lie in [2, {MAX_GRID}], got {grid_points}")
    prof = profiles[miner_index]
    A = prof.capacity_A

    if objective == "floor":
        ct = c_tilde(prof)

        def f(a: np.ndarray) -> np.ndarray:
            return floor_payoff(a, ct, prof.cost)

        method = "closed_form"
    elif objective == "payoff":
        base = np.asarray(others_fixed, dtype=float).copy()
        base[miner_index] = 0.0
        f = _payoff_objective(mechanism, miner_index, base, params, profiles, demand)
        method = "closed_form" if mechanism == "pps" else "quadrature"
    else:
        raise ValueError(f"unknown objective {objective!r}")

    grid = np.linspace(0.0, A, grid_points)
    values = f(grid).tolist()
    curve = tuple(zip(grid.tolist(), values))
    best_i = 0
    for i in range(1, grid_points):
        if values[i] >= values[best_i]:
            best_i = i
    best_a, best_v = curve[best_i]

    # Golden-section refinement of the bracketing interval: at most 16
    # steps, until it is narrower than resolution/16. Where a step probes
    # depends only on its comparison, so both places the next step can probe
    # are known before this step's probe is evaluated. Each array pass
    # evaluates the pending probe and, when the next step runs, both of its
    # places: two steps a pass, every value bit-identical to a
    # one-allocation call.
    resolution = A / (grid_points - 1)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def shrink(box, left):
        """One step on box = (lo, hi, c, d): keep [lo, d] and probe a new c,
        or keep [c, hi] and probe a new d."""
        lo, hi, c, d = box
        if left:
            return lo, d, d - invphi * (d - lo), c
        return c, hi, d, c + invphi * (hi - c)

    def runs(box, steps):
        return steps < 16 and not box[1] - box[0] < resolution / 16

    lo = grid[max(best_i - 1, 0)]
    hi = grid[min(best_i + 1, grid_points - 1)]
    box = (lo, hi, hi - invphi * (hi - lo), lo + invphi * (hi - lo))
    fc = fd = None  # None: not evaluated yet
    steps = 0
    while True:
        ahead = (shrink(box, True), shrink(box, False)) if runs(box, steps) else None
        points = [a for a, v in zip(box[2:], (fc, fd)) if v is None]
        if ahead:
            points += [ahead[0][2], ahead[1][3]]
        probed = f(np.array(points)).tolist()
        if fc is None:
            fc = probed.pop(0)
        if fd is None:
            fd = probed.pop(0)
        if ahead is None:
            break
        # the step speculated on: its probe, either way, is evaluated
        box, fc, fd = (ahead[0], probed[0], fc) if fc > fd else (ahead[1], fd, probed[1])
        steps += 1
        if not runs(box, steps):
            break
        box, fc, fd = (shrink(box, True), None, fc) if fc > fd else (shrink(box, False), fd, None)
        steps += 1
    for a_cand, v_cand in ((box[2], fc), (box[3], fd)):
        if v_cand > best_v or (v_cand == best_v and a_cand > best_a):
            best_a, best_v = a_cand, v_cand

    return BestResponseResult(
        argmax_a=float(best_a), value=float(best_v),
        grid_resolution=float(resolution), method=method, curve=curve,
    )


def _default_objective(mechanism: str) -> str:
    # PPSS incentive verdicts target the guaranteed-payoff floor; see the
    # module docstring for why the raw payoff argmax is diagnostic only.
    return "floor" if mechanism == "ppss" else "payoff"


def incentive_verdict(
    mechanism: str,
    i: int,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
) -> dict:
    """Miner i's incentive verdict: PASS iff its best response on the
    64-point grid, with the other miners at full capacity, sits within two
    grid cells of its capacity. The objective is the floor under ppss and
    the exact payoff under pps."""
    objective = _default_objective(mechanism)
    capacity = profiles[i].capacity_A
    br = best_response(
        mechanism, i, np.array([p.capacity_A for p in profiles]), params,
        profiles, demand, objective=objective,
    )
    tol = 2.0 * br.grid_resolution
    return {
        "argmax": br.argmax_a,
        "capacity": capacity,
        "tol": tol,
        "passed": abs(br.argmax_a - capacity) <= tol,
        "objective": objective,
    }


def ocdic_check(
    mechanism: str,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
) -> list[dict]:
    """incentive_verdict for every miner under the demand distribution."""
    return [incentive_verdict(mechanism, i, params, profiles, demand) for i in range(len(profiles))]


def docdic_check(
    mechanism: str,
    params: PlatformParams,
    profiles: list[MinerProfile],
    realized_M: float,
) -> list[dict]:
    """Round-level incentive verdict for every miner: the immediate payoff
    conditional on the announced M. No rolling windows enter (see the module
    docstring); best_response(objective="payoff") at a constant demand gives
    the raw ppss payoff at warm windows."""
    demand = DemandModel(family="constant", M=realized_M)
    return ocdic_check(mechanism, params, profiles, demand)


def bb_audit(ledger, bound: float) -> dict:
    """Long-term budget-balance audit of a simulation ledger: the mean
    payout ratio, its 95% CI half-width, and whether 0 <= mean <= bound."""
    ratios = ledger.budget_ratio
    if not len(ratios):
        raise ValueError("ledger is empty")
    mean, ci = exact_mean_ci(ratios)
    return {"mean_ratio": mean, "ci_half_width": ci, "long_term_pass": 0.0 <= mean <= bound}

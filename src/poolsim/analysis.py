"""Expected payoffs, best responses, incentive-compatibility checkers, and
budget-balance audits.

Incentive checks come in two flavors. The raw expected payoff is the
mechanism as implemented: exact under pps (pps_expected_payoff), a Monte
Carlo estimate under ppss. The "floor" objective is the guaranteed-payoff
lower bound a * c~ - C(a), which is the object the subsidy mechanism's
capacity-commitment argument actually maximizes. PPSS incentive verdicts
use the floor objective; the raw MC curve stays available as a diagnostic
(best_response with objective="payoff") because the guarded subsidy
overpays near D = lambda*A*k and its raw best response can sit below
capacity.

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
from scipy import special

from .mechanisms import subsidy_shape
from .model import (
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
    # "closed_form": the floor objective, or the exact pps payoff (ci = 0);
    # "grid_mc": the Monte Carlo ppss payoff
    method: str
    # (a, objective mean, CI half-width) at each grid point, in grid order
    curve: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class BudgetBounds:
    theta: float
    gamma: float

    def __post_init__(self):
        if self.theta > self.gamma:
            raise ValueError("theta must not exceed gamma")


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
    fixed_windows: list[tuple[float, int]] | None = None,
) -> PayoffEstimate:
    """Unbiased MC estimate of miner `miner_index`'s expected payoff.

    PPSS runs fill the rolling window with N-1 rounds at the same strategy
    unless `fixed_windows` pins the history; a constant `demand` pins M.
    Reproducible for any worker count. Every allocation must lie in [0, A_i].
    """
    allocations = _checked_allocations(allocations, profiles)
    samples = payoff_samples(
        mechanism, miner_index, allocations, params, profiles, demand,
        replicas, seed, fixed_windows=fixed_windows,
    )
    mean, ci = exact_mean_ci(samples)
    return PayoffEstimate(mean=mean, ci_half_width=ci)


def _expected_min_gamma(s: float, M):
    """E[min(G, M)] for G ~ Gamma(s, 1): s * P(s+1, M) + M * Q(s, M)."""
    return s * special.gammainc(s + 1.0, M) + M * special.gammaincc(s, M)


def pps_expected_payoff(
    i: int,
    allocations,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
) -> float:
    """Exact pps expected payoff E[R_i] - C(a_i) of miner i.

    With s_i = k*a_i and s = k*sum(a), the share D_i/|D| ~ Beta(s_i, s - s_i)
    is independent of |D| ~ Gamma(s) (Lukacs 1955), so
    E[R_i] = b * (s_i/s) * E[min(|D|, M)], and for a fixed M
    E[min(|D|, M)] = s * P(s+1, M) + M * Q(s, M), P and Q the regularized
    incomplete gamma functions. A constant demand takes one evaluation; any
    other demand is integrated over its quantile with a fixed 64-node
    Gauss-Legendre rule. Every allocation must lie in [0, A_i].
    """
    allocations = _checked_allocations(allocations, profiles)
    cost = cost_eval(profiles[i].cost, float(allocations[i]))
    total = float(allocations.sum())
    if allocations[i] == 0:
        return 0.0 - cost  # +0.0, as the MC's reward - cost
    s = params.k * total
    if demand.family == "constant":
        expected_min = _expected_min_gamma(s, demand.M)
    else:
        expected_min = _GL_W @ _expected_min_gamma(s, demand.ppf(_GL_U))
    return params.b * (float(allocations[i]) / total) * float(expected_min) - cost


def floor_payoff(a: float, c_tilde_value: float, cost: CostFunction) -> float:
    """Guaranteed-payoff lower bound a * c~ - C(a); nondecreasing on [0, A]."""
    return float(a) * float(c_tilde_value) - float(cost_eval(cost, a))


def best_response(
    mechanism: str,
    miner_index: int,
    others_fixed,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
    grid_points: int = 64,
    replicas: int = 10_000,
    seed: int = 0,
    objective: str = "payoff",
    fixed_windows: list[tuple[float, int]] | None = None,
) -> BestResponseResult:
    """Maximize the chosen objective over a uniform grid on [0, A_i], then
    refine with golden-section search on the bracketing interval.

    The pps payoff is exact (pps_expected_payoff), so `replicas` and `seed`
    do not enter it. MC evaluations (the ppss payoff) share the seed across
    grid points (common random numbers), turning the argmax into a paired
    comparison. Ties break toward the larger allocation.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    prof = profiles[miner_index]
    A = prof.capacity_A
    base = np.asarray(others_fixed, dtype=float).copy()

    if objective == "floor":
        ct = c_tilde(prof)

        def f(a: float) -> tuple[float, float]:
            return floor_payoff(a, ct, prof.cost), 0.0

        method = "closed_form"
    elif objective == "payoff" and mechanism == "pps":

        def f(a: float) -> tuple[float, float]:
            alloc = base.copy()
            alloc[miner_index] = a
            return pps_expected_payoff(miner_index, alloc, params, profiles, demand), 0.0

        method = "closed_form"
    elif objective == "payoff":

        def f(a: float) -> tuple[float, float]:
            alloc = base.copy()
            alloc[miner_index] = a
            est = expected_payoff_mc(
                mechanism, miner_index, alloc, params,
                profiles, demand, replicas, seed, fixed_windows=fixed_windows,
            )
            return est.mean, est.ci_half_width

        method = "grid_mc"
    else:
        raise ValueError(f"unknown objective {objective!r}")

    grid = np.linspace(0.0, A, grid_points)
    curve = tuple((float(a), *f(float(a))) for a in grid)
    best_i = 0
    for i in range(1, grid_points):
        if curve[i][1] >= curve[best_i][1]:
            best_i = i
    best_a, best_v = curve[best_i][0], curve[best_i][1]

    # One golden-section refinement pass over the bracketing interval.
    lo = grid[max(best_i - 1, 0)]
    hi = grid[min(best_i + 1, grid_points - 1)]
    resolution = A / (grid_points - 1)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c)[0], f(d)[0]
    for _ in range(16):
        if hi - lo < resolution / 16:
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)[0]
    for a_cand, v_cand in ((c, fc), (d, fd)):
        if v_cand > best_v or (v_cand == best_v and a_cand > best_a):
            best_a, best_v = a_cand, v_cand

    return BestResponseResult(
        argmax_a=float(best_a), value=float(best_v),
        grid_resolution=float(resolution), method=method, curve=curve,
    )


def _default_objective(mechanism: str) -> str:
    # PPSS incentive verdicts target the guaranteed-payoff floor; see the
    # module docstring for why the raw MC argmax is diagnostic only.
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
        "miner": i,
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
    docstring); best_response(objective="payoff", fixed_windows=...) gives
    the raw ppss payoff at pinned windows."""
    demand = DemandModel(family="constant", M=realized_M)
    return ocdic_check(mechanism, params, profiles, demand)


def chernoff_tail_upper(shape_s: float, threshold_t: float) -> tuple[float, float]:
    """Upper bounds on P(Gamma(s, 1) <= t) for t < s.

    Returns (standard, paper): the standard Chernoff bound
    exp(s*ln(t/s) + s - t) = (u*e^(1-u))^s with u = t/s, and its simplified
    one-factor form u*e^(1-u), valid whenever s >= 1 since the base is <= 1.
    """
    if not 0 < threshold_t < shape_s:
        raise ValueError("require 0 < t < s (bound is vacuous otherwise)")
    u = threshold_t / shape_s
    standard = math.exp(shape_s * math.log(u) + shape_s - threshold_t)
    paper = u * math.exp(1.0 - u)
    return standard, paper


def subsidy_prob_lower(a: float, A: float, lam: float) -> float:
    """Lower bound on the subsidy-indicator probability,
    max(0, 1 - (lam*A/a) * e^(1 - lam*A/a)).

    Equals subsidy_shape evaluated at the mean output D = a*k, the identity
    the capacity-commitment argument exploits.
    """
    if not 0 < a <= A:
        raise ValueError("require 0 < a <= A")
    u = lam * A / a
    return max(0.0, 1.0 - u * math.exp(1.0 - u))


def g_function(D: float, c_tilde_value: float, params: PlatformParams, profile: MinerProfile) -> float:
    """Subsidy mass (c~/k - b) * D / K(D), with K floored at eps_k."""
    D_arr = np.asarray(D, dtype=float)
    K = np.maximum(subsidy_shape(D_arr, profile.capacity_A, params), params.eps_k)
    out = (c_tilde_value / params.k - params.b) * D_arr / K
    return out if out.ndim else float(out)


def bb_audit(ledger, bounds: BudgetBounds) -> dict:
    """Budget-balance audit of a simulation ledger.

    Checks the per-round sense (every realized ratio within [theta, gamma])
    and the long-term sense (the mean ratio within the same bounds).
    """
    ratios = ledger.budget_ratio
    if not len(ratios):
        raise ValueError("ledger is empty")
    mean, ci = exact_mean_ci(ratios)
    lo, hi = float(ratios.min()), float(ratios.max())
    return {
        "rounds": len(ratios),
        "ratio_min": lo,
        "ratio_max": hi,
        "mean_ratio": mean,
        "ci_half_width": ci,
        "theta": bounds.theta,
        "gamma": bounds.gamma,
        "per_round_pass": bounds.theta <= lo and hi <= bounds.gamma,
        "long_term_pass": bounds.theta <= mean <= bounds.gamma,
    }


def br_dynamics(
    mechanism: str,
    params: PlatformParams,
    profiles: list[MinerProfile],
    demand: DemandModel,
    max_iters: int = 20,
    start=None,
) -> dict:
    """Synchronous best-response iteration on the incentive verdicts'
    objective (the floor under ppss, the exact payoff under pps).

    Returns the allocation trajectory and the fixed point when successive
    profiles differ by less than 1e-2 in max norm; non-convergence within
    max_iters is reported, not raised.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    objective = _default_objective(mechanism)
    n = len(profiles)
    current = (
        np.asarray(start, dtype=float).copy()
        if start is not None
        else np.zeros(n)
    )
    trajectory = [current.copy()]
    converged = False
    for _ in range(max_iters):
        nxt = np.empty(n)
        for i in range(n):
            nxt[i] = best_response(
                mechanism, i, current, params, profiles, demand, objective=objective,
            ).argmax_a
        trajectory.append(nxt.copy())
        if np.max(np.abs(nxt - current)) < 1e-2:
            current = nxt
            converged = True
            break
        current = nxt
    return {
        "trajectory": trajectory,
        "fixed_point": current.copy() if converged else None,
        "converged": converged,
        "iterations": len(trajectory) - 1,
    }

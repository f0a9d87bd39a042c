"""Analysis that only the tests use: the subsidy mass g(D), synchronous
best-response dynamics, the Chernoff bounds on the gamma lower tail
(chernoff_tail_upper) and the subsidy-indicator probability floor
(subsidy_prob_lower). No command calls any of them, so they live beside the
tests rather than in the package."""
import math

import numpy as np

from poolsim.analysis import _default_objective, best_response
from poolsim.mechanisms import subsidy_shape
from poolsim.model import DemandModel, MinerProfile, PlatformParams


def g_function(D: float, c_tilde_value: float, params: PlatformParams, profile: MinerProfile) -> float:
    """Subsidy mass (c~/k - b) * D / K(D), with K floored at eps_k."""
    D_arr = np.asarray(D, dtype=float)
    K = np.maximum(subsidy_shape(D_arr, profile.capacity_A, params), params.eps_k)
    out = (c_tilde_value / params.k - params.b) * D_arr / K
    return out if out.ndim else float(out)


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

"""Analysis that only the tests use: the subsidy mass g(D) and synchronous
best-response dynamics. No command calls either, so they live beside the
tests rather than in the package."""
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

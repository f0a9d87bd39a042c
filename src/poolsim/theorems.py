"""Numerical audits of the mechanism claims (T1-T7).

Each audit builds the scenario its claim is about on top of the supplied
config's platform economics, runs its check, and returns one report row.
An audit reads cfg.seed only where it draws: T1 and T6 settle a played game
(engine.play, then engine.settle); T2, T3, T4, T5 and T7 are deterministic.
No audit runs the Monte Carlo oracle, so none has a replica count. A
verdict of KNOWN_DISCREPANCY marks a claim that a faithful implementation
measurably violates (tracked, not a harness failure).

T1 settles the game under pps and T6 under ppss. When run_audits runs
both and no miner's policy reads the mechanism (engine.reads_mechanism),
it plays the game once and passes it to both; otherwise each plays its
own. Either way each row is the one the audit gives when run alone.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .analysis import (
    bb_audit,
    docdic_check,
    floor_payoff,
    incentive_verdict,
    ocdic_check,
    payoff_curve,
)
from .engine import play, reads_mechanism, settle
from .model import CostFunction, DemandModel, c_tilde, cost_eval


# T1's tolerance on paid against analytic payout ratios, in units of b/p
T1_PAID_TOL = 1e-12
# T5's tolerance on the margin payoff - floor, in units of its terms' size
# |payoff| + a*c~ + C(a). The true margin shrinks like k**2 while its terms
# shrink like k, so at small output scales it falls below their rounding
# and its computed sign is noise (at k = 1e-50 on verify-audit.yaml it
# reads -4.7e-66, about one ulp of a*c~).
T5_FLOOR_TOL = 1e-12


def _row(theorem, claim, cfg, verdict, metric, bound, ci=0.0):
    return {
        "theorem": theorem,
        "claim": claim,
        "config_digest": cfg.digest(),
        "verdict": verdict,
        "metric": float(metric),
        "bound": float(bound),
        "ci": float(ci),
    }


def _settled(cfg, mechanism, game):
    """cfg's game (`game`, or one played here when it is None) settled under
    `mechanism`."""
    sim_cfg = replace(cfg, mechanism=mechanism)
    return settle(play(sim_cfg) if game is None else game, sim_cfg)


def audit_t1(cfg, game=None) -> dict:
    """Every realized PPS payout ratio lies in [0, b/p], on `game` (a game
    played from cfg) or, when it is None, on a game of its own.

    The ledger's budget_ratio under pps is the analytic (b/p)·(min{|D|,
    M}/M), within [0, b/p] by construction, so T1 also checks what
    pps_reward paid: each round's sum(R_i)/(M·p) must agree with that
    ratio to T1_PAID_TOL·b/p, which covers ulp-level rounding. A reward in
    the subnormal range rounds to a multiple of 2**-1074 before and after
    its min{|D|, M} factor, so the tolerance adds 2**-1074·(1 + 1/M)/p per
    miner. The metric is the analytic maximum."""
    ledger = _settled(cfg, "pps", game)
    ratios, M, p = ledger.budget_ratio, ledger.M, cfg.platform.p
    cap = cfg.platform.b / p
    paid = ledger.rewards.sum(axis=1) / (M * p)
    # 1/M overflows only for a subnormal M, whose rewards are all subnormal:
    # that row's tolerance is inf
    with np.errstate(over="ignore"):
        tol = T1_PAID_TOL * cap + ledger.D.shape[1] * math.ulp(0.0) * (1.0 + 1.0 / M) / p
    ok = (
        ratios.min() >= 0.0 and ratios.max() <= cap
        and bool((np.abs(paid - ratios) <= tol).all())
    )
    return _row(
        "T1", "PPS payout ratio within [0, b/p] every round",
        cfg, "PASS" if ok else "FAIL", ratios.max(), cap,
    )


def audit_t2(cfg) -> dict:
    """PPS best response is capacity when r < b*k and zero when r > b*k.
    Reads miner 0 alone: every miner's cost is set to r = 0.5*b*k, then
    1.5*b*k, and the verdict is miner 0's best response."""
    plat = cfg.platform
    profiles = cfg.profiles
    demand = DemandModel(family="constant", M=3.0 * cfg.supply)
    low, high = (
        incentive_verdict(
            "pps", 0, plat,
            [replace(p, cost=CostFunction(family="linear", r=scale * plat.b * plat.k))
             for p in profiles],
            demand,
        )
        for scale in (0.5, 1.5)
    )
    ok = low["passed"] and abs(high["argmax"]) <= high["tol"]
    return _row(
        "T2", "PPS best response flips between capacity (r<bk) and zero (r>bk)",
        cfg, "PASS" if ok else "FAIL", low["argmax"], low["capacity"],
    )


def audit_t3(cfg) -> dict:
    """PPS incentive verdict flips where the marginal cost at capacity
    crosses b*k. Reads miner 0 alone: every miner's power cost is scaled by
    miner 0's A, so that miner 0's C'(A) crosses b*k at scale 1, and the
    verdict at each scale is miner 0's."""
    plat = cfg.platform
    base = cfg.profiles
    A = base[0].capacity_A
    demand = DemandModel(family="constant", M=3.0 * cfg.supply)
    cells = 11
    scales = np.linspace(0.8, 1.2, cells)
    passes = []
    for s in scales:
        c = s * plat.b * plat.k / (2.0 * A)  # power cost q=2: C'(A) = 2cA
        profs = [replace(p, cost=CostFunction(family="power", c=c, q=2.0)) for p in base]
        # the other miners' verdicts do not enter T3
        passes.append(incentive_verdict("pps", 0, plat, profs, demand)["passed"])
    flips = [i for i in range(1, cells) if passes[i] != passes[i - 1]]
    crossing = float(np.argmin(np.abs(scales - 1.0)))
    ok = (
        len(flips) == 1
        and passes[0] and not passes[-1]
        and abs(flips[0] - crossing) <= 1.0
    )
    metric = scales[flips[0]] if flips else float("nan")
    return _row(
        "T3", "PPS incentive verdict flips where marginal cost at capacity crosses b*k",
        cfg, "PASS" if ok else "FAIL", metric, 1.0,
    )


def audit_t4(cfg) -> dict:
    """PPS admits a round with an interior immediate best response when
    demand falls short of supply (not round-by-round incentive compatible)."""
    plat = cfg.platform
    profiles = cfg.profiles
    verdicts = docdic_check("pps", plat, profiles, realized_M=0.2 * cfg.supply)
    interior = [v for v in verdicts if not v["passed"]]
    ok = bool(interior)
    metric = min(v["argmax"] / v["capacity"] for v in verdicts)
    return _row(
        "T4", "PPS immediate best response is interior under a demand shortfall",
        cfg, "PASS" if ok else "FAIL", metric, 1.0,
    )


def audit_t5(cfg) -> dict:
    """Subsidized mechanism: miner 0's exact payoff dominates its guaranteed
    floor a*c~ - C(a) on a 16-point grid, and the floor best response is
    capacity for every miner. Both checks read the config; the metric is
    miner 0's least margin of payoff over floor, since the dominance grid
    reads miner 0 alone.

    Each margin may fall below 0 by T5_FLOOR_TOL times the size of its
    terms plus 2**-1074 per term, the rounding of subnormal terms."""
    plat = cfg.platform
    profiles = cfg.profiles
    capacities = np.array([p.capacity_A for p in profiles])
    demand = cfg.demand
    prof = profiles[0]
    ct = c_tilde(prof)

    # Floor soundness on a 16-point allocation grid over (lam*A, A]: the
    # floor's derivation needs a > lam*A (at or below it the bound is
    # vacuous, and at huge shapes whether the indicator fires at lam*A is a
    # matter of rounding), integrated in one pass.
    grid = np.linspace(plat.lam * prof.capacity_A, prof.capacity_A, 17)[1:]
    payoffs = payoff_curve("ppss", 0, capacities, grid, plat, profiles, demand)
    margins = payoffs - floor_payoff(grid, ct, prof.cost)
    # each term is scaled before the sum, which then cannot overflow
    terms = (payoffs, grid * ct, cost_eval(prof.cost, grid))
    tol = sum(T5_FLOOR_TOL * np.abs(t) + math.ulp(0.0) for t in terms)
    floor_ok = bool((margins >= -tol).all())

    verdicts = ocdic_check("ppss", plat, profiles, demand)
    br_ok = all(v["passed"] for v in verdicts)

    ok = floor_ok and br_ok
    return _row(
        "T5", "PPSS payoff dominates the floor a*c~-C(a) and the floor argmax is capacity",
        cfg, "PASS" if ok else "FAIL", margins.min(), 0.0,
    )


def audit_t6(cfg, game=None) -> dict:
    """Long-term PPSS payout ratio against the claimed bound
    sum(c~_i * A_i) / (mu_F * p), on `game` (a game played from cfg) or,
    when it is None, on a game of its own."""
    plat = cfg.platform
    profiles = cfg.profiles
    ledger = _settled(cfg, "ppss", game)
    bound = sum(c_tilde(p) * p.capacity_A for p in profiles) / (cfg.demand.mu_F * plat.p)
    report = bb_audit(ledger, bound)
    verdict = "PASS" if report["long_term_pass"] else "KNOWN_DISCREPANCY"
    return _row(
        "T6", "PPSS long-term payout ratio within [0, sum(c~A)/(mu_F*p)]",
        cfg, verdict, report["mean_ratio"], bound, report["ci_half_width"],
    )


def audit_t7(cfg) -> dict:
    """Round-level capacity commitment for PPSS with warm windows.

    Warm windows (N-1 rounds at capacity) are the premise of the floor
    argument, not an input: the floor objective the verdict maximises reads
    neither the windows nor the announced M."""
    verdicts = docdic_check("ppss", cfg.platform, cfg.profiles, realized_M=cfg.demand.mu_F)
    ok = all(v["passed"] for v in verdicts)
    metric = min(v["argmax"] / v["capacity"] for v in verdicts)
    return _row(
        "T7", "PPSS round-level floor best response is capacity (warm windows)",
        cfg, "PASS" if ok else "FAIL", metric, 1.0,
    )


AUDITS = {
    "T1": audit_t1,
    "T2": audit_t2,
    "T3": audit_t3,
    "T4": audit_t4,
    "T5": audit_t5,
    "T6": audit_t6,
    "T7": audit_t7,
}
# The theorem names, in report order; run_audits looks each audit up in
# AUDITS when it runs.
ALL_THEOREMS = tuple(AUDITS)


def check_theorems(theorems):
    """Raise ValueError where the list `theorems` names one outside T1-T7,
    or one twice: each audit runs once and has one row."""
    unknown = [t for t in theorems if t not in ALL_THEOREMS]
    if unknown:
        raise ValueError(f"unknown theorem(s): {', '.join(unknown)}")
    repeated = sorted({t for t in theorems if theorems.count(t) > 1})
    if repeated:
        raise ValueError(f"theorem(s) named more than once: {', '.join(repeated)}")


def run_audits(cfg, theorems=None):
    """One report row per theorem, all of T1-T7 by default; the names must
    pass check_theorems. To audit another seed, pass
    dataclasses.replace(cfg, seed=...): the rows' config_digest then names
    the config that ran. When both T1 and T6 run and no policy reads the
    mechanism, the game is played once and both settle it; nothing is kept
    between calls."""
    theorems = list(ALL_THEOREMS if theorems is None else theorems)
    check_theorems(theorems)
    game = play(cfg) if {"T1", "T6"} <= set(theorems) and not reads_mechanism(cfg) else None
    return [AUDITS[t](cfg, game) if t in ("T1", "T6") else AUDITS[t](cfg) for t in theorems]

"""Numerical audits of the mechanism claims (T1-T7).

Each audit builds the scenario its claim is about on top of the supplied
config's platform economics, runs its check, and returns one report row.
An audit reads cfg.seed only where it draws: T1 and T6 settle a played game
(engine.play, then engine.settle); T2, T3, T4, T5 and T7 are deterministic.
No audit runs the Monte Carlo oracle, so none has a replica count. A
verdict of KNOWN_DISCREPANCY marks a claim that a faithful implementation
measurably violates (tracked, not a harness failure).

T1 settles the game under pps and T6 under ppss. Within one run_audits
call they settle the same played game when no miner's policy reads the
mechanism (engine.reads_mechanism); otherwise each plays its own. Either
way each row is the one the audit gives when run alone.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .analysis import (
    BudgetBounds,
    bb_audit,
    chernoff_tail_upper,
    docdic_check,
    floor_payoff,
    incentive_verdict,
    ocdic_check,
    payoff_curve,
    subsidy_prob_lower,
)
from .engine import play, reads_mechanism, settle
from .mechanisms import subsidy_shape
from .model import CostFunction, DemandModel, c_tilde


# T1's tolerance on paid against analytic payout ratios, in units of b/p
T1_PAID_TOL = 1e-12


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


def audit_t1(cfg, play=play) -> dict:
    """Every realized PPS payout ratio lies in [0, b/p]. `play` plays the
    game it settles (run_audits passes one that shares it with T6).

    The ledger's budget_ratio under pps is the analytic (b/p)·(min{|D|,
    M}/M), within [0, b/p] by construction, so T1 also checks what
    pps_reward paid: each round's sum(R_i)/(M·p) must agree with that
    ratio to T1_PAID_TOL·b/p, which covers ulp-level rounding. A reward in
    the subnormal range rounds to a multiple of 2**-1074 before and after
    its min{|D|, M} factor, so the tolerance adds 2**-1074·(1 + 1/M)/p per
    miner. The metric is the analytic maximum."""
    sim_cfg = replace(cfg, mechanism="pps")
    ledger = settle(play(sim_cfg), sim_cfg)
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
    """PPS best response is capacity when r < b*k and zero when r > b*k."""
    plat = cfg.platform
    profiles = cfg.profiles
    total_A = sum(p.capacity_A for p in profiles)
    demand = DemandModel(family="constant", M=3.0 * plat.k * total_A)
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
    crosses b*k."""
    plat = cfg.platform
    base = cfg.profiles
    A = base[0].capacity_A
    total_A = sum(p.capacity_A for p in base)
    demand = DemandModel(family="constant", M=3.0 * plat.k * total_A)
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
    total_A = sum(p.capacity_A for p in profiles)
    low_M = 0.2 * plat.k * total_A
    verdicts = docdic_check("pps", plat, profiles, realized_M=low_M)
    interior = [v for v in verdicts if not v["passed"]]
    ok = bool(interior)
    metric = min(v["argmax"] / v["capacity"] for v in verdicts)
    return _row(
        "T4", "PPS immediate best response is interior under a demand shortfall",
        cfg, "PASS" if ok else "FAIL", metric, 1.0,
    )


def audit_t5(cfg) -> dict:
    """Subsidized mechanism: the exact payoff dominates the guaranteed floor,
    the floor best response is capacity, and the tail/identity bounds hold."""
    from scipy import special

    plat = cfg.platform
    profiles = cfg.profiles
    capacities = np.array([p.capacity_A for p in profiles])
    demand = cfg.demand
    prof = profiles[0]
    ct = c_tilde(prof)

    # Floor soundness on a 16-point allocation grid over [lam*A, A]: the
    # floor's derivation needs a > lam*A (below that the subsidy indicator
    # is essentially never on and the bound is vacuous), integrated in one
    # pass.
    grid = np.linspace(plat.lam * prof.capacity_A, prof.capacity_A, 16)
    payoffs = payoff_curve("ppss", 0, capacities, grid, plat, profiles, demand)
    margins = (payoffs - floor_payoff(grid, ct, prof.cost)).tolist()
    floor_ok = all(m >= 0 for m in margins)

    verdicts = ocdic_check("ppss", plat, profiles, demand)
    br_ok = all(v["passed"] for v in verdicts)

    # Chernoff validity against the exact lower tail, on a fixed (s, t/s) grid
    chern_ok = True
    for s in np.linspace(2.0, 400.0, 5):
        for t in s * np.linspace(0.3, 0.95, 4):
            std_b, paper_b = chernoff_tail_upper(s, t)
            exact = special.gammainc(s, t)
            chern_ok &= exact <= std_b + 1e-12 and exact <= paper_b + 1e-12

    # identity: indicator probability bound == subsidy shape at the mean
    ident_ok = True
    for a in np.linspace(0.5 * prof.capacity_A, prof.capacity_A, 8):
        lhs = subsidy_prob_lower(a, prof.capacity_A, plat.lam)
        rhs = max(0.0, float(subsidy_shape(a * plat.k, prof.capacity_A, plat)))
        ident_ok &= abs(lhs - rhs) <= 1e-12

    ok = floor_ok and br_ok and chern_ok and ident_ok
    return _row(
        "T5", "PPSS payoff dominates the floor a*c~-C(a) and the floor argmax is capacity",
        cfg, "PASS" if ok else "FAIL", min(margins), 0.0,
    )


def audit_t6(cfg, play=play) -> dict:
    """Long-term PPSS payout ratio against the claimed bound
    sum(c~_i * A_i) / (mu_F * p). `play` plays the game it settles (run_audits
    passes one that shares it with T1)."""
    plat = cfg.platform
    profiles = cfg.profiles
    sim_cfg = replace(cfg, mechanism="ppss")
    ledger = settle(play(sim_cfg), sim_cfg)
    bound = sum(c_tilde(p) * p.capacity_A for p in profiles) / (cfg.demand.mu_F * plat.p)
    report = bb_audit(ledger, BudgetBounds(theta=0.0, gamma=bound))
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
# The audits that settle a played game; run_audits passes them its `play`.
PLAYING = ("T1", "T6")


def _shared_play():
    """engine.play, except that configs whose games cannot differ get one
    game: without a policy that reads the mechanism, the game is the same
    under every mechanism, so it is keyed on the config less its mechanism.
    The memo lives as long as the returned function."""
    games = {}

    def shared(cfg):
        if reads_mechanism(cfg):
            return play(cfg)
        key = replace(cfg, mechanism="pps")  # any one mechanism
        if key not in games:
            games[key] = play(cfg)
        return games[key]

    return shared


def run_audits(cfg, theorems=None):
    """One report row per theorem, all of T1-T7 by default. To audit another
    seed, pass dataclasses.replace(cfg, seed=...): the rows' config_digest
    then names the config that ran. T1 and T6 share one played game for the
    length of the call (_shared_play); nothing is kept between calls."""
    theorems = list(ALL_THEOREMS if theorems is None else theorems)
    unknown = [t for t in theorems if t not in ALL_THEOREMS]
    if unknown:
        raise ValueError(f"unknown theorem(s): {', '.join(unknown)}")
    shared = _shared_play()
    return [
        AUDITS[t](cfg, play=shared) if t in PLAYING else AUDITS[t](cfg)
        for t in theorems
    ]

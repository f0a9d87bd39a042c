"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the measured
quantities before asserting, so the verdicts survive in the captured output.
"""
import csv
import math
import os
import time

import numpy as np
import yaml

from poolsim.analysis import (
    best_response,
    chernoff_tail_upper,
    docdic_check,
    expected_payoff_mc,
    floor_payoff,
    g_function,
    ocdic_check,
)
from poolsim.cli import main
from poolsim.engine import run_simulation
from poolsim.model import (
    CostFunction,
    DemandModel,
    MinerProfile,
    PlatformParams,
)
from poolsim.theorems import run_audits
from scipy import special

from conftest import quiet_parse


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def subsidized_config(**overrides):
    """Single subsidized miner: A=1, k=100, lambda=0.8, b=p=1, linear cost 150."""
    data = {
        "mechanism": "ppss",
        "platform": {"p": 1.0, "b": 1.0, "k": 100.0, "lambda": 0.8, "N": 10,
                     "eps_k": 1e-3},
        "miners": [{"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}}],
        "demand": {"family": "constant", "M": 300.0},
        "rounds": 10_000,
        "replicas": 100_000,
        "seed": 0,
    }
    data.update(overrides)
    return quiet_parse(data)


def test_criterion_1_per_round_budget_balance():
    # >= 1e5 PPS rounds over 10 randomized configs, zero ratio violations
    rng = np.random.default_rng(2718)
    t0 = time.time()
    total_rounds = 0
    worst_excess = -math.inf
    for trial in range(10):
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.5, 2.0))
        k = float(rng.uniform(0.5, 5.0))
        caps = rng.uniform(0.5, 5.0, n)
        supply = k * float(caps.sum())
        demand_choices = [
            {"family": "constant", "M": float(rng.uniform(0.3, 3.0)) * supply},
            {"family": "uniform", "lo": 0.2 * supply, "hi": 2.0 * supply},
            {"family": "gamma", "shape": 4.0, "rate": 4.0 / supply},
        ]
        miners = []
        for i in range(n):
            miner = {"capacity_A": float(caps[i]),
                     "cost": {"family": "linear", "r": float(rng.uniform(0.1, 3.0))}}
            if i % 2 == 1:
                miner["policy"] = {"kind": "delta_adaptive", "step": 0.5, "floor": 0.0}
            miners.append(miner)
        cfg = quiet_parse({
            "mechanism": "pps",
            "platform": {"p": p, "b": b, "k": k},
            "miners": miners,
            "demand": demand_choices[trial % 3],
            "rounds": 10_000,
            "seed": 1000 + trial,
        })
        ledger = run_simulation(cfg)
        total_rounds += ledger.rounds
        cap = b / p
        worst_excess = max(worst_excess, float(-ledger.budget_ratio.min()),
                           float(ledger.budget_ratio.max() - cap))
    elapsed = time.time() - t0
    ok = total_rounds >= 100_000 and worst_excess <= 0.0 and elapsed < 30.0
    report(1, ok, f"{total_rounds} rounds, worst bound excess {worst_excess:.3g}, "
                  f"{elapsed:.1f}s (< 30s)")


def test_criterion_2_best_response_branches():
    params = PlatformParams(p=1.0, b=1.0, k=2.0)
    demand = DemandModel(family="constant", M=3.0 * 2.0 * 10.0)
    t0 = time.time()
    results = {}
    for label, r in (("cheap", 0.5 * 2.0), ("dear", 1.5 * 2.0)):
        profs = [MinerProfile(id=0, capacity_A=10.0,
                              cost=CostFunction(family="linear", r=r))]
        results[label] = best_response(
            "pps", 0, np.array([10.0]), params, profs, demand,
            grid_points=64, replicas=10_000, seed=0,
        )
    elapsed = time.time() - t0
    tol = 2 * 10.0 / 63
    ok = (abs(results["cheap"].argmax_a - 10.0) <= tol
          and abs(results["dear"].argmax_a) <= tol
          and elapsed < 60.0)
    report(2, ok, f"argmax cheap={results['cheap'].argmax_a:.3f} (want 10), "
                  f"dear={results['dear'].argmax_a:.3f} (want 0), {elapsed:.1f}s (< 60s)")


def test_criterion_3_marginal_cost_threshold():
    # ocdic verdict flips within one sweep cell of C'(A) = b*k
    params = PlatformParams(p=1.0, b=1.0, k=2.0)
    demand = DemandModel(family="constant", M=50.0)
    scales = np.linspace(0.8, 1.2, 11)
    passes = []
    for s in scales:
        c = s * 1.0 * 2.0 / 2.0  # power q=2, A=1: C'(A) = 2c = s*b*k
        profs = [MinerProfile(id=0, capacity_A=1.0,
                              cost=CostFunction(family="power", c=float(c), q=2.0))]
        verdicts = ocdic_check("pps", params, profs, demand, replicas=8000, seed=0)
        passes.append(verdicts[0]["passed"])
    flips = [i for i in range(1, len(scales)) if passes[i] != passes[i - 1]]
    cell = scales[1] - scales[0]
    ok = (len(flips) == 1 and passes[0] and not passes[-1]
          and abs(scales[flips[0]] - 1.0) <= cell + 1e-12)
    flip_at = scales[flips[0]] if flips else float("nan")
    report(3, ok, f"verdict flips at scale {flip_at:.2f} "
                  f"(want 1.00 +- {cell:.2f}), pattern {passes}")


def test_criterion_4_shortfall_counterexample_and_exploitation():
    params = PlatformParams(p=1.0, b=1.0, k=10.0)
    profs = [
        MinerProfile(id=i, capacity_A=1.0, cost=CostFunction(family="linear", r=1.0))
        for i in range(2)
    ]
    verdicts = docdic_check("pps", params, profs, realized_M=2.0, windows=None,
                            replicas=20_000, seed=0)
    argmaxes = [v["argmax"] for v in verdicts]
    interior_ok = all(0.35 <= a <= 0.50 for a in argmaxes)

    def mean_payoff(policy0, seed):
        cfg = quiet_parse({
            "mechanism": "pps",
            "platform": {"p": 1.0, "k": 10.0},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0},
                 "policy": policy0},
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0}},
            ],
            "demand": {"family": "constant", "M": 2.0},
            "rounds": 200, "seed": seed,
        })
        ledger = run_simulation(cfg)
        return math.fsum((ledger.rewards[:, 0] - ledger.a[:, 0]).tolist()) / 200

    adaptive = {"kind": "delta_adaptive", "step": 0.5, "floor": 0.05}
    static = {"kind": "static", "a": 1.0}
    pairs = [(mean_payoff(adaptive, s), mean_payoff(static, s)) for s in range(5)]
    beats = all(a >= b for a, b in pairs)
    ok = interior_ok and beats
    report(4, ok, f"interior argmax {[f'{a:.3f}' for a in argmaxes]} "
                  f"(want [0.35, 0.50], oracle 0.414); adaptive beats Static(A) "
                  f"on {sum(a >= b for a, b in pairs)}/5 paired seeds")


def test_criterion_5_subsidy_shape_curve(tmp_out):
    t0 = time.time()
    code = main(["fig1", "--out", tmp_out])
    elapsed = time.time() - t0
    with open(os.path.join(tmp_out, "fig1.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ks = [float(r[1]) for r in rows]
    increasing = all(b > a for a, b in zip(ks, ks[1:]))
    err_lo = abs(ks[0] - 0.6454298932405316)
    err_hi = abs(ks[-1] - 0.9927049442755639)
    ok = (code == 0 and len(rows) == 301 and increasing
          and err_lo <= 1e-6 and err_hi <= 1e-6 and elapsed < 1.0)
    report(5, ok, f"endpoints K(20)={ks[0]:.6f}, K(50)={ks[-1]:.6f} "
                  f"(errors {err_lo:.1e}, {err_hi:.1e} <= 1e-6), "
                  f"strictly increasing={increasing}, {elapsed:.2f}s (< 1s)")


def test_criterion_6_floor_and_capacity_commitment():
    cfg = subsidized_config()
    plat, profs, demand = cfg.platform, cfg.profiles, cfg.demand
    t0 = time.time()

    est = expected_payoff_mc(
        "ppss", 0, [1.0], plat, profs, demand,
        replicas=100_000, seed=0,
    )
    floor_at_A = floor_payoff(1.0, 150.0, profs[0].cost)  # = 0 for linear cost
    floor_ok = est.mean > floor_at_A + 3 * est.ci_half_width

    verdicts = ocdic_check("ppss", plat, profs, demand, replicas=10_000, seed=0)
    br_ok = verdicts[0]["passed"]

    chern_ok = True
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = float(rng.uniform(1.0, 500.0))
        t = float(rng.uniform(0.05, 0.98)) * s
        std, paper = chernoff_tail_upper(s, t)
        exact = float(special.gammainc(s, t))
        chern_ok &= exact <= std + 1e-12 and exact <= paper + 1e-12

    # Jensen on the convex stretch of the subsidy mass: E[g(D)] >= g(E[D])
    draws = np.random.default_rng(4).standard_gamma(100.0, size=100_000)
    region = draws[(draws >= 1.05 * 80.0) & (draws <= 500.0)]
    g_mean = math.fsum(g_function(region, 150.0, plat, profs[0]).tolist()) / len(region)
    jensen_ok = g_mean >= float(g_function(float(region.mean()), 150.0, plat, profs[0]))

    elapsed = time.time() - t0
    ok = floor_ok and br_ok and chern_ok and jensen_ok and elapsed < 120.0
    report(6, ok, f"payoff at A = {est.mean:.1f} +- {est.ci_half_width:.1f} > floor 0; "
                  f"argmax {verdicts[0]['argmax']:.3f} (want 1.0); "
                  f"chernoff={chern_ok}, jensen={jensen_ok}, {elapsed:.1f}s (< 120s)")


def test_criterion_7_long_term_ratio_audit():
    # (a) high-productivity config: measured ratio exceeds the claimed bound
    row_a = run_audits(subsidized_config(), ["T6"])[0]
    part_a = row_a["verdict"] == "KNOWN_DISCREPANCY" and row_a["metric"] > row_a["bound"]

    # (b) k=1, lambda=0.2, marginal cost 1.2*b*k: verdict is measured, not
    # prescribed; it must be stable for a fixed seed and carry a CI
    cfg_b = subsidized_config(
        platform={"p": 1.0, "b": 1.0, "k": 1.0, "lambda": 0.2, "N": 10},
        miners=[{"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.2}}],
        demand={"family": "constant", "M": 3.0},
    )
    row_b1 = run_audits(cfg_b, ["T6"])[0]
    row_b2 = run_audits(cfg_b, ["T6"])[0]
    part_b = (row_b1 == row_b2
              and row_b1["verdict"] in ("PASS", "KNOWN_DISCREPANCY")
              and row_b1["ci"] > 0.0)
    ok = part_a and part_b
    report(7, ok, f"(a) ratio {row_a['metric']:.2f} > bound {row_a['bound']:.2f}, "
                  f"verdict {row_a['verdict']}; (b) stable verdict {row_b1['verdict']} "
                  f"with ratio {row_b1['metric']:.4f} +- {row_b1['ci']:.4f} "
                  f"vs bound {row_b1['bound']:.4f}")


def test_criterion_8_round_level_commitment_across_seeds():
    cfg = subsidized_config(replicas=4000)
    outcomes = []
    for seed in range(5):
        row = run_audits(cfg, ["T7"], seed=seed)[0]
        outcomes.append(row["verdict"] == "PASS")
    ok = all(outcomes)
    report(8, ok, f"argmax within 2 grid cells of capacity on "
                  f"{sum(outcomes)}/5 seeds")


def test_criterion_9_deterministic_infrastructure(tmp_path):
    config = {
        "mechanism": "pps",
        "platform": {"p": 1.0, "k": 2.0},
        "miners": [
            {"capacity_A": 2.0, "cost": {"family": "linear", "r": 0.5},
             "policy": {"kind": "myopic_br", "grid": 16, "replicas": 2048}},
            {"capacity_A": 3.0, "cost": {"family": "linear", "r": 0.5}},
        ],
        "demand": {"family": "uniform", "lo": 15.0, "hi": 30.0},
        "rounds": 20,
        "seed": 6,
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(config))

    old = os.environ.get("POOLSIM_WORKERS")
    ledgers = {}
    try:
        for workers in (1, 2, 8):
            os.environ["POOLSIM_WORKERS"] = str(workers)
            out = tmp_path / f"out_w{workers}"
            out.mkdir()
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            ledgers[workers] = (out / "ledger.csv").read_bytes()
    finally:
        if old is None:
            os.environ.pop("POOLSIM_WORKERS", None)
        else:
            os.environ["POOLSIM_WORKERS"] = old
    byte_identical = ledgers[1] == ledgers[2] == ledgers[8]

    # ledger CSV round-trips to the exact in-memory floats
    cfg = quiet_parse(config)
    ledger = run_simulation(cfg)
    rows = list(csv.reader(ledgers[1].decode().splitlines()))[1:]
    roundtrip = True
    for j, row in enumerate(rows):
        vals = [float(v) for v in row]
        expect = [j + 1, ledger.M[j]]
        for i in range(2):
            expect += [ledger.a[j, i], ledger.D[j, i],
                       ledger.rewards[j, i], ledger.flags[j, i]]
        expect += [ledger.delta[j], ledger.budget_ratio[j]]
        roundtrip &= vals == [float(v) for v in expect]
    roundtrip &= len(rows) == ledger.rounds

    # config round-trips through its serialized form
    from poolsim.config import dump_config

    cfg_again = quiet_parse(yaml.safe_load(dump_config(cfg)))
    config_roundtrip = cfg_again == cfg

    ok = byte_identical and roundtrip and config_roundtrip
    report(9, ok, f"ledgers byte-identical across 1/2/8 workers={byte_identical}, "
                  f"ledger float round-trip={roundtrip}, "
                  f"config round-trip={config_roundtrip}")

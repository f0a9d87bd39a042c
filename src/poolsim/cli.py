"""poolsim command line: simulate | verify | best-response | sweep | fig1."""
from __future__ import annotations

import argparse
import copy
import itertools
import os
import sys

import numpy as np

from .analysis import _default_objective, best_response, ocdic_check
from .config import ConfigError, parse_config, read_yaml
from .csvio import ledger_header, ledger_rows, write_csv
from .engine import run_simulation
from .mechanisms import subsidy_shape
from .model import MAX_GRID, PlatformParams, cost_eval
from .montecarlo import exact_mean
from .svgplot import line_plot_svg, write_svg
from .theorems import ALL_THEOREMS, run_audits

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_AUDIT_FAIL = 3


def _parse(data, args):
    """parse_config on `data` with the --seed override applied first, so
    that it passes the same validation as the file's value."""
    if isinstance(data, dict) and args.seed is not None:
        data = {**data, "seed": args.seed}
    return parse_config(data)


def cmd_simulate(args) -> int:
    cfg = _parse(read_yaml(args.config), args)
    ledger = run_simulation(cfg)
    n = len(cfg.profiles)
    write_csv(os.path.join(args.out, "ledger.csv"), ledger_header(n), ledger_rows(ledger))

    mean_ratio = exact_mean(ledger.budget_ratio)
    summary_rows = []
    for i, profile in enumerate(cfg.profiles):
        rewards = ledger.rewards[:, i]
        payoff = exact_mean(rewards - cost_eval(profile.cost, ledger.a[:, i]))
        summary_rows.append([
            i, exact_mean(rewards), payoff, exact_mean(ledger.flags[:, i]), mean_ratio,
        ])
    write_csv(
        os.path.join(args.out, "summary.csv"),
        ["miner", "mean_reward", "mean_payoff", "subsidy_frequency", "mean_budget_ratio"],
        summary_rows,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _parse(read_yaml(args.config), args)
    names = ALL_THEOREMS if args.theorems is None else args.theorems.split(",")
    theorems = [t.strip().upper() for t in names if t.strip()]
    if not theorems:
        print(f"error: --theorems {args.theorems!r} names no theorem", file=sys.stderr)
        return EXIT_CONFIG
    unknown = [t for t in theorems if t not in ALL_THEOREMS]
    if unknown:
        print(f"error: unknown theorem(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG
    rows = run_audits(cfg, theorems)
    write_csv(
        os.path.join(args.out, "theorem_report.csv"),
        ["theorem", "claim", "config_digest", "verdict", "metric", "bound", "ci"],
        [[r["theorem"], r["claim"], r["config_digest"], r["verdict"],
          r["metric"], r["bound"], r["ci"]] for r in rows],
    )
    for r in rows:
        print(f"{r['theorem']}: {r['verdict']} (metric={r['metric']:g}, bound={r['bound']:g})")
    failed = any(r["verdict"] == "FAIL" for r in rows)
    return EXIT_AUDIT_FAIL if failed else EXIT_OK


def cmd_best_response(args) -> int:
    cfg = _parse(read_yaml(args.config), args)
    profiles = cfg.profiles
    if not 0 <= args.miner < len(profiles):
        print(f"error: miner index {args.miner} out of range", file=sys.stderr)
        return EXIT_CONFIG
    if not 2 <= args.grid <= MAX_GRID:
        print(f"error: --grid must lie in [2, {MAX_GRID}], got {args.grid}", file=sys.stderr)
        return EXIT_CONFIG
    capacities = np.array([p.capacity_A for p in profiles])
    result = best_response(
        cfg.mechanism, args.miner, capacities, cfg.platform, profiles,
        cfg.demand, grid_points=args.grid,
        objective=args.objective or _default_objective(cfg.mechanism),
    )
    write_csv(
        os.path.join(args.out, "br_curve.csv"),
        ["a", "payoff_mean"],
        result.curve,
    )
    print(
        f"argmax a={result.argmax_a:.17g} value={result.value:.17g} "
        f"resolution={result.grid_resolution:.17g} method={result.method}"
    )
    return EXIT_OK


def _set_path(data: dict, dotted: str, value) -> bool:
    node = data
    parts = dotted.split(".")
    for part in parts[:-1]:
        if isinstance(node, list):
            if not part.isdigit() or int(part) >= len(node):
                return False
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return False
    last = parts[-1]
    if isinstance(node, list):
        if not last.isdigit() or int(last) >= len(node):
            return False
        node[int(last)] = value
    elif isinstance(node, dict) and last in node:
        node[last] = value
    else:
        return False
    return True


def cmd_sweep(args) -> int:
    if not args.axis or len(args.axis) > 2:
        print("error: provide one or two --axis specs", file=sys.stderr)
        return EXIT_CONFIG
    axes = []
    for spec in args.axis:
        try:
            path, rng = spec.split("=", 1)
            lo, hi, count = rng.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            print(f"error: bad axis spec {spec!r} (want field=lo:hi:count)", file=sys.stderr)
            return EXIT_CONFIG
        if not 1 <= count <= MAX_GRID:
            print(f"error: axis count must lie in [1, {MAX_GRID}] in {spec!r}", file=sys.stderr)
            return EXIT_CONFIG
        axes.append((path, np.linspace(lo, hi, count)))
    base = read_yaml(args.config)

    rows = []
    n_miners = None
    for cell in itertools.product(*(grid for _, grid in axes)):
        data = copy.deepcopy(base)
        for (path, _), v in zip(axes, cell):
            if not _set_path(data, path, float(v)):
                print(f"error: unknown axis field {path!r}", file=sys.stderr)
                return EXIT_CONFIG
        cfg = _parse(data, args)
        n_miners = len(cfg.profiles)
        verdicts = ocdic_check(cfg.mechanism, cfg.platform, cfg.profiles, cfg.demand)
        mean_ratio = exact_mean(run_simulation(cfg).budget_ratio)
        row = list(cell)
        for v in verdicts:
            row += [int(v["passed"]), v["argmax"]]
        row.append(mean_ratio)
        rows.append(row)

    header = [path for path, _ in axes]
    for i in range(1, n_miners + 1):
        header += [f"ocdic_pass_{i}", f"argmax_{i}"]
    header.append("mean_budget_ratio")
    write_csv(os.path.join(args.out, "sweep.csv"), header, rows)
    return EXIT_OK


def cmd_fig1(args) -> int:
    # subsidy shape vs capacity at k=2, lambda=0.8, D=10
    A = np.linspace(20.0, 50.0, 301)
    K = subsidy_shape(10.0, A, PlatformParams(p=1.0, b=1.0, k=2.0, lam=0.8))
    write_csv(os.path.join(args.out, "fig1.csv"), ["A", "K"], zip(A, K))
    svg = line_plot_svg(
        A, K,
        xlabel="total computing power A",
        ylabel="subsidy shape K",
        title="Subsidy shape vs capacity (k=2, lambda=0.8, D=10)",
    )
    write_svg(os.path.join(args.out, "fig1.svg"), svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolsim",
        description="Simulate and audit pay-per-share reward mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("simulate", help="run the round loop, emit ledger.csv/summary.csv")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run theorem audits, emit theorem_report.csv")
    common(p)
    p.add_argument("--theorems", default=None, help="comma list, e.g. T1,T5")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("best-response", help="best-response curve for one miner")
    common(p)
    p.add_argument("--miner", type=int, required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--objective", choices=["payoff", "floor"], default=None)
    p.set_defaults(func=cmd_best_response)

    p = sub.add_parser("sweep", help="1-2 axis parameter sweep, emit sweep.csv")
    common(p)
    p.add_argument("--axis", action="append", default=[], help="field=lo:hi:count")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fig1", help="subsidy-shape curve, emit fig1.csv and fig1.svg")
    # no config, so no --seed to override
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fig1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        if args.command != "fig1" and getattr(args, "config", None) == getattr(e, "filename", None):
            print(f"error: config file not found: {e.filename}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

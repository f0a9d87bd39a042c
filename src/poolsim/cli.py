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
from .theorems import ALL_THEOREMS, check_theorems, run_audits

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_AUDIT_FAIL = 3


def _parse(data, args, warned=None):
    """parse_config on `data` with the --seed override applied first, so
    that it passes the same validation as the file's value. Warns on stderr
    where mean demand falls below the full supply, unless the set `warned`
    (a caller's, across configs) holds the warning."""
    if isinstance(data, dict) and args.seed is not None:
        data = {**data, "seed": args.seed}
    cfg = parse_config(data)
    warning = (f"warning: mean demand mu_F={cfg.demand.mu_F:g} is below full supply k*sum(A)="
               f"{cfg.supply:g}; the demand-dominant assumption of the incentive results does not hold")
    warned = set() if warned is None else warned
    if cfg.demand.mu_F < cfg.supply and warning not in warned:
        warned.add(warning)
        print(warning, file=sys.stderr)
    return cfg


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
    try:
        check_theorems(theorems)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
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


def _key_path(data, dotted: str) -> tuple | None:
    """The keys a dotted path walks in `data`, each part an ASCII decimal
    index within a list or a key a dict holds; None where the path names no
    existing field."""
    keys, node = (), data
    for part in dotted.split("."):
        if isinstance(node, list) and part.isascii() and part.isdigit() and int(part) < len(node):
            key = int(part)
        elif isinstance(node, dict) and part in node:
            key = part
        else:
            return None
        keys, node = (*keys, key), node[key]
    return keys


def _set_keys(data, keys: tuple, value) -> None:
    for key in keys[:-1]:
        data = data[key]
    data[keys[-1]] = value


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
        # np.linspace steps by hi - lo, which can overflow where lo and hi do
        # not; the last step's product can still round past the float range,
        # and linspace then sets that point to hi
        if not np.isfinite([lo, hi, hi - lo]).all():
            print(f"error: axis bounds lo, hi and hi - lo must be finite in {spec!r}", file=sys.stderr)
            return EXIT_CONFIG
        with np.errstate(over="ignore"):
            axes.append((path, np.linspace(lo, hi, count)))
    base = read_yaml(args.config)
    # each axis's field as the keys it walks (miners.0 and miners.00 are one
    # field): an axis on or inside an earlier axis's field, or on the seed
    # that --seed sets in every cell, would be overwritten
    fields = []
    seed = [("seed",)] if args.seed is not None else []
    for path, _ in axes:
        keys = _key_path(base, path)
        if keys is None or any(keys[:len(f)] == f[:len(keys)] for f in seed + fields):
            what = "unknown" if keys is None else "overlapping"
            print(f"error: {what} axis field {path!r}", file=sys.stderr)
            return EXIT_CONFIG
        fields.append(keys)

    rows = []
    n_miners = None
    warned = set()
    for cell in itertools.product(*(grid for _, grid in axes)):
        data = copy.deepcopy(base)
        for keys, v in zip(fields, cell):
            _set_keys(data, keys, float(v))
        cfg = _parse(data, args, warned)
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


def _common(p):
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="seed override")


def _verify_arguments(p):
    _common(p)
    p.add_argument("--theorems", default=None, help="comma list, e.g. T1,T5")


def _best_response_arguments(p):
    _common(p)
    p.add_argument("--miner", type=int, required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--objective", choices=["payoff", "floor"], default=None)


def _sweep_arguments(p):
    _common(p)
    p.add_argument("--axis", action="append", default=[], help="field=lo:hi:count")


def _fig1_arguments(p):
    # no config, so no --seed to override
    p.add_argument("--out", required=True, help="output directory")


# name: (help, the function that adds its arguments, the command)
COMMANDS = {
    "simulate": ("run the round loop, emit ledger.csv/summary.csv", _common, cmd_simulate),
    "verify": ("run theorem audits, emit theorem_report.csv", _verify_arguments, cmd_verify),
    "best-response": ("best-response curve for one miner", _best_response_arguments,
                      cmd_best_response),
    "sweep": ("1-2 axis parameter sweep, emit sweep.csv", _sweep_arguments, cmd_sweep),
    "fig1": ("subsidy-shape curve, emit fig1.csv and fig1.svg", _fig1_arguments, cmd_fig1),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole poolsim parser, every command with its arguments. main
    builds it only to print a help or a usage error."""
    parser = argparse.ArgumentParser(
        prog="poolsim",
        description="Simulate and audit pay-per-share reward mechanisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The whole parser hands every word after the command to that command's
    # parser, so the command's parser, built alone, parses them to the same
    # namespace and prints the same help and errors. Words it leaves over,
    # and an argv that names no command first, go to the whole parser, which
    # prints the usage error.
    args, extra = None, None
    if argv and argv[0] in COMMANDS:
        _, add_arguments, func = COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"poolsim {argv[0]}")
        add_arguments(parser)
        parser.set_defaults(command=argv[0], func=func)
        args, extra = parser.parse_known_args(argv[1:])
    if args is None or extra:
        args = build_parser().parse_args(argv)
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

"""Output checks for the benchmark workloads.

Each checker reads the CSVs one CLI call wrote and returns a list of
problems (empty when the output is correct). They are deliberately
independent of poolsim: the expected shapes come from the workload's YAML.
Fixed reference digests are not used, because a legitimate change to the
engine's sampler changes every draw; byte-identity is instead required
between calls of the same code and seed (see run.py).
"""
from __future__ import annotations

import csv
import os

VERIFY_VERDICTS = ["PASS"] * 5 + ["KNOWN_DISCREPANCY", "PASS"]


def _read(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def ledger_problems(path: str, spec: dict) -> list[str]:
    """Shape and invariants of ledger.csv for a simulate run of `spec`."""
    caps = [float(m["capacity_A"]) for m in spec["miners"]]
    n, rounds = len(caps), int(spec["rounds"])
    clamp = spec.get("platform", {}).get("subsidy_clamp_nonneg", True)
    rows = _read(path)
    header = ["round", "M"]
    for i in range(1, n + 1):
        header += [f"a_{i}", f"D_{i}", f"reward_{i}", f"subsidy_flag_{i}"]
    header += ["delta", "budget_ratio"]
    if not rows or rows[0] != header:
        return [f"ledger header {rows[:1]} != {header}"]
    if len(rows) - 1 != rounds:
        return [f"ledger has {len(rows) - 1} rounds, expected {rounds}"]
    problems = []
    for j, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            problems.append(f"round {j}: {len(row)} columns, expected {len(header)}")
            continue
        if int(row[0]) != j:
            problems.append(f"row {j}: round index {row[0]}")
        for i, cap in enumerate(caps):
            a, _, reward, flag = (float(v) for v in row[2 + 4 * i: 6 + 4 * i])
            if not 0.0 <= a <= cap:
                problems.append(f"round {j}: a_{i + 1}={a} outside [0, {cap}]")
            if clamp and not reward >= 0.0:
                problems.append(f"round {j}: reward_{i + 1}={reward} < 0")
            if flag not in (0.0, 1.0):
                problems.append(f"round {j}: subsidy_flag_{i + 1}={flag}")
        delta = float(row[-2])
        if not 0.0 < delta <= 1.0:
            problems.append(f"round {j}: delta={delta} outside (0, 1]")
        if len(problems) > 10:
            break
    return problems


def summary_problems(path: str, spec: dict) -> list[str]:
    rows = _read(path)
    n = len(spec["miners"])
    if len(rows) != n + 1 or any(len(r) != 5 for r in rows):
        return [f"summary.csv has {len(rows) - 1} rows, expected {n} rows of 5 columns"]
    return []


def constant_column_problems(path: str, column: str) -> list[str]:
    rows = _read(path)
    idx = rows[0].index(column)
    values = {r[idx] for r in rows[1:]}
    return [] if len(values) == 1 else [f"{column} takes {len(values)} values, expected 1"]


def verdict_problems(path: str) -> list[str]:
    verdicts = [r[3] for r in _read(path)[1:]]
    return [] if verdicts == VERIFY_VERDICTS else [f"verdicts {verdicts} != {VERIFY_VERDICTS}"]


def output_problems(workload: str, out_dir: str, spec: dict) -> list[str]:
    """All checks of one call's outputs for the named workload."""
    if workload == "verify-audit":
        return verdict_problems(os.path.join(out_dir, "theorem_report.csv"))
    ledger = os.path.join(out_dir, "ledger.csv")
    problems = ledger_problems(ledger, spec)
    problems += summary_problems(os.path.join(out_dir, "summary.csv"), spec)
    if workload == "myopic-game" and not problems:
        # constant M and a fixed seed pose the same best-response problem
        # every round, so the myopic miner's allocation never changes
        problems += constant_column_problems(ledger, "a_1")
    return problems

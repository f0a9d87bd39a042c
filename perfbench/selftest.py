"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs a 3-round simulate call under the tracer and requires its counts to be
exact, then requires the output checker to accept that ledger and to reject
deliberately corrupted copies of it. run.py repeats this before every traced
run. Exits 0 when every check holds.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys

from checks import ledger_problems
from run import OUT, call_child

SPEC = {
    "mechanism": "ppss",
    "platform": {"p": 1.0, "b": 1.0, "k": 100.0, "lambda": 0.8, "N": 10},
    "miners": [
        {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
         "policy": {"kind": "static", "a": 1.0}},
        {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
         "policy": {"kind": "static", "a": 1.0}},
    ],
    "demand": {"family": "constant", "M": 600.0},
    "rounds": 3,
    "replicas": 16,
    "seed": 0,
}
EXACT_COUNTS = {
    "engine.step_round.calls": 3,
    "mechanisms.ppss_reward.calls": 3,
    "mechanisms.pps_reward.calls": 0,
    "model.substream.calls": 3,
    "montecarlo.gamma_ppf.calls": 0,
    "analysis.best_response.calls": 0,
}


def _corruptions(rows):
    """(label, mutated rows) pairs that the ledger checker must reject."""
    header = rows[0]
    col = header.index

    def edit(label, column, value, row=1):
        out = [list(r) for r in rows]
        out[row][col(column)] = value
        return label, out

    yield edit("negative reward", "reward_1", "-1.5")
    yield edit("allocation above capacity", "a_2", "1.25", row=2)
    yield edit("delta of zero", "delta", "0", row=3)
    yield edit("round index out of order", "round", "7", row=2)
    yield "dropped round", rows[:-1]
    yield "extra column", [r + ["0"] for r in rows]


def selftest_problems() -> list[str]:
    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    config.write_text(json.dumps(SPEC))  # JSON is valid YAML
    out_dir = work / "out"
    argv = ["simulate", "--config", str(config), "--out", str(out_dir), "--seed", "0"]
    rec, err = call_child(argv, work / "call.json", trace=True, timeout=60)
    if err:
        return [f"traced 3-round call failed: {err}"]

    problems = [
        f"{name} = {rec['layers'][name]}, expected {want}"
        for name, want in EXACT_COUNTS.items() if rec["layers"][name] != want
    ]
    ledger = out_dir / "ledger.csv"
    problems += [f"clean ledger rejected: {p}" for p in ledger_problems(str(ledger), SPEC)]
    with open(ledger, newline="") as fh:
        rows = list(csv.reader(fh))
    bad = work / "corrupt.csv"
    for label, mutated in _corruptions(rows):
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(mutated)
        if not ledger_problems(str(bad), SPEC):
            problems.append(f"corrupted ledger accepted ({label})")
    return problems


if __name__ == "__main__":
    found = selftest_problems()
    for p in found:
        print(f"FAILED {p}")
    print("self-test passed" if not found else f"self-test: {len(found)} problem(s)")
    sys.exit(1 if found else 0)

"""poolsim benchmark: whole CLI commands, each call in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run each in turn. The run repeats the
workload's CLI command, one call at a time, until S seconds have passed,
checks every call's outputs and prints one line per metric, then a JSON
result as the last line of stdout. With --trace 0 the metrics are the
end-to-end ones (medians over the calls); with --trace 1 untraced and
traced calls alternate and the metrics are the per-layer ones from the
traced calls (see spans.py) plus the tracing overhead.

The program is run from this checkout's `src/`; the CLI receives the seed
as `--seed`. Outputs, spans and a result file with provenance are written
under `.perfbench/` at the root of the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import yaml

from checks import output_problems
from spans import COUNT_METRICS, LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# name -> CLI command; the config is workloads/<name>.yaml
WORKLOADS = {
    "simulate-ledger": "simulate",
    "verify-audit": "verify",
    "myopic-game": "simulate",
}
# wall_ref is the call's wall time in units of child.reference_s(), timed in
# the same interpreter around the call; it follows code changes but not the
# host's speed drift. The raw wall_s is printed and kept in result.json.
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
WORKERS = "2"
MIN_CALLS = 3
RUN_LIMIT_S = 170.0  # a run, all calls included, must end well inside 180 s

ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    POOLSIM_WORKERS=WORKERS,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def call_child(argv: list[str], result_path: Path, trace: bool, timeout: float):
    """Run one CLI call in a fresh interpreter; (result dict, None) or (None, error)."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), "1" if trace else "0", *argv]
    with subprocess.Popen(
        cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"timed out after {timeout:.0f} s"
        except BaseException:
            # interrupted or terminated: end the call before leaving
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {err.strip()[-400:]}"
    with open(result_path) as fh:
        rec = json.load(fh)
    if not Path(rec["poolsim_file"]).resolve().is_relative_to(SRC):
        return None, f"imported poolsim from {rec['poolsim_file']}, not {SRC}"
    if rec["exit_code"] != 0:
        return None, f"poolsim exited with {rec['exit_code']}: {err.strip()[-400:]}"
    return rec, None


def source_digest(workload: str) -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [BENCH / "workloads" / f"{workload}.yaml"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }


def identity_problems(key: str, digests: dict[str, str]) -> list[str]:
    """Outputs of the same code and seed must be byte-identical across runs."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known:
        known[key] = digests
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
        return []
    return [] if known[key] == digests else [f"outputs differ from an earlier run ({key})"]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    config = BENCH / "workloads" / f"{workload}.yaml"
    spec = yaml.safe_load(config.read_text())
    work_dir = OUT / workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    source = source_digest(workload)
    key = f"{workload} seed={seed} source={source}"

    problems: list[str] = []
    calls, attempted, failed = [], 0, 0
    if trace:
        from selftest import selftest_problems

        found = selftest_problems()
        attempted, failed = 1, int(bool(found))
        problems += [f"self-test: {p}" for p in found]

    first_digests = None
    t0 = perf_counter()
    for i in itertools.count():
        attempted += 1
        traced = trace and i % 2 == 1
        out_dir = work_dir / f"call-{i}"
        argv = [WORKLOADS[workload], "--config", str(config), "--out", str(out_dir),
                "--seed", str(seed)]
        rec, err = call_child(argv, work_dir / f"call-{i}.json", traced,
                              RUN_LIMIT_S - (perf_counter() - started))
        call_problems = [err] if err else []
        if rec is not None:
            rec["traced"] = traced
            calls.append(rec)
            try:
                call_problems += output_problems(workload, str(out_dir), spec)
                digests = csv_digests(out_dir)
            except (OSError, ValueError, IndexError) as e:
                call_problems.append(f"unreadable output: {e!r}")
                digests = None
            if first_digests is None:
                first_digests = digests
                call_problems += identity_problems(key, digests or {})
            elif digests != first_digests:
                call_problems.append("outputs differ from the run's first call")
        if call_problems:
            failed += 1
            problems += [f"call {i}{' (traced)' if traced else ''}: {p}" for p in call_problems]
        n_traced = sum(c["traced"] for c in calls)
        n_untraced = len(calls) - n_traced
        enough = n_traced >= 1 and n_untraced >= 1 if trace else n_untraced >= MIN_CALLS
        if perf_counter() - t0 >= seconds and enough:
            break
        if perf_counter() - started > RUN_LIMIT_S - 30 or failed > 3:
            break

    untraced = [c for c in calls if not c["traced"]]
    traced_calls = [c for c in calls if c["traced"]]
    metrics = {}
    if trace and untraced and traced_calls:
        for name in LAYER_METRICS:
            if name == "trace.overhead_ratio":
                continue
            values = [c["layers"][name] for c in traced_calls]
            if name in COUNT_METRICS and len(set(values)) > 1:
                problems.append(f"count {name} differs between traced calls: {values}")
            metrics[name] = values
        metrics["trace.overhead_ratio"] = [
            statistics.median(c["wall_ref"] for c in traced_calls)
            / statistics.median(c["wall_ref"] for c in untraced)
        ]
    elif not trace and untraced:
        for name in END_TO_END:
            metrics[name] = [c[name] for c in untraced]
    units = LAYER_METRICS if trace else END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            name: {
                # counts are checked equal above; report them exactly
                "value": vals[0] if name in COUNT_METRICS else statistics.median(vals),
                "unit": units[name],
                "samples": vals,
            }
            for name, vals in metrics.items()
        },
        "wall_s": [c["wall_s"] for c in untraced],
        "rounds": int(spec["rounds"]),
        "provenance": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "PyYAML": metadata.version("PyYAML"),
            "POOLSIM_WORKERS": WORKERS,
            "config_digest": calls[0]["config_digest"] if calls else None,
            "source_digest": source,
            "git_commit": git_commit(),
            "seed": seed,
        },
    }


def report(res: dict) -> None:
    """Human-readable lines: every metric by name, value and unit."""
    w = res["workload"]
    print(f"[{w}] provenance {json.dumps(res['provenance'], sort_keys=True)}")
    for name, m in res["metrics"].items():
        vals = m["samples"]
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']} "
              f"(median of {len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})")
    if not res["trace"] and res["wall_s"]:
        walls = res["wall_s"]
        wall = statistics.median(walls)
        print(f"[{w}] wall_s = {wall:.6g} s (median of {len(walls)}; "
              f"min {min(walls):.6g}, max {max(walls):.6g})")
        if WORKLOADS[w] == "simulate":
            print(f"[{w}] rounds_per_s = {res['rounds'] / wall:.6g} 1/s "
                  f"({res['rounds']} rounds / median wall_s)")
    print(f"[{w}] error_rate = {res['failed']}/{res['attempted']} calls")
    for p in res["problems"]:
        print(f"[{w}] FAILED {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running call is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "poolsim" / "cli.py").is_file():
        print(f"error: no poolsim sources at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (OUT / name / "result.json").write_text(json.dumps(res, indent=1))
        report(res)
        results.append(res)
    expected = set(LAYER_METRICS if args.trace else END_TO_END)
    if any(set(r["metrics"]) != expected for r in results):
        print("error: no successful call to take metrics from", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    summary = {
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{n}" if prefix else n): {"value": m["value"], "unit": m["unit"]}
            for r in results for n, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

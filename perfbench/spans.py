"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into poolsim's layers by replacing each
public function at every module binding that holds it, which is where the
caller looks it up: `from .x import y` copies the name, so patching `x.y`
alone would miss the caller's own binding. Nothing is added to `src/`.

A span is (id, name, start, end, parent id, work); `work` is a per-call
count such as quantile draws or bytes written. Spans are kept in a list and
written out once, when the traced call has finished.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        # A span opened in a worker thread is caused by whatever the main
        # thread has open (the fan-out call that submitted it).
        source = stack or self._main_stack
        try:
            return source[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn, work=None):
        """Return `fn` wrapped in a span; `work(args, kwargs, result)` counts
        the work the call did."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, work(args, kwargs, out) if work else 0)
            )
            return out

        return traced

    def patch(self, name: str, fn, work=None) -> None:
        """Replace `fn` at every poolsim module binding that holds it."""
        traced = self.wrap(name, fn, work)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "poolsim" or mod_name.startswith("poolsim.")):
                continue
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, traced)
                hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {name} found to trace")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "work"], "spans": self.spans},
                fh,
            )


def _size(args, kwargs, out):
    return int(getattr(out, "size", 0))


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


def install(tracer: Tracer) -> None:
    """Trace the layer boundaries the per-layer metrics are defined on."""
    from poolsim import analysis, config, csvio, engine, mechanisms, model, montecarlo, theorems

    tracer.patch("config.parse_config", config.parse_config)
    tracer.patch("model.substream", model.substream)
    tracer.patch("model.sample_transcript", model.sample_transcript)
    tracer.patch("mechanisms.pps_reward", mechanisms.pps_reward)
    tracer.patch("mechanisms.ppss_reward", mechanisms.ppss_reward)
    tracer.patch("engine.step_round", engine.step_round)
    tracer.patch("engine.run_simulation", engine.run_simulation)
    tracer.patch("montecarlo.gamma_ppf", montecarlo.gamma_ppf, _size)
    tracer.patch("montecarlo.payoff_samples", montecarlo.payoff_samples, _size)
    tracer.patch("montecarlo.exact_mean_ci", montecarlo.exact_mean_ci)
    tracer.patch("analysis.expected_payoff_mc", analysis.expected_payoff_mc)
    tracer.patch("analysis.best_response", analysis.best_response)
    tracer.patch("analysis.bb_audit", analysis.bb_audit)
    tracer.patch("csvio.write_csv", csvio.write_csv, _file_bytes)
    for key, fn in list(theorems.AUDITS.items()):
        theorems.AUDITS[key] = tracer.wrap(f"theorems.{key}", fn)


def _self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _pct(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> unit. Counts are exact and must repeat between
# traced calls; a metric of a layer the workload never enters reads 0.
LAYER_METRICS = {
    "montecarlo.gamma_ppf.calls": "count",
    "montecarlo.gamma_ppf.draws": "count",
    "montecarlo.gamma_ppf.busy_s": "s",
    "montecarlo.gamma_ppf.ns_per_draw": "ns",
    "montecarlo.draws_per_replica": "draw/replica",
    "montecarlo.payoff_samples.calls": "count",
    "montecarlo.payoff_samples.replicas": "count",
    "montecarlo.payoff_samples.self_s": "s",
    "montecarlo.exact_mean_ci.busy_s": "s",
    "analysis.best_response.calls": "count",
    "analysis.best_response.self_s": "s",
    "analysis.expected_payoff_mc.calls": "count",
    "analysis.evals_per_br": "eval/call",
    "analysis.bb_audit.busy_s": "s",
    "engine.step_round.calls": "count",
    "engine.step_round.self_s": "s",
    "engine.step_round.p50_us": "us",
    "engine.step_round.p99_us": "us",
    "mechanisms.ppss_reward.calls": "count",
    "mechanisms.ppss_reward.us_per_call": "us",
    "mechanisms.pps_reward.calls": "count",
    "mechanisms.pps_reward.us_per_call": "us",
    "model.substream.calls": "count",
    "model.substream.busy_s": "s",
    "model.sample_transcript.busy_s": "s",
    "csvio.write_csv.busy_s": "s",
    "csvio.write_csv.bytes": "bytes",
    "cli.self_s": "s",
    **{f"theorems.T{i}.s": "s" for i in range(1, 8)},
    "config.parse_config.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}
COUNT_METRICS = {
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "bytes", "draw/replica", "eval/call")
}


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Reduce one traced call's spans to the per-layer metrics."""
    self_t = _self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    calls, work = Counter(), Counter()
    busy, own = defaultdict(float), defaultdict(float)
    for sid, name, start, end, _, w in spans:
        calls[name] += 1
        busy[name] += end - start
        own[name] += self_t[sid]
        work[name] += w
    rounds = sorted(e - s for _, n, s, e, _, _ in spans if n == "engine.step_round")
    evals_in_br = sum(
        1 for _, n, _, _, parent, _ in spans
        if n == "analysis.expected_payoff_mc" and name_of.get(parent) == "analysis.best_response"
    )
    draws, replicas = work["montecarlo.gamma_ppf"], work["montecarlo.payoff_samples"]
    return {
        "montecarlo.gamma_ppf.calls": calls["montecarlo.gamma_ppf"],
        "montecarlo.gamma_ppf.draws": draws,
        "montecarlo.gamma_ppf.busy_s": busy["montecarlo.gamma_ppf"],
        "montecarlo.gamma_ppf.ns_per_draw": _ratio(busy["montecarlo.gamma_ppf"] * 1e9, draws),
        "montecarlo.draws_per_replica": _ratio(draws, replicas),
        "montecarlo.payoff_samples.calls": calls["montecarlo.payoff_samples"],
        "montecarlo.payoff_samples.replicas": replicas,
        "montecarlo.payoff_samples.self_s": own["montecarlo.payoff_samples"],
        "montecarlo.exact_mean_ci.busy_s": busy["montecarlo.exact_mean_ci"],
        "analysis.best_response.calls": calls["analysis.best_response"],
        "analysis.best_response.self_s": own["analysis.best_response"],
        "analysis.expected_payoff_mc.calls": calls["analysis.expected_payoff_mc"],
        "analysis.evals_per_br": _ratio(evals_in_br, calls["analysis.best_response"]),
        "analysis.bb_audit.busy_s": busy["analysis.bb_audit"],
        "engine.step_round.calls": calls["engine.step_round"],
        "engine.step_round.self_s": own["engine.step_round"],
        "engine.step_round.p50_us": _pct(rounds, 50) * 1e6,
        "engine.step_round.p99_us": _pct(rounds, 99) * 1e6,
        "mechanisms.ppss_reward.calls": calls["mechanisms.ppss_reward"],
        "mechanisms.ppss_reward.us_per_call":
            _ratio(busy["mechanisms.ppss_reward"] * 1e6, calls["mechanisms.ppss_reward"]),
        "mechanisms.pps_reward.calls": calls["mechanisms.pps_reward"],
        "mechanisms.pps_reward.us_per_call":
            _ratio(busy["mechanisms.pps_reward"] * 1e6, calls["mechanisms.pps_reward"]),
        "model.substream.calls": calls["model.substream"],
        "model.substream.busy_s": busy["model.substream"],
        "model.sample_transcript.busy_s": busy["model.sample_transcript"],
        "csvio.write_csv.busy_s": busy["csvio.write_csv"],
        "csvio.write_csv.bytes": work["csvio.write_csv"],
        "cli.self_s": own["cli.main"],
        **{f"theorems.T{i}.s": busy[f"theorems.T{i}"] for i in range(1, 8)},
        "config.parse_config.busy_s": busy["config.parse_config"],
    }

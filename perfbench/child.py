"""One measured CLI call in a fresh interpreter.

Usage (started by run.py, one at a time):
    python3 child.py RESULT_JSON TRACE ARGV...

Times the set-up (importing poolsim.cli and loading the config) and the
`poolsim.cli.main(ARGV)` call, then writes both with the interpreter's peak
RSS to RESULT_JSON. With TRACE=1 the call runs under the span tracer, and
the spans and the per-layer metrics derived from them are written as well.

The host's speed drifts by tens of percent over seconds (other tenants share
its cores), so a fixed reference computation is timed in the same
interpreter just before and just after the call; run.py reports the call's
time in units of it as well as in seconds.
"""
from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import poolsim.cli  # noqa: E402
from poolsim.config import load_config  # noqa: E402
from scipy import special  # noqa: E402

_REF_U = np.linspace(0.001, 0.999, 40_000)


def reference_s(repeats: int = 3) -> float:
    """Median time of a fixed computation mixing the workloads' two kinds
    of work: a gamma quantile column and an interpreted Python loop."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        special.gammaincinv(100.0, _REF_U)
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return sorted(times)[repeats // 2]


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    cfg = load_config(argv[argv.index("--config") + 1])
    setup_s = perf_counter() - _T0

    entry = poolsim.cli.main
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        entry = tracer.wrap("cli.main", entry)

    ref_before = reference_s()
    start = perf_counter()
    code = entry(argv)
    wall_s = perf_counter() - start
    ref_s = (ref_before + reference_s()) / 2

    out = {
        "exit_code": code,
        "wall_s": wall_s,
        "wall_ref": wall_s / ref_s,
        "ref_s": ref_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config_digest": cfg.digest(),
        "poolsim_file": poolsim.cli.__file__,
    }
    if tracer is not None:
        tracer.dump(result_path + ".spans.json")
        out["layers"] = spans.layer_metrics(tracer.spans)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of the benchmark: import the package, make the inputs,
and, unless only set-up is measured, run one pass of a workload.

    python3 perfbench/worker.py --workload NAME --seed N --result FILE
                                [--setup-only] [--out DIR] [--trace [--spans FILE]]

The result file gets a JSON object: the CLOCK_MONOTONIC time at which the
package was imported and the inputs made (the caller subtracts its spawn
time to get set-up time), and for a pass its wall time, CPU time of the
process and its reaped children, peak RSS, the per-operation outputs and,
with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import orlicz_polytope
    from orlicz_polytope import bodies, cli, estimators, mathkit, orlicz

    origin = Path(orlicz_polytope.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"imported orlicz_polytope from {origin}, not from this checkout")
    return types.SimpleNamespace(
        package=orlicz_polytope, mathkit=mathkit, bodies=bodies, orlicz=orlicz,
        estimators=estimators, cli=cli,
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, help="with --trace, write the spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    import tracing  # the wrappers go in only with --trace
    import workloads

    pkg = _import_package()
    inputs = workloads.make_inputs(args.workload, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready_monotonic": ready}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    sink = io.StringIO()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pkg)
        sink = tracer.stdout_sink()
    args.out.mkdir(parents=True, exist_ok=True)
    cpu0 = tracing.cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        ops = workloads.run_pass(args.workload, inputs, pkg, args.out)
    solve_s = time.perf_counter() - t0
    cpu_s = tracing.cpu_seconds() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workloads.collect_files(args.workload, ops, args.out)
    result.update({
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": max(own, kids) / 1024.0,  # ru_maxrss is in KiB on Linux
        "ops": ops,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of orlicz_polytope: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass over the workload's task list
runs in a fresh worker process (perfbench/worker.py), so no pass reuses
what an earlier one computed.  Passes repeat while the next one is expected
to end within S seconds; there is always at least one.  Set-up time is
sampled in SETUP_PROBES extra fresh processes as well as in every pass.

Every output is checked against references computed apart from the package
(refs.py, gates.py); an operation that raises or violates a gate counts as
failed.  With --trace 0 the last line of stdout carries the end-to-end
metrics (medians over passes), with --trace 1 the per-layer metrics of the
traced passes.  The line before it, and perfbench/out/<run>/run.json, hold
the machine metadata and the per-pass figures; a traced run leaves the spans
of its first pass in perfbench/out/<workload>.spans.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0  # the whole run, references and set-up probes included

END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; returns its result plus the set-up time
    seen from here.  The worker gets its own process group so that a
    timeout also stops the MC pool processes it started."""
    result_path = Path(args[args.index("--result") + 1])
    result_path.unlink(missing_ok=True)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} passed the run deadline")
    if code != 0:
        try:  # pool processes a failed worker may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not result_path.exists():
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _layer_metrics(passes: list[dict]) -> tuple[dict, list[str]]:
    """Medians over passes; counts must agree exactly between passes."""
    import tracing

    out, mismatched = {}, []
    for name, unit in tracing.LAYER_METRICS:
        values = [p["layers"][name] for p in passes]
        if name in tracing.EXACT_COUNTS and len(set(values)) > 1:
            mismatched.append(f"{name}: {values}")
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out, mismatched


def run(args) -> dict:
    import gates
    import workloads

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed)
    ref = gates.build_refs(args.workload, inputs)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--result", str(run_dir / "result.json")]
    setups = [_spawn([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    passes = []
    measure_start = time.monotonic()
    while True:
        pass_dir = run_dir / f"pass{len(passes)}"
        t0 = time.monotonic()
        trace = ["--trace"] if args.trace else []
        if args.trace and not passes:  # the spans of the first pass are kept
            trace += ["--spans", str(HERE / "out" / f"{args.workload}.spans.json")]
        res = _spawn([*common, "--out", str(pass_dir), *trace], deadline)
        wall = time.monotonic() - t0
        res["checks"] = gates.check(args.workload, res["ops"], ref)
        passes.append(res)
        if time.monotonic() - measure_start + wall > args.seconds:
            break

    attempted = sum(len(p["checks"]) for p in passes)
    failures = [(i, op, errs) for i, p in enumerate(passes) for op, errs in p["checks"] if errs]
    for i, op, errs in failures:
        print(f"FAILED pass {i} {op}: " + " | ".join(e.strip() for e in errs), file=sys.stderr)

    correct = True
    setups += [p["setup_s"] for p in passes]
    if args.trace:
        metrics, mismatched = _layer_metrics(passes)
        for line in mismatched:
            print(f"count differs between passes: {line}", file=sys.stderr)
        correct = not mismatched
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name in ("solve_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = {"value": statistics.median(p[name] for p in passes), "unit": END_TO_END[name]}

    meta = _metadata(args)
    meta.update({
        "passes": len(passes),
        "setup_samples_s": setups,
        "pass_solve_s": [p["solve_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "run_wall_s": time.monotonic() - started,
    })
    summary = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (run_dir / "run.json").write_text(json.dumps({"meta": meta, **summary, "passes": [
        {"checks": p["checks"], "ops": p["ops"]} for p in passes]}, indent=1, default=str))
    print(json.dumps({"meta": meta}))
    return summary


def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "orlicz_polytope" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'orlicz_polytope'}", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

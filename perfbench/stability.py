"""Stability check: do repeated runs of one commit agree with themselves?

    python3 perfbench/stability.py [--runs 10] [--sets 2] [--workload NAME ...]

Makes `sets` sets of `runs` untraced runs of each workload, every run with
its own seed (from 1000 up), at the run length in BENCHMARK.json.  For each
workload and end-to-end metric it reports the median of each set, the
spread within a set (interquartile distance over the median, as
statistics.quantiles gives the quartiles) and, with two sets, how far the
second median moved from the first, in either direction.  A metric agrees
when the second median lies within its bound of the first and every spread
stays within the bound.  The spread of setup_s is reported but not held to
its bound: set-up is a sub-second time, sampled four times per run, and its
bound exists to catch set-up that got slower, which the median comparison
does.  The share of failed operations must be equal in the two sets.

It then makes two traced runs per workload with seed 1000 and checks that
every per-layer count repeats exactly.  Each traced run follows an
untraced run of the same seed, and the tracing overhead is the median
traced solve_s minus the median of those untraced ones.

Prints a table and writes perfbench/out/stability.json; exits 0 when
everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SEED0 = 1000


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, with its metadata line under "meta"."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}:\n{out.stderr}")
    *_, meta, result = out.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(meta)}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    report, ok = {}, True

    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            seeds = [SEED0 + s * args.runs + i for i in range(args.runs)]
            sets.append([run_once(workload, seed, seconds, 0) for seed in seeds])
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            row = {
                "medians": [statistics.median(v) for v in values],
                "spreads": [spread(v) for v in values],
                "bound": bound,
            }
            agree = name == "setup_s" or all(sp <= bound for sp in row["spreads"])
            if len(values) == 2:
                first, second = row["medians"]
                row["change"] = (second - first) / first
                agree = agree and abs(row["change"]) <= bound
            row["agree"] = agree
            ok = ok and agree
            rows[name] = row
            change = f" change {row['change']:+.3f}" if "change" in row else ""
            print(f"{workload:20s} {name:12s} median {' / '.join(f'{m:.4g}' for m in row['medians']):22s}"
                  f" spread {' / '.join(f'{x:.3f}' for x in row['spreads']):13s}{change} bound {bound:<5g}"
                  f" {'ok' if agree else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        ok = ok and len(set(shares)) == 1 and all(r["correct"] for runs in sets for r in runs)
        print(f"{workload:20s} failed share per set {shares}")

        paired, traced = [], []
        for _ in range(2):  # alternate, so that machine drift hits both alike
            paired.append(run_once(workload, SEED0, seconds, 0))
            traced.append(run_once(workload, SEED0, seconds, 1))
        counts = [{k: r["metrics"][k]["value"] for k in tracing.EXACT_COUNTS} for r in traced]
        repeat = all(c == counts[0] for c in counts)
        ok = ok and repeat
        traced_solve = statistics.median(s for r in traced for s in r["meta"]["pass_solve_s"])
        overhead = traced_solve - statistics.median(s for r in paired for s in r["meta"]["pass_solve_s"])
        print(f"{workload:20s} per-layer counts repeat exactly: {repeat}")
        print(f"{workload:20s} traced solve_s {traced_solve:.4g} s, tracing overhead {overhead:+.4g} s")
        report[workload] = {
            "end_to_end": rows, "failed_share": shares, "counts_repeat": repeat,
            "counts": counts[0],
            "traced_solve_s": traced_solve, "tracing_overhead_s": overhead,
            "layers": {k: v["value"] for k, v in traced[0]["metrics"].items()},
        }

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "stability.json").write_text(json.dumps(report, indent=1))
    print("all agree" if ok else "some figures DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: their inputs, one pass over their task list, and the
outputs each pass hands back for checking.

Inputs are plain data made from the workload seed.  run_pass calls the
package only through module attributes (estimators.expected_support_orlicz,
cli.main, ...), so a traced run sees every call once its wrappers are in.
"""

from __future__ import annotations

import json
import math
import traceback
from pathlib import Path

import numpy as np

WORKLOADS = ("orlicz-grid", "mc-oracle", "general-directions", "validate")

GRID_P = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)
GRID_n = (10, 30)
GRID_N = (10**2, 10**3, 10**4, 10**5, 10**6)

MC_P = (1.0, 2.0, 4.0, math.inf)
MC_n = 30
MC_N = (10**3, 10**4, 10**5)
MC_TRIALS = 30
THREADS = 2

SCAN_P = (1.0, 4.0)
SCAN_n, SCAN_N, SCAN_DIRS, SCAN_R = 15, 10**3, 1000, 1.0
HIST_P = (1.5, 4.0)
HIST_n, HIST_N, HIST_DIRS = 30, 10**4, 2
MW_P, MW_n, MW_N, MW_TRIALS, MW_DIRS = 2.0, 30, 10**5, 10, 100


def p_text(p: float) -> str:
    return "inf" if math.isinf(p) else repr(p)


def p_value(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def make_inputs(workload: str, seed: int) -> dict:
    """The task list of one pass, as plain data; the seed fixes the order of
    the grid tasks, the MC seeds and the non-canonical directions."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "orlicz-grid":
        cells = [(p_text(p), n, N) for p in GRID_P for n in GRID_n for N in GRID_N]
        return {"cells": [cells[i] for i in rng.permutation(len(cells))]}
    if workload == "mc-oracle":
        cells = [(p_text(p), N) for p in MC_P for N in MC_N]
        return {"cells": [cells[i] for i in rng.permutation(len(cells))], "seed": seed}
    if workload == "general-directions":
        dirs = rng.standard_normal((HIST_DIRS, HIST_n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return {"seed": seed, "directions": dirs.tolist()}
    if workload == "validate":
        return {"seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def _attempt(outputs: list, name: str, fn) -> None:
    """Run one operation; an exception is recorded as its failure."""
    try:
        outputs.append({"op": name, "value": fn()})
    except Exception:  # any fault of the package fails this operation only
        outputs.append({"op": name, "error": traceback.format_exc(limit=-4)})


def run_pass(workload: str, inputs: dict, pkg, out_dir: Path) -> list:
    """One pass over the task list; pkg holds the package's modules."""
    bodies, estimators, cli = pkg.bodies, pkg.estimators, pkg.cli
    ops: list = []
    if workload == "orlicz-grid":
        for p, n, N in inputs["cells"]:
            body = bodies.BodySpec(p_value(p), n)
            _attempt(ops, f"grid p={p} n={n} N={N}",
                     lambda: estimators.expected_support_orlicz(body, 0, N))
    elif workload == "mc-oracle":
        for p, N in inputs["cells"]:
            cell_dir = out_dir / f"estimate-p{p}-N{N}"
            argv = ["estimate", "--p", p, "--n", str(MC_n), "--N", str(N), "--dir", "e1",
                    "--trials", str(MC_TRIALS), "--threads", str(THREADS),
                    "--seed", str(inputs["seed"]), "--out", str(cell_dir)]
            _attempt(ops, f"estimate p={p} N={N}", lambda: cli.main(argv))
    elif workload == "general-directions":
        seed = inputs["seed"]
        for p in SCAN_P:
            def scan(p=p):
                res = estimators.direction_measure_scan(
                    bodies.BodySpec(p, SCAN_n), SCAN_N, SCAN_R, n_dirs=SCAN_DIRS, seed=seed)
                return {
                    "median": float(np.median(res.estimates)),
                    "fractions": [res.fraction_upper, res.fraction_lower, res.fraction_below_lower,
                                  res.fraction_between, res.fraction_above_upper],
                    "thresholds": [res.threshold_upper, res.threshold_lower],
                    "estimates": res.estimates.tolist(),
                }
            _attempt(ops, f"scan p={p_text(p)}", scan)
        for p in HIST_P:
            for j, vec in enumerate(inputs["directions"]):
                theta = bodies.Direction.from_vector(vec)
                _attempt(ops, f"histogram p={p_text(p)} dir={j}",
                         lambda p=p, theta=theta: estimators.expected_support_orlicz(
                             bodies.BodySpec(p, HIST_n), theta, HIST_N, seed=seed))
        def mean_width():
            rep = estimators.mean_width_mc(bodies.BodySpec(MW_P, MW_n), MW_N, MW_TRIALS, MW_DIRS,
                                           seed=seed, threads=THREADS)
            return {"mc_mean": rep.mc_mean, "ci": list(rep.mc_ci95)}
        _attempt(ops, "mean-width p=2", mean_width)
    elif workload == "validate":
        argv = ["validate", "--seed", str(inputs["seed"]), "--out", str(out_dir / "validate")]
        _attempt(ops, "validate", lambda: cli.main(argv))
    return ops


def collect_files(workload: str, ops: list, out_dir: Path) -> None:
    """Attach the JSON files a CLI pass wrote to its operations (after the
    timed pass, so reading them costs the pass nothing)."""
    for op in ops:
        if "error" in op:
            continue
        if workload == "mc-oracle":
            p, N = (part.split("=")[1] for part in op["op"].split()[1:])
            path = out_dir / f"estimate-p{p}-N{N}" / "report.json"
        elif workload == "validate":
            path = out_dir / "validate" / "validate.json"
        else:
            continue
        op["exit_code"] = op.pop("value")
        op["value"] = json.loads(path.read_text()) if path.exists() else None

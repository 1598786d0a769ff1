"""Correctness gates: each operation's output against the references in
refs.py.  A violated gate fails its operation.

Statistical tolerances are stated as |z| bounds with the false-alarm
probability per check they carry:

- MC_Z = 6 for the support MC (30 trials).  The standard error is the
  larger of the one the CLI reports (CI half-width / 1.96) and the exact
  one from refs.expected_max.  The exact one guards against a small sample
  standard deviation: for the cube's exponential-like maxima, 20 trials
  give |t| > 8 about twice in 10^4 trial sets when only the reported one is
  used.  With the exact error, |z| > 6 has probability below 1e-7.
- MW_Z = 10 for the mean-width MC (10 trials, reported CI only): a t law
  with 9 degrees of freedom exceeds 10 with probability 3.6e-6.
- HIST_Z = SCAN_Z = 6 for the histogram roots and the scan median, whose
  errors are delta-method and order-statistic normal approximations.
"""

from __future__ import annotations

import math

import numpy as np

import refs
import workloads as W

MC_Z = 6.0
MW_Z = 10.0
HIST_Z = 6.0
SCAN_Z = 6.0
HIST_REF_POINTS = 250_000  # reference projections per histogram direction
HIST_PKG_POINTS = 10**6  # projections the package uses (DEFAULT_PROJ_SAMPLES)
HIST_BIAS = 1e-4  # relative allowance for the package's histogram binning
SCAN_REF_DIRS = 200
SCAN_CLOUD = 10**5  # cloud size of direction_measure_scan and of the reference

VALIDATE_CHECKS = {
    "closed-form-consistency": 1e-6,
    "recursion-identity": 1e-9,
    "dual-involution": 1e-6,
    "sampler-ks": 2.0 * 1.63 / math.sqrt(20000),
}


def build_refs(workload: str, inputs: dict) -> dict:
    """References for one workload's inputs; never touches the package."""
    if workload == "orlicz-grid":
        return {
            (p, n, N): refs.orlicz_root(W.p_value(p), n, N) for p, n, N in map(tuple, inputs["cells"])
        }
    if workload == "mc-oracle":
        return {
            (p, N): (refs.orlicz_root(W.p_value(p), W.MC_n, N), *refs.expected_max(W.p_value(p), W.MC_n, N))
            for p, N in map(tuple, inputs["cells"])
        }
    if workload == "general-directions":
        seed = inputs["seed"]
        out = {}
        for p in W.SCAN_P:
            rng = np.random.default_rng([seed, 1, int(p * 10)])
            out[("scan", p)] = refs.median_scan_root(p, W.SCAN_n, W.SCAN_N, SCAN_REF_DIRS, SCAN_CLOUD, rng)
        for p in W.HIST_P:
            for j, vec in enumerate(inputs["directions"]):
                rng = np.random.default_rng([seed, 2, int(p * 10), j])
                proj = refs.project_pball(p, W.HIST_n, np.asarray(vec), HIST_REF_POINTS, rng)
                out[("hist", p, j)] = refs.empirical_root(proj, W.HIST_N)
        out["mean-width"] = refs.expected_max(W.MW_P, W.MW_n, W.MW_N)[0]
        return out
    return {}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _ci_gate(mean: float, ci, ref: float, z_max: float, exact_se: float = 0.0) -> list[str]:
    lo, hi = ci
    errs = []
    if not lo <= mean <= hi:
        errs.append(f"CI [{lo}, {hi}] does not bracket the mean {mean}")
    se = max((hi - lo) / (2.0 * 1.96), exact_se)
    z = (mean - ref) / se if se > 0 else math.inf
    if not abs(z) <= z_max:
        errs.append(f"mean {mean} is {z:.2f} standard errors from the exact {ref} (|z| <= {z_max})")
    return errs


def _grid_gates(ops, ref) -> dict:
    keys = {}
    for op in ops:
        p, n, N = (part.split("=")[1] for part in op["op"].split()[1:])
        keys[op["op"]] = (p, int(n), int(N))
    values = {keys[op["op"]]: op["value"] for op in ops if "value" in op}
    errors = {}
    for op in ops:
        if "value" not in op:
            continue
        p, n, N = key = keys[op["op"]]
        s, exact = op["value"], ref[key]
        errs = []
        if not _rel(s, exact) <= refs.ORLICZ_REL_TOL:
            errs.append(f"s = {s!r} vs stop-loss root {exact!r}: rel {_rel(s, exact):.2e} > {refs.ORLICZ_REL_TOL:.2e}")
        if not s < refs.radius(W.p_value(p), n):
            errs.append(f"s = {s!r} is not below the support radius")
        k = W.GRID_N.index(N)
        prev = values.get((p, n, W.GRID_N[k - 1])) if k else None
        if prev is not None and not s > prev:
            errs.append(f"s = {s!r} does not exceed {prev!r} at N = {W.GRID_N[k - 1]}")
        errors[op["op"]] = errs
    return errors


def _mc_gates(ops, ref) -> dict:
    errors = {}
    for op in ops:
        if "value" not in op:
            continue
        p, N = (part.split("=")[1] for part in op["op"].split()[1:])
        root, mean, sd = ref[(p, int(N))]
        report = op["value"]
        errs = []
        if op["exit_code"] != 0 or report is None:
            errors[op["op"]] = [f"exit code {op['exit_code']}, report {'missing' if report is None else 'present'}"]
            continue
        if not _rel(report["orlicz_value"], root) <= refs.ORLICZ_REL_TOL:
            errs.append(f"orlicz_value {report['orlicz_value']!r} vs stop-loss root {root!r}")
        errs += _ci_gate(report["mc_mean"], report["ci"], mean, MC_Z, sd / math.sqrt(W.MC_TRIALS))
        errors[op["op"]] = errs
    return errors


def _scan_fraction_gate(value) -> list[str]:
    """Recompute the scan's thresholds and fractions from its estimates:
    the thresholds are 4x and 1/4x the median estimate, and each fraction
    is the share of estimates on its side of them."""
    est = np.asarray(value["estimates"])
    upper, lower = value["thresholds"]
    med = float(np.median(est))
    below, above = float(np.mean(est < lower)), float(np.mean(est > upper))
    want = [1.0 - above, 1.0 - below, below, 1.0 - below - above, above]
    errs = []
    if not (_rel(upper, 4.0 * med) <= 1e-12 and _rel(lower, med / 4.0) <= 1e-12):
        errs.append(f"thresholds {value['thresholds']} are not 4x and 1/4x the median estimate {med!r}")
    if not all(abs(got - w) <= 1e-12 for got, w in zip(value["fractions"], want)):
        errs.append(f"fractions {value['fractions']} vs {want} recomputed from the estimates")
    return errs


def _general_gates(ops, ref) -> dict:
    errors = {}
    for op in ops:
        if "value" not in op:
            continue
        kind, *rest = op["op"].split()
        value, errs = op["value"], []
        if kind == "scan":
            p = W.p_value(rest[0].split("=")[1])
            median, sigma, cloud_se = ref[("scan", p)]
            se = math.sqrt(1.2533**2 * sigma**2 * (1 / SCAN_REF_DIRS + 1 / W.SCAN_DIRS) + 2 * cloud_se**2)
            if not abs(value["median"] - median) <= SCAN_Z * se:
                errs.append(f"median {value['median']!r} vs reference {median!r} (tolerance {SCAN_Z} x {se:.3g})")
            fr = value["fractions"]
            if not all(0.0 <= f <= 1.0 for f in fr):
                errs.append(f"fractions outside [0, 1]: {fr}")
            if not abs(fr[2] + fr[3] + fr[4] - 1.0) <= 1e-12:
                errs.append(f"below + between + above = {fr[2] + fr[3] + fr[4]!r}, not 1")
            errs += _scan_fraction_gate(value)
        elif kind == "histogram":
            p = W.p_value(rest[0].split("=")[1])
            j = int(rest[1].split("=")[1])
            root, se_ref = ref[("hist", p, j)]
            se = se_ref * math.sqrt(1.0 + HIST_REF_POINTS / HIST_PKG_POINTS)
            tol = HIST_Z * se + HIST_BIAS * root
            if not abs(value - root) <= tol:
                errs.append(f"s = {value!r} vs reference root {root!r} (tolerance {tol:.3g})")
        else:
            errs += _ci_gate(value["mc_mean"], value["ci"], ref["mean-width"], MW_Z)
        errors[op["op"]] = errs
    return errors


def _validate_gates(ops, ref) -> dict:
    errors = {}
    for op in ops:
        if "value" not in op:
            continue
        report, errs = op["value"], []
        if op["exit_code"] != 0 or report is None or report.get("all_passed") is not True:
            errs.append(f"exit code {op['exit_code']}, all_passed {None if report is None else report.get('all_passed')}")
        checks = {c["name"]: c for c in (report or {}).get("checks", [])}
        if set(checks) != set(VALIDATE_CHECKS):
            errs.append(f"checks {sorted(checks)} instead of {sorted(VALIDATE_CHECKS)}")
        for name, tol in VALIDATE_CHECKS.items():
            c = checks.get(name)
            if c is not None and not (c["tolerance"] == tol and c["observed"] <= tol):
                errs.append(f"{name}: tolerance {c['tolerance']!r} (want {tol!r}), observed {c['observed']!r}")
        errors[op["op"]] = errs
    return errors


GATES = {
    "orlicz-grid": _grid_gates,
    "mc-oracle": _mc_gates,
    "general-directions": _general_gates,
    "validate": _validate_gates,
}


def check(workload: str, ops: list, ref: dict) -> list[tuple[str, list[str]]]:
    """(operation, errors) for every operation of one pass; an operation
    that raised fails with its traceback."""
    errors = GATES[workload](ops, ref)
    return [(op["op"], [op["error"]] if "error" in op else errors[op["op"]]) for op in ops]

"""Batch experiment runner.

Subcommands: estimate, scan, meanwidth, directions, validate, tabulate-m.
Each takes only the options it reads (COMMAND_OPTIONS); an unread flag is a
usage error.  Configuration comes from a flat key=value file plus
command-line overrides; every run writes a manifest that reproduces its
numeric outputs bit for bit.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, orlicz
from .bodies import BodySpec, Direction, coordinate_ks, derive_seed, sample_sphere
from .errors import AccuracyError, DomainError, RangeError
from .estimators import (
    build_direction_orlicz,
    direction_measure_scan,
    expected_support_mc,
    expected_support_orlicz,
    run_mean_width_scan,
    run_support_scan,
)
from .mathkit import SinCosParams, sincos_identity_sides
from .orlicz import (
    build_consistency_grid,
    dual_involution_error,
    from_pball,
    from_power,
    representation_spread,
)

RNG_ALGORITHM = "sfc64/seedsequence-of-blake2b-streams/coordinate-law-2"
SEED_ENV = "ORLICZ_POLYTOPE_SEED"


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# 17-significant-digit serialization

def fmt(x: float) -> str:
    return f"{x:.17g}"


_MARK = ""


def _tag_floats(obj):
    if isinstance(obj, float):
        return f"{_MARK}{fmt(obj)}{_MARK}"
    if isinstance(obj, dict):
        return {k: _tag_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(v) for v in obj]
    return obj


def dumps_json(obj) -> str:
    """JSON text with every float rendered at 17 significant digits."""
    text = json.dumps(_tag_floats(obj), indent=2)
    return text.replace('"\\u0001', "").replace('\\u0001"', "") + "\n"


def write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    """The resolved options of one run; those its subcommand does not read
    keep these defaults and stay out of the echo."""

    command: str
    p: str = "2"
    n: int = 10
    N: list = field(default_factory=lambda: [100])
    dir: str = "e1"
    seed: int = 0
    trials: int = 200
    dirs: int = 100
    threads: int = 1
    out: str = "out"
    r: float = 1.0
    grid: str = "default"

    def echo(self) -> dict:
        keys = COMMAND_OPTIONS[self.command]
        return {"command": self.command, **{k: getattr(self, k) for k in keys}}

    def body(self) -> BodySpec:
        return BodySpec(parse_p(self.p), self.n)


def parse_p(raw) -> float:
    text = str(raw).strip()
    if text == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"p must be a number or 'inf', got {text!r}") from exc
    if math.isinf(value):
        raise ConfigError("p = inf must be spelled 'inf'")
    if not value >= 1.0:
        raise ConfigError(f"p must satisfy 1 <= p <= inf, got {text}")
    return value


def load_config_file(path: str) -> dict:
    """Flat key = value text, or the config echo of a manifest.json.

    A manifest written under another rng_algorithm is refused: its replay
    would draw different samples."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: a .json config must hold a JSON object")
        rng = data.get("rng_algorithm", RNG_ALGORITHM)
        if rng != RNG_ALGORITHM:
            raise ConfigError(f"manifest was written with RNG {rng!r}, this version draws from {RNG_ALGORITHM!r}")
        cfg = data.get("config", data)
        if not isinstance(cfg, dict):
            raise ConfigError("manifest does not carry a config mapping")
        return {str(k): v for k, v in cfg.items()}
    out = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_n_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        items = [int(v) for v in value]
    else:
        items = [int(v) for v in str(value).replace(",", " ").split()]
    if not items:
        raise ConfigError("N grid is empty")
    if any(b <= a for a, b in zip(items, items[1:])):
        raise ConfigError("N grid must be strictly increasing")
    if any(v < 1 for v in items):
        raise ConfigError("N values must be positive")
    return items


def _p_text(raw) -> str:
    text = str(raw)
    parse_p(text)
    return text


# option -> (conversion of a flag or config-file value, argparse keywords)
OPTIONS = {
    "p": (_p_text, dict(help="ball exponent; 'inf' for the cube")),
    "n": (int, dict(type=int, help="dimension")),
    "N": (_parse_n_list, dict(action="append", type=int, help="vertex-pair count (repeat for a scan)")),
    "dir": (str, dict(help="e<j>, random, or an explicit vector")),
    "seed": (int, dict(type=int, help=f"seed (default ${SEED_ENV} or 0)")),
    "trials": (int, dict(type=int, help="MC trials (0 disables MC, else at least 2)")),
    "dirs": (int, dict(type=int, help="sphere directions")),
    "threads": (int, dict(type=int, help="threads for the MC trials")),
    "out": (str, dict(help="output directory")),
    "r": (float, dict(type=float, help="direction-measure level")),
    "grid": (str, dict(help="validation grid 'p1 p2 ...; n1 n2 ...' ('' = error)")),
}

# The options each subcommand reads, in the order of the config echo.  Every
# subcommand also takes --config; a config-file key outside its row is ignored.
COMMAND_OPTIONS = {
    "estimate": ("p", "n", "N", "dir", "seed", "trials", "threads", "out"),
    "scan": ("p", "n", "N", "dir", "seed", "trials", "threads", "out"),
    "meanwidth": ("p", "n", "N", "seed", "trials", "dirs", "threads", "out"),
    "directions": ("p", "n", "N", "seed", "dirs", "out", "r"),
    "validate": ("seed", "out", "grid"),
    "tabulate-m": ("p", "n", "dir", "seed", "out"),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags over config-file keys over defaults, for the subcommand's
    options only."""
    command = args.command
    base = load_config_file(args.config) if args.config else {}
    defaults = vars(RunConfig(command)) | {"seed": os.environ.get(SEED_ENV, "0")}
    if command == "directions":
        defaults["dirs"] = 1000
    values = {}
    for key in COMMAND_OPTIONS[command]:
        raw = getattr(args, key)
        if raw is None:
            raw = base.get(key, defaults[key])
        try:
            values[key] = OPTIONS[key][0](raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed option {key}: {exc}") from exc
    cfg = RunConfig(command, **values)
    if cfg.n < 1:
        raise ConfigError("n must be a positive integer")
    if cfg.trials < 0 or cfg.trials == 1:
        raise ConfigError(f"trials must be 0 (MC off) or at least 2, got {cfg.trials}")
    if cfg.threads < 1:
        raise ConfigError("threads must be at least 1")
    if command in ("estimate", "directions") and len(cfg.N) != 1:
        raise ConfigError(f"{command} takes one N, got {len(cfg.N)}")
    if command in ("scan", "meanwidth") and len(cfg.N) < 4:
        raise ConfigError(f"{command} needs an N grid with at least 4 points")
    if command == "directions" and cfg.dirs < 1000:
        raise ConfigError(f"directions needs at least 1000 directions, got {cfg.dirs}")
    if command == "meanwidth" and cfg.dirs < 1:
        raise ConfigError(f"meanwidth needs at least 1 direction, got {cfg.dirs}")
    return cfg


def resolve_direction(cfg: RunConfig, body: BodySpec):
    spec = cfg.dir.strip()
    if spec.startswith("e"):
        try:
            axis = int(spec[1:]) - 1
        except ValueError as exc:
            raise ConfigError(f"bad canonical direction {spec!r}") from exc
        if not 0 <= axis < body.n:
            raise ConfigError(f"axis {spec} outside dimension {body.n}")
        return axis
    if spec == "random":
        return Direction(sample_sphere(body.n, 1, derive_seed(cfg.seed, "cli-dir"))[0])
    try:
        vec = [float(v) for v in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad direction spec {spec!r}") from exc
    if len(vec) != body.n:
        raise ConfigError(f"direction has {len(vec)} coordinates, body has {body.n}")
    return Direction.from_vector(vec)


# ---------------------------------------------------------------------------
# manifest

def write_manifest(cfg: RunConfig, out_dir: Path, timings: dict) -> None:
    """manifest.json, a pure function of the config, and the wall times of
    the run in timings.json, kept apart so that replay is byte-identical."""
    manifest = {
        "config": cfg.echo(),
        "library_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "per_step_seeds": {cfg.command: cfg.seed},
    }
    write_text(out_dir / "manifest.json", dumps_json(manifest))
    write_text(out_dir / "timings.json", dumps_json(timings))


# ---------------------------------------------------------------------------
# minimal SVG line chart (fixed styling, no dependencies)

def render_svg(path: Path, xs, ys, title: str, x_label: str, y_label: str) -> None:
    width, height, margin = 640, 420, 56
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f77b4"/>')
    parts.append(
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-family="monospace" font-size="14">{title}</text>'
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-family="monospace" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-family="monospace" font-size="12" transform="rotate(-90 16 {height / 2:.0f})">{y_label}</text>'
    )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands: each writes its outputs to out and returns the exit code;
# main makes out, times the run and writes the manifest

def cmd_estimate(cfg: RunConfig, out: Path, timings: dict) -> int:
    body = cfg.body()
    direction = resolve_direction(cfg, body)
    N = cfg.N[0]
    orlicz_value = expected_support_orlicz(body, direction, N, seed=cfg.seed)
    if cfg.trials > 0:
        rep = expected_support_mc(body, direction, N, cfg.trials, cfg.seed, cfg.threads)
        mc_mean, ci = rep.mc_mean, list(rep.mc_ci95)
        ratio = mc_mean / orlicz_value if orlicz_value else None
        timings["mc_s"] = rep.meta.get("elapsed_s")
    else:
        mc_mean, ci, ratio = None, None, None
        timings["mc_s"] = None
    report = {
        "experiment": cfg.echo(),
        "orlicz_value": orlicz_value,
        "mc_mean": mc_mean,
        "ci": ci,
        "ratio": ratio,
        "seed": cfg.seed,
    }
    write_text(out / "report.json", dumps_json(report))
    lines = ["N,orlicz_value,mc_mean,ci_lo,ci_hi,ratio"]
    row = [str(N), fmt(orlicz_value)]
    row += [fmt(v) for v in ((mc_mean, *ci, ratio) if mc_mean is not None else ())] or ["", "", "", ""]
    lines.append(",".join(row))
    write_text(out / "report.csv", "\n".join(lines) + "\n")
    if mc_mean is None:
        print(f"orlicz {fmt(orlicz_value)} (MC disabled)")
    else:
        print(f"orlicz {fmt(orlicz_value)} mc {fmt(mc_mean)} ratio {fmt(ratio)}")
    return 0


def cmd_scan(cfg: RunConfig, out: Path, timings: dict) -> int:
    """scan (support function in one direction) and meanwidth: estimates
    over the N grid and the fitted growth law."""
    body = cfg.body()
    if cfg.command == "scan":
        result = run_support_scan(
            body, resolve_direction(cfg, body), cfg.N,
            trials=cfg.trials, seed=cfg.seed, threads=cfg.threads,
        )
        title = "support-function growth"
    else:
        result = run_mean_width_scan(
            body, cfg.N, trials=cfg.trials, n_dirs=cfg.dirs, seed=cfg.seed, threads=cfg.threads
        )
        title = "mean-width growth"
    rows = result.rows
    lines = ["N,orlicz,mc,ratio"]
    for row in rows:
        mc = fmt(row.oracle) if row.oracle is not None else ""
        ratio = fmt(row.ratio) if row.ratio is not None else ""
        lines.append(f"{row.N},{fmt(row.estimate)},{mc},{ratio}")
    write_text(out / "scan.csv", "\n".join(lines) + "\n")
    fit = {
        "exponent": result.fitted_exponent,
        "r2": result.fit_r2,
        "transform": result.transform,
        "constants_note": "prefactors are fitted, not theoretical",
    }
    write_text(out / "fit.json", dumps_json(fit))
    if result.transform == "log-log-N":
        x_label, y_label = "log_log_N", "log_estimate"
        data = [(math.log(math.log(r.N)), math.log(r.estimate)) for r in rows]
    else:
        x_label, y_label = "log_N", "estimate_squared"
        data = [(math.log(r.N), r.estimate**2) for r in rows]
    lines = [f"{x_label},{y_label}"] + [f"{fmt(x)},{fmt(y)}" for x, y in data]
    write_text(out / "plotdata.csv", "\n".join(lines) + "\n")
    render_svg(out / "scan.svg", [x for x, _ in data], [y for _, y in data], title, x_label, y_label)
    print(f"exponent {fmt(result.fitted_exponent)} r2 {fmt(result.fit_r2)}")
    return 0


def cmd_directions(cfg: RunConfig, out: Path, timings: dict) -> int:
    N = cfg.N[0]
    scan = direction_measure_scan(cfg.body(), N, cfg.r, n_dirs=cfg.dirs, seed=cfg.seed)
    lines = ["direction_index,estimate"]
    lines += [f"{i},{fmt(v)}" for i, v in enumerate(scan.estimates)]
    write_text(out / "directions.csv", "\n".join(lines) + "\n")
    summary = {
        "N": N,
        "r": cfg.r,
        "n_dirs": cfg.dirs,
        "fraction_upper": scan.fraction_upper,
        "fraction_lower": scan.fraction_lower,
        "fraction_below_lower": scan.fraction_below_lower,
        "fraction_between": scan.fraction_between,
        "fraction_above_upper": scan.fraction_above_upper,
        "constants_used": list(scan.constants_used),
        "threshold_upper": scan.threshold_upper,
        "threshold_lower": scan.threshold_lower,
        "predicted_upper_measure": scan.predicted_upper_measure,
        "predicted_lower_measure": scan.predicted_lower_measure,
        "distinct_estimates": int(np.unique(scan.estimates).size),
        "calibration": "thresholds at 4x and 1/4x the median estimate",
    }
    write_text(out / "summary.json", dumps_json(summary))
    print(
        f"fraction_upper {fmt(scan.fraction_upper)} fraction_lower {fmt(scan.fraction_lower)}"
    )
    return 0


def cmd_tabulate_m(cfg: RunConfig, out: Path, timings: dict) -> int:
    body = cfg.body()
    fn = build_direction_orlicz(body, resolve_direction(cfg, body), seed=cfg.seed)
    orlicz.export_tabulation(fn, out / "m_table.csv")
    print(f"tabulated {fn.kind} Orlicz function -> {out / 'm_table.csv'}")
    return 0


# ---------------------------------------------------------------------------
# validate

def _validate_checks(cfg: RunConfig):
    if cfg.grid.strip() == "":
        raise ConfigError("validation grid is empty")
    if cfg.grid == "default":
        ps = [1.0, 1.5, 2.0, 3.0]
        ns = [2, 6]
    else:
        try:
            ps = [parse_p(v) for v in cfg.grid.split(";")[0].split()]
            ns = [int(v) for v in cfg.grid.split(";")[1].split()]
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"bad validation grid {cfg.grid!r}") from exc
        if not ps or not ns:
            raise ConfigError("validation grid is empty")
        if any(math.isinf(p) for p in ps):
            raise ConfigError("validation grid p must be finite: the closed forms it checks need p < inf")

    # representation consistency on the well-conditioned band of the support
    spread = max(representation_spread(p, n, f) for p, n, f in build_consistency_grid(ps, ns, 3))

    # recursion identity against quadrature
    rng = np.random.default_rng(123)
    identity = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.2, 12.0))
        b = float(rng.uniform(-0.8, 8.0))
        upper = float(rng.uniform(0.1, 1.5))
        k = int(rng.integers(0, 12))
        lhs, rhs = sincos_identity_sides(SinCosParams(a, b, upper, k))
        identity = max(identity, abs(lhs - rhs) / max(abs(lhs), 1e-300))

    # dual involution, on the region whose slopes stay inside the dual window
    involution = max(
        dual_involution_error(M, np.linspace(0.05, 2.0, 8))
        for M in (from_power(1.5), from_power(2.0), from_power(3.0), from_pball(2.0, 5))
    )

    # sampler KS against the coordinate marginal CDF
    m = 20000
    ks = max(
        coordinate_ks(BodySpec(p, n), m, derive_seed(cfg.seed, "ks", int(p * 10), n))
        for p in ps
        for n in ns
    )
    return [
        {"name": "closed-form-consistency", "tolerance": 1e-6, "observed": spread},
        {"name": "recursion-identity", "tolerance": 1e-9, "observed": identity},
        {"name": "dual-involution", "tolerance": 1e-6, "observed": involution},
        {"name": "sampler-ks", "tolerance": 2.0 * 1.63 / math.sqrt(m), "observed": ks},
    ]


def cmd_validate(cfg: RunConfig, out: Path, timings: dict) -> int:
    checks = _validate_checks(cfg)
    for check in checks:
        check["passed"] = bool(check["observed"] <= check["tolerance"])
    all_pass = all(c["passed"] for c in checks)
    write_text(
        out / "validate.json",
        dumps_json({"checks": checks, "all_passed": all_pass}),
    )
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: observed {check['observed']:.3e} tol {check['tolerance']:.3e}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser / entry point

COMMANDS = {
    "estimate": cmd_estimate,
    "scan": cmd_scan,
    "meanwidth": cmd_scan,
    "directions": cmd_directions,
    "validate": cmd_validate,
    "tabulate-m": cmd_tabulate_m,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-polytope",
        description="Random-polytope support functions and mean widths via Orlicz inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMAND_OPTIONS.items():
        # no prefix matching: --dir must not pass as --dirs
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="flat key=value file or a manifest.json to replay")
        for key in keys:
            sp.add_argument(f"--{key}", dest=key, **OPTIONS[key][1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        timings: dict = {}
        code = COMMANDS[cfg.command](cfg, out, timings)
        timings["total_s"] = time.perf_counter() - t0
        write_manifest(cfg, out, timings)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, AccuracyError, RangeError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

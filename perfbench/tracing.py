"""Span tracing of the package's public functions, from outside the package.

A Tracer replaces selected module attributes of orlicz_polytope with
wrappers that record one span per call (name, start, end, parent) in flat
arrays.  Orlicz functions returned by the orlicz constructors get a wrapped
eval, so every M evaluation is a span named after its kind.  Only the traced
run installs the wrappers; timed runs import the package untouched.

Work done inside the MC oracles' worker processes is not traced: those
processes inherit the wrappers but their spans die with them.  It shows
through the estimators.mc_* spans of the parent.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import resource
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

EVAL_KINDS = ("pball-closed-form-1", "pball-closed-form-2", "tail-integral", "empirical", "power")

LAYER_METRICS = (
    ("mathkit.quad_calls", "count"),
    ("mathkit.quad_self_s", "s"),
    ("mathkit.quad_calls_per_m_eval", "ratio"),
    ("mathkit.quad_cumulative_s", "s"),
    ("orlicz.invert_calls", "count"),
    ("orlicz.m_evals", "count"),
    ("orlicz.m_evals_per_invert", "ratio"),
    ("orlicz.invert_ms_p50", "ms"),
    *((f"orlicz.m_evals.{k}", "count") for k in EVAL_KINDS),
    *((f"orlicz.m_eval_s.{k}", "s") for k in EVAL_KINDS),
    ("orlicz.empirical_build_s", "s"),
    ("orlicz.dual_evals", "count"),
    ("orlicz.dual_s", "s"),
    ("orlicz.tail_oracle_s", "s"),
    ("bodies.points", "count"),
    ("bodies.sample_s", "s"),
    ("bodies.points_per_s", "1/s"),
    ("bodies.histogram_self_s", "s"),
    ("estimators.mc_points", "count"),
    ("estimators.mc_s", "s"),
    ("estimators.mc_points_per_s", "1/s"),
    ("estimators.mc_cpu_s", "s"),
    ("estimators.orlicz_s", "s"),
    ("estimators.scan_self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
)

# counts that must repeat exactly between runs of one commit and seed (the
# bytes the CLI writes vary with the printed wall times, so they are not one)
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS if unit == "count")

SAMPLERS = ("bodies.project_uniform", "bodies.sample_uniform", "bodies.sample_norms")
MC_ORACLES = ("estimators.expected_support_mc", "estimators.mean_width_mc")


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.origin = perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        """fn with one span per call; post(result) may replace the result."""
        nid = self._id(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            return result if post is None else post(result)

        return traced

    # -- result hooks -------------------------------------------------------

    def _traced_eval(self, fn, name: str):
        # from_pball hands p = inf to from_cube: wrap each function once
        if getattr(fn.eval, "_perfbench_traced", False):
            return fn
        traced = self.wrap(name, fn.eval)
        traced._perfbench_traced = True
        return dataclasses.replace(fn, eval=traced)

    def _count_points(self, result):
        points = getattr(result, "points", result)
        self.counts["bodies.points"] += int(np.shape(points)[0])
        return result

    def _mc(self, name: str, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def with_cpu(*args, **kwargs):
            cpu0 = cpu_seconds()
            report = traced(*args, **kwargs)
            self.counts["estimators.mc_cpu_s"] += cpu_seconds() - cpu0
            self.counts["estimators.mc_points"] += int(report.meta["trials"]) * int(report.meta["N"])
            return report

        return with_cpu

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def counted(path, text):
            self.counts["cli.bytes_written"] += len(text.encode("utf-8"))
            return fn(path, text)

        return counted

    def stdout_sink(self):
        """A stdout replacement that counts what the CLI prints."""
        tracer = self

        class Sink:
            def write(self, text):
                tracer.counts["cli.bytes_written"] += len(text.encode("utf-8"))
                return len(text)

            def flush(self):
                pass

        return Sink()

    # -- installation -------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the public functions in every module that names them."""
        mk, bd, oz, es, cl = pkg.mathkit, pkg.bodies, pkg.orlicz, pkg.estimators, pkg.cli

        plan = {
            mk.quad_adaptive: self.wrap("mathkit.quad_adaptive", mk.quad_adaptive),
            mk.quad_cumulative: self.wrap("mathkit.quad_cumulative", mk.quad_cumulative),
            mk.sincos_recursion: self.wrap("mathkit.sincos_recursion", mk.sincos_recursion),
            bd.marginal_general: self.wrap("bodies.marginal_general", bd.marginal_general),
            oz.invert_for_support: self.wrap("orlicz.invert_for_support", oz.invert_for_support),
            oz.m_from_tail: self.wrap("orlicz.m_from_tail", oz.m_from_tail),
            oz.m_from_tail_alt: self.wrap("orlicz.m_from_tail_alt", oz.m_from_tail_alt),
            oz.legendre_dual: self.wrap(
                "orlicz.legendre_dual", oz.legendre_dual,
                post=lambda M: self._traced_eval(M, "orlicz.dual_eval"),
            ),
            es.expected_support_orlicz: self.wrap(
                "estimators.expected_support_orlicz", es.expected_support_orlicz),
            es.direction_measure_scan: self.wrap(
                "estimators.direction_measure_scan", es.direction_measure_scan),
            cl.main: self.wrap("cli.main", cl.main),
            cl.write_text: self._count_bytes(cl.write_text),
        }
        for name in SAMPLERS:
            fn = getattr(bd, name.split(".")[1])
            plan[fn] = self.wrap(name, fn, post=self._count_points)
        for name in MC_ORACLES:
            fn = getattr(es, name.split(".")[1])
            plan[fn] = self._mc(name, fn)
        for ctor in ("from_power", "from_cube", "from_pball", "from_tail", "from_empirical", "from_spherical"):
            fn = getattr(oz, ctor)
            plan[fn] = self.wrap(
                f"orlicz.{ctor}", fn, post=lambda M: self._traced_eval(M, f"orlicz.eval.{M.kind}"))
        originals = {id(fn): wrapped for fn, wrapped in plan.items()}
        for mod in (pkg.package, mk, bd, oz, es, cl):
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """All spans as JSON columns: name index, parent span index (-1 at
        the top) and start/end in microseconds since the tracer was made."""

        def micros(times):
            return np.rint((np.array(times) - self.origin) * 1e6).astype(np.int64).tolist()

        text = json.dumps({
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_us": micros(self.start),
            "end_us": micros(self.end),
        }, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        nested = parent >= 0
        child_time = np.zeros(dur.size)
        np.add.at(child_time, parent[nested], dur[nested])
        self_time = dur - child_time

        def mask(*names):
            ids = [self._ids[n] for n in names if n in self._ids]
            return np.isin(name_id, ids)

        def count(*names):
            return int(mask(*names).sum())

        def outer_time(*names):
            """Wall time covered by the spans, nested repeats counted once."""
            sel = mask(*names)
            nested_in_sel = np.zeros(sel.size, dtype=bool)
            anc = parent.copy()
            while (live := anc >= 0).any():
                nested_in_sel[live] |= sel[anc[live]]
                anc[live] = parent[anc[live]]
            return float(dur[sel & ~nested_in_sel].sum())

        def ratio(a, b):
            return a / b if b else 0.0

        evals = {k: count(f"orlicz.eval.{k}") for k in EVAL_KINDS}
        m_evals = sum(evals.values())
        inverts = mask("orlicz.invert_for_support")
        quad_calls = count("mathkit.quad_adaptive")
        points = self.counts["bodies.points"]
        sample_s = outer_time(*SAMPLERS)
        mc_points = self.counts["estimators.mc_points"]
        mc_s = outer_time(*MC_ORACLES)
        out = {
            "mathkit.quad_calls": quad_calls,
            "mathkit.quad_self_s": float(self_time[mask("mathkit.quad_adaptive")].sum()),
            "mathkit.quad_calls_per_m_eval": ratio(quad_calls, m_evals),
            "mathkit.quad_cumulative_s": outer_time("mathkit.quad_cumulative"),
            "orlicz.invert_calls": int(inverts.sum()),
            "orlicz.m_evals": m_evals,
            "orlicz.m_evals_per_invert": ratio(m_evals, int(inverts.sum())),
            "orlicz.invert_ms_p50": float(np.median(dur[inverts]) * 1e3) if inverts.any() else 0.0,
        }
        for k in EVAL_KINDS:
            out[f"orlicz.m_evals.{k}"] = evals[k]
        for k in EVAL_KINDS:
            out[f"orlicz.m_eval_s.{k}"] = outer_time(f"orlicz.eval.{k}")
        out.update({
            "orlicz.empirical_build_s": outer_time("orlicz.from_empirical"),
            "orlicz.dual_evals": count("orlicz.dual_eval"),
            "orlicz.dual_s": outer_time("orlicz.dual_eval"),
            "orlicz.tail_oracle_s": outer_time("orlicz.m_from_tail", "orlicz.m_from_tail_alt"),
            "bodies.points": points,
            "bodies.sample_s": sample_s,
            "bodies.points_per_s": ratio(points, sample_s),
            "bodies.histogram_self_s": float(self_time[mask("bodies.marginal_general")].sum()),
            "estimators.mc_points": mc_points,
            "estimators.mc_s": mc_s,
            "estimators.mc_points_per_s": ratio(mc_points, mc_s),
            "estimators.mc_cpu_s": float(self.counts["estimators.mc_cpu_s"]),
            "estimators.orlicz_s": outer_time("estimators.expected_support_orlicz"),
            "estimators.scan_self_s": float(self_time[mask("estimators.direction_measure_scan")].sum()),
            "cli.self_s": float(self_time[mask("cli.main")].sum()),
            "cli.bytes_written": int(self.counts["cli.bytes_written"]),
        })
        return out

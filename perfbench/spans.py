"""Span tracing around calls into qbath's modules, installed from outside.

The tracer replaces selected public functions with timing wrappers, in the
module that defines them and in every ``qbath`` module that imported them by
name, so calls made through either route are seen.  Each call records a span
(group, start, end, parent span, counts) in memory; per-layer metrics are
derived from the spans after a pass and the spans are written out at the end.
Functions the library no longer has are skipped, and their metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _size(pos: int, key: str):
    def count(args, kwargs):
        x = args[pos] if len(args) > pos else kwargs.get(key)
        return (int(np.size(x)),)

    return count


def _propagator_work(args, kwargs):
    """(sum of (2N+2)^3, sum of T (2N+2)^2): eigendecomposition and row reconstruction."""
    m = args[0] if args else kwargs["m"]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    dim = 2 * m.n_modes + 2
    return (dim**3, len(grid.t) * dim**2)


_eta3 = _size(3, "eta")

# group -> (names of the group's counts, {"module.function": count function or None})
GROUPS = {
    "cli.main": ((), {"cli.main": None}),
    "config.load_config": ((), {"config.load_config": None}),
    "model.validate_model": ((), {"model.validate_model": None}),
    "propagator.compute_propagator": (
        ("decomp_work", "recon_work"), {"propagator.compute_propagator": _propagator_work}),
    "propagator.post": ((), dict.fromkeys(
        ["propagator.sum_rule_defects", "propagator.decay_report", "propagator.plateau_window"])),
    "observables.purity": ((), {"observables.purity": None}),
    "observables.chi_eval": (("nodes",), {"observables.chi_eval": _size(4, "eta")}),
    "states.chi0_eval": (("nodes",), {"states.chi0_eval": _size(1, "w")}),
    "baths.F_eval": (("nodes",), {"baths.bath_F_eval": _eta3, "baths.number_F_eval": _eta3,
                                  "baths.gaussian_F_eval": _size(1, "eta")}),
    "laguerre.eval_scaled": (("points",), {"laguerre.eval_scaled": _size(1, "x")}),
    "observables.averaged_purity_number_ensemble": (
        (), {"observables.averaged_purity_number_ensemble": None}),
    "baths.sample": ((), dict.fromkeys(["baths.sample_number_state", "baths.sample_coherent_state"])),
    "baths.F_params": ((), dict.fromkeys(
        ["baths.equilibrium_F_params", "baths.coherent_F_params", "baths.bath_f_params"])),
    "observables.scalar": ((), dict.fromkeys(["observables.mean_xp", "observables.variances"])),
    "observables.observable_series": ((), {"observables.observable_series": None}),
    "mastereq.f_series_for": ((), {"mastereq.f_series_for": None}),
    "mastereq.generator_series": ((), {"mastereq.generator_series": None}),
    "mastereq.generator_residual": ((), {"mastereq.generator_residual": None}),
    "rwa.oracle": ((), dict.fromkeys(["rwa.purity_squeezed_rwa", "rwa.purity_cat_rwa"])),
    "rwa.min_purity_check": ((), {"rwa.min_purity_check": None}),
}

# per-layer metrics: name -> (group, quantity); quantity is calls, s, self_s or a count name
LAYER_METRICS = {
    "model.validate_model.calls": ("model.validate_model", "calls"),
    "model.validate_model.s": ("model.validate_model", "s"),
    "propagator.compute_propagator.calls": ("propagator.compute_propagator", "calls"),
    "propagator.compute_propagator.s": ("propagator.compute_propagator", "s"),
    "propagator.compute_propagator.self_s": ("propagator.compute_propagator", "self_s"),
    "propagator.decomp_work": ("propagator.compute_propagator", "decomp_work"),
    "propagator.recon_work": ("propagator.compute_propagator", "recon_work"),
    "propagator.post.s": ("propagator.post", "s"),
    "observables.purity.calls": ("observables.purity", "calls"),
    "observables.purity.s": ("observables.purity", "s"),
    "observables.purity.self_s": ("observables.purity", "self_s"),
    "observables.chi_eval.nodes": ("observables.chi_eval", "nodes"),
    "states.chi0_eval.nodes": ("states.chi0_eval", "nodes"),
    "states.chi0_eval.s": ("states.chi0_eval", "s"),
    "baths.F_eval.nodes": ("baths.F_eval", "nodes"),
    "baths.F_eval.s": ("baths.F_eval", "s"),
    "laguerre.eval_scaled.calls": ("laguerre.eval_scaled", "calls"),
    "laguerre.eval_scaled.points": ("laguerre.eval_scaled", "points"),
    "laguerre.eval_scaled.s": ("laguerre.eval_scaled", "s"),
    "observables.averaged_purity_number_ensemble.s": (
        "observables.averaged_purity_number_ensemble", "s"),
    "baths.sample.calls": ("baths.sample", "calls"),
    "baths.sample.s": ("baths.sample", "s"),
    "baths.F_params.calls": ("baths.F_params", "calls"),
    "baths.F_params.s": ("baths.F_params", "s"),
    "observables.scalar.calls": ("observables.scalar", "calls"),
    "observables.scalar.s": ("observables.scalar", "s"),
    "observables.observable_series.s": ("observables.observable_series", "s"),
    "mastereq.f_series_for.calls": ("mastereq.f_series_for", "calls"),
    "mastereq.f_series_for.s": ("mastereq.f_series_for", "s"),
    "mastereq.generator_series.calls": ("mastereq.generator_series", "calls"),
    "mastereq.generator_series.s": ("mastereq.generator_series", "s"),
    "mastereq.generator_residual.calls": ("mastereq.generator_residual", "calls"),
    "mastereq.generator_residual.s": ("mastereq.generator_residual", "s"),
    "rwa.oracle.calls": ("rwa.oracle", "calls"),
    "rwa.oracle.s": ("rwa.oracle", "s"),
    "rwa.min_purity_check.s": ("rwa.min_purity_check", "s"),
    "config.load_config.calls": ("config.load_config", "calls"),
    "config.load_config.s": ("config.load_config", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
# Quantities that are counted from the inputs and therefore repeat exactly.
EXACT = ("calls", "decomp_work", "recon_work", "nodes", "points")


def unit_of(metric: str) -> str:
    if metric.endswith((".s", ".self_s")):
        return "s"
    return {"cli.bytes_written": "B", "observables.nodes_per_purity": "nodes/purity",
            "trace.overhead_frac": "ratio"}.get(metric, "count")


@dataclass
class Span:
    group: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    counts: tuple
    ok: bool


class Tracer:
    """Wraps qbath functions with span recorders; ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn, count):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = perf()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf()
                stack.pop()
                spans[idx] = Span(group, start, end, parent,
                                  count(args, kwargs) if count else (), ok)

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "qbath") -> list[str]:
        """Wrap every traced function that exists; returns the ones missing."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        missing = []
        for group, (_, funcs) in GROUPS.items():
            for dotted, count in funcs.items():
                mod_name, fn_name = dotted.rsplit(".", 1)
                home = sys.modules.get(f"{package}.{mod_name}")
                orig = getattr(home, fn_name, None)
                if orig is None:
                    missing.append(dotted)
                    continue
                wrapper = self._wrap(group, orig, count)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        A group counts only its outermost spans, so a group member calling
        another member of the same group is not counted twice.  ``self_s``
        is a span's duration minus the time its traced children cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        totals: dict[str, dict[str, float]] = {}
        in_purity_nodes = 0
        purity_ok = 0
        for idx, sp in enumerate(spans):
            ancestors = []
            up = sp.parent
            while up >= 0:
                ancestors.append(spans[up].group)
                up = spans[up].parent
            if sp.group == "observables.chi_eval" and "observables.purity" in ancestors:
                in_purity_nodes += sp.counts[0]
            if sp.group in ancestors:
                continue
            if sp.group == "observables.purity" and sp.ok:
                purity_ok += 1
            t = totals.setdefault(sp.group, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = sp.end - sp.start
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child_time[idx]
            for name, value in zip(GROUPS[sp.group][0], sp.counts):
                t[name] = t.get(name, 0) + value
        out = {}
        for metric, (group, quantity) in LAYER_METRICS.items():
            value = totals.get(group, {}).get(quantity, 0)
            out[metric] = int(value) if quantity in EXACT else float(value)
        out["observables.nodes_per_purity"] = in_purity_nodes / purity_ok if purity_ok else 0.0
        return out

    def write(self, path: Path, job_names: list[str]) -> None:
        """Write the recorded spans as JSON lines; top-level spans carry their job name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        jobs = iter(job_names)
        with open(path, "w") as fh:
            for idx, sp in enumerate(self.spans):
                rec = {"id": idx, "name": sp.group, "start": sp.start, "end": sp.end,
                       "parent": sp.parent}
                if sp.parent < 0 and sp.group == "cli.main":
                    rec["job"] = next(jobs, None)
                fh.write(json.dumps(rec) + "\n")

"""Spans recorded from the benchmark's side of the mcie API.

Tracing rebinds, at every mcie module that holds a reference to them
(their import sites), the public functions listed in ``TRACED``; it also
rebinds ``numpy.linalg.eigh``, wraps ``MetricSpaceGrid`` construction and
swaps the problem's kernel callable for a counting wrapper.  Nothing under
``src/`` changes.  Functions are found by name wherever they live, so a
later refactor that moves one between modules keeps it traced; one that
removes it leaves its metrics at zero.

A span carries a name, start, end, parent index and request id.  Spans
stay in memory (``Tracer.spans``) until ``Tracer.dump`` writes them out.
Kernel, interpolation and ``eigh`` spans are named after the layer whose
span encloses them, so ``mc_volterra.interp`` is interpolation that the
Monte Carlo Volterra solve asked for and ``inference.eigh`` an
eigendecomposition inside covariance or quantile code.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Public mcie functions traced, by function name, with their span names.
# A leading "*" means the span takes the layer of the enclosing span.
TRACED = {
    "budget_consistent_partition": "sampling.schedule",
    "uniform_partition": "sampling.schedule",
    "asymptotic_partition": "sampling.schedule",
    "sample_measure": "sampling.draw",
    "build_grid": "problems.grid",
    "gauss_legendre_grid": "problems.grid",
    "probe_lipschitz": "problems.probe",
    "manufactured_case": "problems.case",
    "mc_solve_fredholm": "mc_fredholm.solve",
    "mc_solve_volterra": "mc_volterra.solve",
    "picard_solve": "deterministic.solve",
    "volterra_solve": "deterministic.solve",
    "interp_at": "*.interp",
    "interp_per_column": "*.interp",
    "limit_covariance": "inference.limit_cov",
    "estimate_covariance": "inference.estimate_cov",
    "estimate_covariance_volterra": "inference.estimate_cov",
    "gaussian_sup_quantile": "inference.quantile",
    "confidence_band": "inference.band",
    "coverage_study": "inference.coverage",
    "run": "cli.run",
}

# Eigenvalues above this share of the largest count towards the rank.
RANK_RTOL = 1e-12


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: "int | str"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._open: "list[int]" = []
        self.request: "int | str" = "setup"

    def layer(self) -> str:
        """Layer of the innermost open span, or ``request`` at top level."""
        for idx in reversed(self._open):
            prefix = self.spans[idx].name.split(".", 1)[0]
            if prefix != "cli":
                return prefix
        return "request"

    @contextmanager
    def span(self, name: str, **attrs):
        if name.startswith("*"):
            name = self.layer() + name[1:]
        parent = self._open[-1] if self._open else -1
        sp = Span(name, time.perf_counter(), math.nan, parent, self.request, attrs)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, "attrs": s.attrs}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


_ATTR_FUNCS = frozenset({
    "mc_solve_fredholm", "mc_solve_volterra", "sample_measure",
    "gaussian_sup_quantile", "estimate_covariance", "estimate_covariance_volterra",
})


def _call_attrs(fn, args, kwargs) -> dict:
    """Counts and shapes recorded on a span, from the call's arguments.

    Best effort: a later signature change drops the attribute, never the
    call, because the traced run must not fail where the untraced one
    passes.
    """
    fname = fn.__name__
    if fname not in _ATTR_FUNCS:
        return {}
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if fname in ("mc_solve_fredholm", "mc_solve_volterra"):
            return {"sizes": [int(q) for q in a["schedule"].sizes]}
        if fname == "sample_measure":
            return {"draws": int(a["count"])}
        if fname == "gaussian_sup_quantile":
            cov = a["cov"]
            n = np.shape(getattr(cov, "matrix", cov))[0]
            return {"n": int(n), "gauss_bytes": int(a["n_sim"]) * int(n) * 8}
        if fname == "estimate_covariance":
            samples = a["samples"]
            n = len(samples) if samples is not None else sum(
                len(it.samples) for it in a["iterates"])
            rows = a["problem"].grid.size
            return {"cov_block_bytes": rows * n * 8}
        if fname == "estimate_covariance_volterra":
            draws = a["draws"]
            n = len(draws[1]) if draws is not None else sum(
                len(it.xi) for it in a["iterates"])
            p = a["problem"]
            rows = len(p.tau_grid) * p.grid.size
            return {"cov_block_bytes": rows * n * 8}
    except (AttributeError, KeyError, TypeError, IndexError, ValueError):
        pass
    return {}


def _grid_points(args, kwargs) -> dict:
    pts = kwargs.get("points", args[0] if args else None)
    try:
        return {"points": int(np.shape(pts)[0])}
    except (TypeError, IndexError):
        return {}


def _eigh_attrs(result) -> dict:
    w = np.asarray(result[0])
    top = float(np.max(w)) if w.size else 0.0
    rank = int(np.sum(w > RANK_RTOL * top)) if top > 0.0 else 0
    return {"n": int(w.shape[-1]) if w.ndim else 0, "rank": rank}


class Instrumentation:
    """Installs and removes the traced rebindings for one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: "list[tuple[object, str, object, bool]]" = []
        self._wrappers: dict = {}

    def _wrap(self, fn, span_name: str):
        if fn in self._wrappers:
            return self._wrappers[fn]
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _call_attrs(fn, args, kwargs)
            with tracer.span(span_name, **attrs):
                return fn(*args, **kwargs)

        self._wrappers[fn] = traced
        return traced

    def _set(self, owner, name: str, value, frozen: bool = False) -> None:
        self._undo.append((owner, name, getattr(owner, name), frozen))
        (object.__setattr__ if frozen else setattr)(owner, name, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mcie" or n.startswith("mcie.")) and m is not None]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if (inspect.isfunction(value)
                        and getattr(value, "__module__", "").startswith("mcie")
                        and value.__name__ in TRACED):
                    self._set(mod, name, self._wrap(value, TRACED[value.__name__]))
        tracer = self.tracer
        eigh = np.linalg.eigh

        @functools.wraps(eigh)
        def traced_eigh(*args, **kwargs):
            with tracer.span("*.eigh") as sp:
                result = eigh(*args, **kwargs)
                sp.attrs.update(_eigh_attrs(result))
                return result

        self._set(np.linalg, "eigh", traced_eigh)
        grid_cls = getattr(sys.modules.get("mcie.problems"), "MetricSpaceGrid", None)
        if grid_cls is not None:
            init = grid_cls.__init__

            @functools.wraps(init)
            def traced_init(obj, *args, **kwargs):
                with tracer.span("problems.grid", **_grid_points(args, kwargs)):
                    init(obj, *args, **kwargs)

            self._set(grid_cls, "__init__", traced_init)
        # Cases built inside a request get the counting kernel too.
        for mod in modules:
            build = vars(mod).get("manufactured_case")
            if build is not None and mod.__name__ != "mcie.problems":
                self._set(mod, "manufactured_case", self._case_with_counting_kernel(build))

    def _case_with_counting_kernel(self, build):
        @functools.wraps(build)
        def traced(*args, **kwargs):
            case = build(*args, **kwargs)
            self.swap_kernel(case.problem)
            return case

        return traced

    def swap_kernel(self, problem) -> None:
        """Replace ``problem.kernel`` with a counting wrapper, undone by remove."""
        kernel = problem.kernel
        volterra = hasattr(problem, "tau_grid")
        point_args = (1, 3) if volterra else (0, 1)
        sample_arg = 4 if volterra else 2
        strip = problem.grid.dim > 1
        tracer = self.tracer

        def counting_kernel(*args):
            shapes = [np.shape(a) for a in args]
            try:
                if strip:
                    for i in point_args:
                        shapes[i] = shapes[i][:-1]
                evals = math.prod(np.broadcast_shapes(*shapes))
                samples = shapes[sample_arg][-1] if shapes[sample_arg] else 1
            except (IndexError, ValueError):  # a call layout this wrapper does not know
                evals = samples = 0
            with tracer.span("*.kernel", evals=int(evals), samples=int(samples)):
                return kernel(*args)

        # Problem classes are frozen dataclasses; the swap bypasses that on
        # purpose and is reverted in remove().
        self._set(problem, "kernel", counting_kernel, frozen=True)

    def remove(self) -> None:
        while self._undo:
            owner, name, value, frozen = self._undo.pop()
            (object.__setattr__ if frozen else setattr)(owner, name, value)

    @contextmanager
    def active(self, request, problem=None):
        """Trace one request: install, run, always uninstall."""
        self.tracer.request = request
        self.install()
        if problem is not None:
            self.swap_kernel(problem)
        try:
            with self.tracer.span("request"):
                yield
        finally:
            self.remove()


# ---------------------------------------------------------------- metrics

def _self_times(spans: "list[Span]") -> "list[float]":
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def request_layer_metrics(spans: "list[Span]", offset: int) -> dict:
    """Per-layer figures of one traced request.

    ``spans`` is the tracer's full list and ``offset`` the index of the
    request's root span; parents are indices into the full list.
    """
    own = spans[offset:]
    selfs = _self_times(spans)[offset:]
    out: "dict[str, float]" = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    def nearest(idx: int, name: str) -> "Span | None":
        p = spans[idx].parent
        while p >= offset:
            if spans[p].name == name:
                return spans[p]
            p = spans[p].parent
        return None

    def outermost(idx: int) -> bool:
        name, p = spans[idx].name, spans[idx].parent
        while p >= offset:
            if spans[p].name == name:
                return False
            p = spans[p].parent
        return True

    inclusive = {
        "sampling.schedule": "sampling.schedule_s",
        "sampling.draw": "sampling.draw_s",
        "mc_fredholm.solve": "mc_fredholm.solve_s",
        "mc_volterra.solve": "mc_volterra.solve_s",
        "mc_volterra.interp": "mc_volterra.interp_s",
        "deterministic.solve": "deterministic.solve_s",
        "deterministic.interp": "deterministic.interp_s",
        "inference.limit_cov": "inference.limit_cov_s",
        "inference.quantile": "inference.quantile_s",
        "inference.eigh": "inference.eigh_s",
        "inference.estimate_cov": "inference.estimate_cov_s",
        "problems.grid": "problems.grid_s",
        "problems.probe": "problems.probe_s",
    }
    for i, (s, self_s) in enumerate(zip(own, selfs)):
        idx = offset + i
        a = s.attrs
        if s.name in inclusive and outermost(idx):
            add(inclusive[s.name], s.duration)
        if s.name.startswith("cli."):
            add("cli.self_s", self_s)
        elif s.name == "sampling.draw":
            add("sampling.draws", a.get("draws", 0))
        elif s.name == "problems.grid" and "points" in a:
            add("problems.grid_points", a["points"])
        elif s.name == "mc_volterra.interp":
            add("mc_volterra.interp_calls", 1)
        elif s.name == "inference.eigh":
            add("inference.eigh_calls", 1)
        elif s.name == "inference.quantile":
            add("inference.gauss_bytes", a.get("gauss_bytes", 0))
            out["inference.cov_n"] = max(out.get("inference.cov_n", 0), a.get("n", 0))
        elif s.name == "inference.estimate_cov":
            add("inference.cov_block_bytes", a.get("cov_block_bytes", 0))
        elif s.name.endswith(".kernel"):
            layer = s.name.split(".", 1)[0]
            evals = a.get("evals", 0)
            if layer == "mc_fredholm":
                solve = nearest(idx, "mc_fredholm.solve")
                last = solve.attrs.get("sizes", [None])[-1] if solve else None
                part = "grid" if a.get("samples") == last else "handoff"
                add(f"mc_fredholm.{part}_evals", evals)
                add(f"mc_fredholm.{part}_s", s.duration)
            elif layer in ("mc_volterra", "deterministic"):
                add(f"{layer}.kernel_evals", evals)
        if s.name == "inference.eigh" and nearest(idx, "inference.quantile"):
            out["inference.cov_rank"] = max(
                out.get("inference.cov_rank", 0), a.get("rank", 0))
    kernel_s = out.get("mc_fredholm.handoff_s", 0.0) + out.get("mc_fredholm.grid_s", 0.0)
    evals = out.get("mc_fredholm.handoff_evals", 0) + out.get("mc_fredholm.grid_evals", 0)
    out["mc_fredholm.evals_per_s"] = evals / kernel_s if kernel_s > 0 else 0.0
    return out


def median_of(rows: "list[dict]", key: str) -> float:
    vals = [r.get(key, 0.0) for r in rows]
    return float(statistics.median(vals)) if vals else 0.0

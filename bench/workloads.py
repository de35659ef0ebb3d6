"""The benchmark workloads: set-up, one request, and its output check.

BENCHMARK.json declares ``volt-band`` and ``fred-2d``; ``fred-coverage``
and ``volt-exp-coverage`` run by name and in ``--workload all`` but are
not gated (see NOTES.md).

Three workloads send a CLI argv to ``mcie.cli.run`` in-process with
stdout captured; ``fred-2d`` runs the README's library call sequence on a
2-D problem defined here.  Request ``i`` of a run uses seed ``seed + i``.

numpy is imported inside functions only: the benchmark times
``import mcie`` (which imports numpy) as part of set-up, so importing
this module must not load numpy first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    request: str
    setup: Callable
    run: Callable
    check: Callable


# ------------------------------------------------------------------ CLI


def _cli_setup(case_id: str) -> Callable:
    def setup(mcie):
        return mcie.manufactured_case(case_id)

    return setup


def _cli_run(argv: "list[str]") -> Callable:
    def run(mcie, state, seed: int) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mcie.cli.run(argv + ["--seed", str(seed)])
        try:
            payload = json.loads(out.getvalue())
        except json.JSONDecodeError:
            payload = None
        return {"code": code, "payload": payload, "stderr": err.getvalue()}

    return run


def _non_finite(value, path: str = "") -> "list[str]":
    """Paths of JSON numbers that are NaN or infinite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [path or "<root>"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    return [f"{path}: unexpected {type(value).__name__}"]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cli_check(command: str, case_id: str) -> Callable:
    def check(result: dict) -> "list[str]":
        if result["code"] != 0:
            return [f"exit code {result['code']}: {result['stderr'].strip()}"]
        p = result["payload"]
        if not isinstance(p, dict):
            return ["stdout is not a JSON object"]
        bad = [f"non-finite number at {path}" for path in _non_finite(p)]
        if p.get("command") != command or p.get("case") != case_id:
            bad.append(f"payload is for {p.get('command')} {p.get('case')}")
        if "sizes" in p and sum(p["sizes"]) != p.get("effective_budget"):
            bad.append(f"sizes {p['sizes']} do not sum to {p.get('effective_budget')}")
        if not _is_number(p.get("halfwidth")) or not p["halfwidth"] > 0:
            bad.append(f"halfwidth {p.get('halfwidth')!r} is not positive")
        if command == "coverage":
            cov = p.get("coverage")
            if not _is_number(cov) or not 0.0 <= cov <= 1.0:
                bad.append(f"coverage {cov!r} outside [0, 1]")
        return bad

    return check


def _cli_workload(name: str, argv: "list[str]") -> Workload:
    case_id = argv[argv.index("--case") + 1]
    return Workload(
        name,
        "mcie " + " ".join(argv),
        _cli_setup(case_id),
        _cli_run(argv),
        _cli_check(argv[0], case_id),
    )


# ------------------------------------------------------------- fred-2d

FRED2D_GRID = 33
FRED2D_N = 10_000
FRED2D_M = 3
FRED2D_LEVEL = 0.95
FRED2D_RHO = 0.4


def _fred2d_setup(mcie):
    """2-D Fredholm problem on [0,1]^2 whose solution is pi/2.

    K(t, s, z) = 0.4 cos(t.s) sin z.  With c(x) = (e^{ix} - 1)/(ix) and
    c(0) = 1, the integral of cos(t.s) over the unit square is
    Re[c(t1) c(t2)], so f = pi/2 - 0.4 Re[c(t1) c(t2)] makes the constant
    pi/2 the fixed point (sin(pi/2) = 1).
    """
    import numpy as np

    def c(x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < 1e-12
        safe = np.where(small, 1.0, x)
        return np.where(small, 1.0 + 0j, (np.exp(1j * safe) - 1.0) / (1j * safe))

    def f(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * np.pi - FRED2D_RHO * np.real(c(t[..., 0]) * c(t[..., 1]))

    def kernel(t, s, z):
        dot = np.sum(np.asarray(t) * np.asarray(s), axis=-1)
        return FRED2D_RHO * np.cos(dot) * np.sin(z)

    grid = mcie.build_grid(FRED2D_GRID, dim=2)
    return mcie.FredholmProblem(
        f, kernel, FRED2D_RHO, mcie.MeasureSpec.uniform_cube(2), grid, name="fred-2d"
    )


def _fred2d_run(mcie, problem, seed: int) -> dict:
    # Module attributes are looked up per call so traced rebindings apply.
    schedule = mcie.budget_consistent_partition(FRED2D_N, FRED2D_M)
    stream = mcie.RandomStream(seed)
    iterates = mcie.mc_solve_fredholm(problem, schedule, stream)
    estimate = iterates[-1].grid_values
    det = mcie.picard_solve(problem, FRED2D_M)
    cov = mcie.estimate_covariance(problem, iterates)
    band = mcie.confidence_band(estimate, cov, schedule.sizes[-1], FRED2D_LEVEL, stream)
    delta0 = det[1].sup_distance(det[0])
    return {
        "sizes": list(schedule.sizes),
        "budget": FRED2D_N,
        "halfwidth": float(band.halfwidth),
        "estimate_finite": bool(all(map(math.isfinite, estimate.tolist()))),
        "det_gap": float(max(abs(v - 0.5 * math.pi) for v in det[-1].values.tolist())),
        "iteration_bound": mcie.apriori_error_bound(problem.rho, delta0, FRED2D_M),
    }


def _fred2d_check(result: dict) -> "list[str]":
    bad = [f"non-finite number at {p}" for p in _non_finite(result)]
    if sum(result["sizes"]) != result["budget"]:
        bad.append(f"sizes {result['sizes']} do not sum to {result['budget']}")
    if not result["halfwidth"] > 0:
        bad.append(f"halfwidth {result['halfwidth']!r} is not positive")
    if not result["estimate_finite"]:
        bad.append("estimate has non-finite values")
    if not result["det_gap"] <= result["iteration_bound"]:
        bad.append(
            f"deterministic iterate is {result['det_gap']:.3e} from pi/2, "
            f"beyond the a-priori bound {result['iteration_bound']:.3e}"
        )
    return bad


# ------------------------------------------------------------ registry

WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        _cli_workload(
            "fred-coverage",
            ["coverage", "--case", "fred-smooth", "--N", "100000", "--m", "3",
             "--level", "0.9", "--reps", "2"],
        ),
        _cli_workload(
            "volt-band",
            ["band", "--case", "volt-smooth", "--N", "10000", "--m", "3",
             "--level", "0.95"],
        ),
        _cli_workload(
            "volt-exp-coverage",
            ["coverage", "--case", "volt-exp", "--N", "20000", "--m", "4",
             "--reps", "2"],
        ),
        Workload(
            "fred-2d",
            "library flow: build_grid(33, dim=2); FredholmProblem(f, "
            "0.4 cos(t.s) sin z, rho=0.4, uniform_cube(2)); mc_solve_fredholm "
            "N=1e4 m=3; picard_solve; estimate_covariance; confidence_band 0.95",
            _fred2d_setup,
            _fred2d_run,
            _fred2d_check,
        ),
    )
}

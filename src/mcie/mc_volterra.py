"""Staged Monte Carlo iteration for the time-dependent (Volterra) equation.

The inner integral over [0, tau] is rescaled to the unit interval, so a
stage draws a time fraction eta uniformly besides the spatial point xi
and evaluates tau * K(tau, y, tau * eta, xi, X(tau * eta, xi)).  The
previous iterate is tabulated on the check-time axis at each stage's own
spatial draws and interpolated in tau with a sliding degree-5 stencil.
Every stage after the first keeps its (eta, xi) pairs in ascending eta,
so at each check time the interpolation reads the previous table at
ascending abscissae and walks its columns in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import interp_per_column
from .errors import InvalidSpecError, check_int
from .problems import VolterraProblem, _as_full, _stage_draws, _volterra_kernel_rows
from .sampling import ROLE_ETA, PartitionSchedule, RandomStream

__all__ = [
    "VolterraStageIterate",
    "mc_solve_volterra",
    "volterra_cauchy_demo",
    "CauchyDemoResult",
]


@dataclass(frozen=True)
class VolterraStageIterate:
    """State of the Monte Carlo iterate after one stage.

    ``eta`` and ``xi`` are stage k's time-fraction and spatial draws:
    in stream order for stage 1, and for every later stage the same
    pairs reordered by one stable sort on ``eta``, so ``eta`` ascends.
    ``table`` holds this iterate on the check times at the next stage's
    spatial draws (absent for the final stage); ``grid_table`` holds it
    on the check times at the grid points (final stage only).
    """

    stage: int
    eta: np.ndarray
    xi: np.ndarray
    table: "np.ndarray | None"
    grid_table: "np.ndarray | None"


def _iterate_at(problem: VolterraProblem, xi: np.ndarray, prev_cols: "np.ndarray | None"):
    """X at the draws xi as a function of their times u and the check-time index (unused).

    ``prev_cols`` tabulates X on the check times at those draws (None: the
    forcing term, evaluated directly so no interpolation error enters at
    stage one).  A column slice of a table is copied once here, so the
    interpolation at each check time does not copy it again.
    """
    if prev_cols is None:
        return lambda u, a: _as_full(problem.f(u, xi), (xi.shape[0],))
    table = np.ascontiguousarray(prev_cols, dtype=float)
    return lambda u, a: interp_per_column(problem.tau_grid, table, u)


def _stage_table(
    problem: VolterraProblem,
    eta: np.ndarray,
    xi: np.ndarray,
    prev_cols: "np.ndarray | None",
    targets: np.ndarray,
) -> np.ndarray:
    """Tabulate the stage's iterate on tau_grid x targets."""
    t = np.asarray(targets, dtype=float)
    n_t = t.shape[0]
    out = np.empty((problem.tau_grid.shape[0], n_t))
    z_at = _iterate_at(problem, xi, prev_cols)
    rows = _volterra_kernel_rows(problem, eta, xi, z_at, t, mean=True)
    for a, (tau_a, row) in enumerate(rows):
        out[a] = _as_full(problem.f(tau_a, t), (n_t,)) + tau_a * row
    return out


def mc_solve_volterra(
    problem: VolterraProblem,
    schedule: PartitionSchedule,
    stream: RandomStream,
    replication: int = 0,
) -> "list[VolterraStageIterate]":
    """Run the staged iteration; returns one record per stage.

    Time fractions come from lanes ``(ROLE_ETA, replication, k)`` and
    spatial draws from ``(ROLE_XI, replication, k)``, so runs with equal
    arguments agree bit for bit regardless of scheduling.  Stages k >= 2
    hold their pairs in ascending eta (see :class:`VolterraStageIterate`).
    """
    xis = _stage_draws(problem.measure, schedule, stream, replication)
    m = schedule.stages
    etas = [
        stream.generator(ROLE_ETA, replication, k).random(q)
        for k, q in enumerate(schedule.sizes, start=1)
    ]
    # Stage k - 1 tabulates at stage k's draws in this order, so its table's
    # columns follow the ascending abscissae tau * eta that read them.
    # Stage 1 reads the forcing term directly and keeps stream order.
    for k in range(1, m):
        order = np.argsort(etas[k], kind="stable")
        etas[k], xis[k] = etas[k][order], xis[k][order]
    iterates: "list[VolterraStageIterate]" = []
    prev_cols: "np.ndarray | None" = None
    for k in range(1, m + 1):
        eta, xi = etas[k - 1], xis[k - 1]
        table = None
        grid_table = None
        if k < m:
            table = _stage_table(problem, eta, xi, prev_cols, xis[k])
        else:
            grid_table = _stage_table(problem, eta, xi, prev_cols, problem.grid.points)
        iterates.append(VolterraStageIterate(k, eta, xi, table, grid_table))
        prev_cols = table
    return iterates


@dataclass(frozen=True)
class CauchyDemoResult:
    """Replicated estimates of the exponential case at tau = 1."""

    estimate: float
    stderr: float
    target: float
    values: tuple
    stages: int
    budget: int

    @property
    def deviation_sigmas(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.estimate == self.target else float("inf")
        return abs(self.estimate - self.target) / self.stderr


def volterra_cauchy_demo(
    m: int,
    budget: int,
    stream: RandomStream,
    replications: int = 16,
) -> CauchyDemoResult:
    """Solve the K = z, f = 1 case and compare X_m^m(1) to the Taylor sum.

    The deterministic iterate m is exactly the degree-m Taylor partial
    sum of exp at 1, so the replicated Monte Carlo mean should sit within
    a few standard errors of it.  The case runs on 17 check times, and the
    schedule front-loads a few thousand draws on the early stages and
    spends the rest on the last.
    """
    from .problems import manufactured_case

    check_int(m, 1, "stage count m must be a positive integer")
    check_int(budget, 1, "budget must be a positive integer")
    check_int(replications, 2, "need at least 2 replications for a standard error")
    sizes = [max(1, round(budget / 50 * 4.0 ** (1 - k))) for k in range(1, m)]
    rest = budget - sum(sizes)
    if rest < 1:
        raise InvalidSpecError(f"budget {budget} too small for {m} stages")
    sizes.append(rest)
    schedule = PartitionSchedule.from_sizes(sizes, budget)
    case = manufactured_case("volt-exp", tau_n=17)
    target = float(sum(1.0 / math.factorial(k) for k in range(m + 1)))
    values = []
    for rep in range(replications):
        run = mc_solve_volterra(case.problem, schedule, stream, replication=rep)
        values.append(float(run[-1].grid_table[-1, 0]))
    arr = np.asarray(values)
    est = float(np.mean(arr))
    stderr = float(np.std(arr, ddof=1) / np.sqrt(replications))
    return CauchyDemoResult(est, stderr, target, tuple(values), m, budget)

"""Deterministic successive approximation and the matching error bounds.

These solvers integrate with the grid's quadrature weights instead of
random draws.  They provide reference iterates for the Monte Carlo
solvers and the a priori bounds used to widen confidence bands when the
target is the true fixed point rather than the m-th iterate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, check_int
from .problems import (
    _NU_NODES,
    FredholmProblem,
    MetricSpaceGrid,
    VolterraProblem,
    _kernel_values,
    _one_blas_thread,
    _volterra_integrals,
)

__all__ = [
    "FunctionOnGrid",
    "TauProductFunction",
    "picard_step",
    "picard_solve",
    "apriori_error_bound",
    "volterra_step",
    "volterra_solve",
    "volterra_tail_bound",
    "interp_at",
    "interp_per_column",
]


@dataclass(frozen=True)
class FunctionOnGrid:
    """Values of a function at the grid points."""

    grid: MetricSpaceGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise InvalidSpecError(
                f"values have shape {v.shape}, grid has {self.grid.size} points"
            )
        object.__setattr__(self, "values", v)

    def sup_distance(self, other: "FunctionOnGrid") -> float:
        return float(np.max(np.abs(self.values - other.values)))


@dataclass(frozen=True)
class TauProductFunction:
    """Values of a function on the product of check times and grid points."""

    tau: np.ndarray
    grid: MetricSpaceGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.tau, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (t.shape[0], self.grid.size):
            raise InvalidSpecError(
                f"values have shape {v.shape}, expected {(t.shape[0], self.grid.size)}"
            )
        object.__setattr__(self, "tau", t)
        object.__setattr__(self, "values", v)

    def sup_distance(self, other: "TauProductFunction") -> float:
        return float(np.max(np.abs(self.values - other.values)))


@_one_blas_thread
def picard_step(
    problem: FredholmProblem, x: "FunctionOnGrid | None" = None
) -> FunctionOnGrid:
    """One successive-approximation step with quadrature integration.

    ``x=None`` returns the zeroth iterate, the forcing term itself.  The
    quadrature sums over the grid are taken chunk by chunk as the kernel
    is evaluated (:func:`~mcie.problems._kernel_rows` with ``weights``),
    so no grid x grid block is formed: a step holds one kernel chunk,
    2 MiB of coordinate product at most, on each worker.
    """
    pts = problem.grid.points
    if x is None:
        return FunctionOnGrid(problem.grid, np.asarray(problem.f(pts), dtype=float))
    if x.grid is not problem.grid and x.grid.size != problem.grid.size:
        raise InvalidSpecError("iterate lives on a different grid")
    sums = _kernel_values(problem, pts, pts, x.values, weights=problem.grid.weights)
    vals = np.asarray(problem.f(pts), dtype=float) + sums
    return FunctionOnGrid(problem.grid, vals)


def _check(m: int, delta0: float = 0.0) -> None:
    """Raise unless ``delta0`` is finite and non-negative and ``m`` a non-negative integer."""
    if not (delta0 >= 0.0) or not math.isfinite(delta0):
        raise InvalidSpecError("delta0 must be a finite non-negative number")
    check_int(m, 0, "iteration count must be a non-negative integer")


def _iterates(step, problem, m: int) -> list:
    """``step``'s iterates 0 .. m: ``step(problem)``, then ``step(problem, previous)``."""
    _check(m)
    out = [step(problem)]
    for _ in range(m):
        out.append(step(problem, out[-1]))
    return out


def picard_solve(problem: FredholmProblem, m: int) -> "list[FunctionOnGrid]":
    """Iterates x_0 .. x_m of successive approximation."""
    return _iterates(picard_step, problem, m)


def apriori_error_bound(rho: float, delta0: float, m: int) -> float:
    """Sup-norm gap between iterate m and the fixed point.

    ``delta0`` is the sup distance between the first two iterates; the
    contraction argument gives ``delta0 * rho**m / (1 - rho)``.
    """
    if not (0.0 < rho < 1.0):
        raise InvalidSpecError("rho must lie strictly between 0 and 1")
    _check(m, delta0)
    return float(delta0 * rho**m / (1.0 - rho))


def volterra_tail_bound(lip: float, delta0: float, m: int) -> float:
    """Sup-norm gap between Volterra iterate m and the fixed point.

    Equals ``delta0`` times the tail sum over n >= m of ``lip**n / n!``,
    accumulated term by term from the smallest index so no cancellation
    of almost-equal exponential partial sums occurs.
    """
    if not (lip >= 0.0) or not math.isfinite(lip):
        raise InvalidSpecError("lip must be a finite non-negative number")
    _check(m, delta0)
    term = lip**m / math.factorial(m)
    total = 0.0
    n = m
    while term > 1e-18 * (1.0 + total) and n < m + 500:
        total += term
        n += 1
        term *= lip / n
    return float(delta0 * total)


@functools.lru_cache(maxsize=8)
def _window_denominators(key: bytes) -> np.ndarray:
    """Lagrange denominators of every window of one node set.

    ``key`` is the float64 node array's bytes.  Windows hold ``order =
    min(6, len(nodes))`` consecutive nodes; entry ``[i, j]`` holds
    prod_{k != i}(s_i - s_k) over the window s = nodes[j : j + order], so
    row ``i`` serves window slot ``i``.  The nodes must be finite and
    strictly increasing.  The result is read-only because every caller
    with the same nodes shares it.
    """
    nodes = np.frombuffer(key, dtype=float)
    order = min(6, nodes.shape[0])
    if order < 1:
        raise InvalidSpecError("interpolation needs at least one node")
    if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0.0)):
        raise InvalidSpecError("interpolation nodes must be finite and strictly increasing")
    idx = np.arange(nodes.shape[0] - order + 1)[:, None] + np.arange(order)[None, :]
    s = nodes[idx]
    diff = s[:, :, None] - s[:, None, :]
    np.einsum("jii->ji", diff)[...] = 1.0
    denom = np.ascontiguousarray(diff.prod(axis=2).T)
    denom.flags.writeable = False
    return denom


def _interp_windows(nodes: np.ndarray, queries: np.ndarray):
    """Sliding-window Lagrange weights: returns (start, weights).

    Each query gets a window of six consecutive nodes around it (all
    nodes if there are fewer), starting at node ``start[k]``, and the
    classic Lagrange weights on that window: ``weights[o, k]`` belongs to
    node ``start[k] + o``, one row per window slot, so every step below
    runs along the query axis.  A query that hits a node exactly gets a
    one-hot column.  Exact for polynomials of degree below the window
    size.  The window denominators come from
    :func:`_window_denominators`, computed once per node set, so a call
    costs O(order) per query.  Nodes must be a finite, strictly
    increasing 1-D array and queries must lie in their range (NaN does
    not), or ``InvalidSpecError`` is raised.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1:
        raise InvalidSpecError("interpolation nodes must be a 1-D array")
    denoms = _window_denominators(nodes.tobytes())
    q = np.asarray(queries, dtype=float)
    if q.size and not (q.min() >= nodes[0] - 1e-12 and q.max() <= nodes[-1] + 1e-12):
        raise InvalidSpecError("interpolation abscissa outside the tabulated range")
    order = denoms.shape[0]
    pos = np.searchsorted(nodes, q)
    start = np.clip(pos - order // 2, 0, nodes.shape[0] - order)
    d = nodes[start + np.arange(order)[:, None]]
    np.subtract(q, d, out=d)
    prod_all = d.prod(axis=0)
    near = np.abs(d) < 1e-14
    d *= np.take(denoms, start, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(prod_all, d, out=d)
    if near.any():
        hit = near.any(axis=0)
        w[:, hit] = 0.0
        w[near] = 1.0
    return start, w


def interp_at(nodes: np.ndarray, table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Interpolate every column of ``table`` at the same abscissae.

    ``table`` has nodes along axis 0; the result has shape
    ``(len(queries), table.shape[1])``.  Uses sliding six-node
    (degree-5) Lagrange windows, summed slot by slot into the output, so
    no (6, queries, columns) array is formed.
    """
    start, w = _interp_windows(nodes, queries)
    table = np.asarray(table, dtype=float)
    out = np.take(table, start, axis=0)
    out *= w[0][:, None]
    part = np.empty_like(out)
    for o in range(1, w.shape[0]):
        np.take(table, start + o, axis=0, out=part)
        part *= w[o][:, None]
        out += part
    return out


def interp_per_column(
    nodes: np.ndarray, table: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Interpolate column j of ``table`` at its own abscissa ``queries[j]`` (six-node windows).

    A table that is not C-contiguous is copied first.
    """
    table = np.ascontiguousarray(table, dtype=float)
    n_cols = table.shape[1]
    if n_cols != np.shape(queries)[0]:
        raise InvalidSpecError("need exactly one abscissa per column")
    start, w = _interp_windows(nodes, queries)
    # table[start + o, j] is entry (start + o) * n_cols + j of the flat table.
    at = (start * n_cols + np.arange(n_cols)) + n_cols * np.arange(w.shape[0])[:, None]
    w *= table.ravel()[at]
    return w.sum(axis=0)


def volterra_step(
    problem: VolterraProblem, x: "TauProductFunction | None" = None
) -> TauProductFunction:
    """One successive-approximation step for the time-dependent equation.

    The inner time integral over [0, tau] is rescaled to the unit
    interval and evaluated with 32 Gauss-Legendre nodes; the iterate is
    interpolated in tau with a sliding degree-5 stencil.  ``x=None``
    returns the zeroth iterate, the forcing term.
    """
    tau = problem.tau_grid
    fvals = problem._f_product(tau, problem.grid.points)
    if x is None:
        return TauProductFunction(tau, problem.grid, fvals)
    integrals = _volterra_integrals(problem, _NU_NODES, lambda u: interp_at(tau, x.values, u))
    return TauProductFunction(tau, problem.grid, fvals + integrals)


def volterra_solve(problem: VolterraProblem, m: int) -> "list[TauProductFunction]":
    """Iterates X_0 .. X_m of successive approximation (see :func:`volterra_step`)."""
    return _iterates(volterra_step, problem, m)

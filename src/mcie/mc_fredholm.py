"""Staged Monte Carlo iteration for Fredholm problems.

Each stage spends a disjoint block of draws from the partition schedule.
Stage k evaluates the previous stage's iterate only at that stage's own
draws, so the whole run costs sum(q(k) * q(k+1)) kernel calls plus a
final pass over the evaluation grid, n_grid * q(m), instead of the N**2
cost of naive resampling.  The final pass also factors its centred
summands for :func:`~mcie.inference.estimate_covariance`, which then calls
no kernel: one pass of n_grid * q(m) kernel entries serves both the grid
values and their estimated covariance wherever the factor's basis fits
(see :class:`StageIterate`).  All reductions run in a fixed
order; a run is a pure function of (problem, schedule, seed, replication).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import problems
from .errors import NonFiniteKernelError
from .problems import (
    FredholmProblem,
    _as_full,
    _kernel_values,
    _one_blas_thread,
    _pair,
    _row_chunks,
    _stage_draws,
)
from .sampling import PartitionSchedule, RandomStream

__all__ = [
    "StageIterate",
    "mc_solve_fredholm",
]

# A row block's residual is dropped once its trace is at most its share of
# the rows times this share of the largest squared row norm so far (or its
# own floor, where that is larger), so the remainders of all blocks total
# at most this share of the largest squared row norm.  A remainder is orthogonal to the directions found up to its
# block but not to later ones, so it can reach F F^T to first order: on
# fred-2d the pivoted root's 1e-14 left F F^T up to 1.0e-11 of the largest
# entry from the dense G G^T (seeds 0-5), and this bound at most 6.3e-13
# for 34-36 directions instead of 28-30.
_DROP_RTOL = 1e-16


@dataclass(frozen=True)
class StageIterate:
    """State of the Monte Carlo iterate after one stage.

    ``samples`` is stage k's draw block, ``input_values`` the previous
    iterate at those draws (what the stage consumed), ``sample_values``
    this iterate at the next stage's draws (what it hands on; absent for
    the final stage) and ``grid_values`` this iterate on the evaluation
    grid (only tabulated where requested).

    The final stage's grid pass also leaves ``factor``, an n_grid x k
    factor F of the centred summands G_c (K(t_j, s_i, x_(m-1)(s_i)) less
    its row mean, over grid points j and draws i): F F^T equals G_c G_c^T
    up to the dropped remainders of its rows, which total at most 1e-16
    times the largest squared row norm of G_c.  It is None where the pass
    was not asked for it, where ``problems._BASIS_DIRS`` directions of the
    stage's draws would pass ``problems._BASIS_ENTRIES`` values, or where
    the basis would need more directions than that.
    """

    stage: int
    samples: np.ndarray
    input_values: np.ndarray
    sample_values: "np.ndarray | None"
    grid_values: "np.ndarray | None"
    factor: "np.ndarray | None" = None

    def evaluate(self, problem: FredholmProblem, points: np.ndarray) -> np.ndarray:
        """This stage's iterate at arbitrary points, no fresh randomness."""
        t = np.asarray(points, dtype=float)
        means = _kernel_values(problem, t, self.samples, self.input_values)
        return np.asarray(problem.f(t), dtype=float) + means


class _RowBasis:
    """A factor F of row blocks G taken in order, with F F^T = G G^T up to a bounded remainder.

    Each block's rows are projected onto an orthonormal basis Q (k x
    ``width``) of the directions found so far; the coefficients are their
    rows of F.  While the trace of a block's residual exceeds the larger
    of the block's rows / ``n_rows`` share of 1e-16 times the largest
    squared row norm so far and the block's own ``floor``, the residual
    row of largest norm, orthogonalised against Q once more ("twice is
    enough": Giraud, Langou and Rozloznik, 2005), becomes a new direction,
    and the block's residual is projected onto it.  What is left of each
    row is dropped, and stays in the block.  A basis that would need more
    than ``max_dirs`` directions is given up (``basis`` becomes None), and
    :meth:`factor` returns None.
    """

    def __init__(self, n_rows: int, width: int, max_dirs: "int | None" = None) -> None:
        self.n_rows, self.width = n_rows, width
        self.max_dirs = width if max_dirs is None else max_dirs
        # Room for the grid pass's cap of directions up front: a copy on
        # growth would add to the peak memory.  Rows not yet written take no
        # pages.
        start = min(problems._BASIS_DIRS, self.max_dirs)
        self.basis: "np.ndarray | None" = np.empty((start, width))
        self.k = 0
        self.top = 0.0
        self.parts: "list[np.ndarray]" = []

    def add(self, block: np.ndarray, floor: float) -> None:
        """Project the next rows onto the basis, growing it as the budget needs.

        ``block`` is overwritten with the residual its rows leave.
        """
        if self.basis is None:
            return
        rest = np.einsum("ij,ij->i", block, block)
        self.top = max(self.top, float(np.max(rest, initial=0.0)))
        allow = max(block.shape[0] / self.n_rows * _DROP_RTOL * self.top, floor)
        coefs = [block @ self.basis[: self.k].T]
        if self.k:
            block -= coefs[0] @ self.basis[: self.k]
            rest = np.einsum("ij,ij->i", block, block)
        while np.sum(rest) > allow and self.k < self.width:  # a full basis leaves roundoff
            if self.k == self.max_dirs:
                self.basis = None
                return
            if self.k == self.basis.shape[0]:
                grown = np.empty((min(2 * self.k, self.width, self.max_dirs), self.width))
                grown[: self.k] = self.basis
                self.basis = grown
            q = self.basis[: self.k]
            v = block[int(np.argmax(rest))]
            v = v - (q @ v) @ q
            v /= math.sqrt(v @ v)
            self.basis[self.k] = v
            self.k += 1
            coefs.append((block @ v)[:, None])
            block -= coefs[-1] * v
            rest = np.einsum("ij,ij->i", block, block)
        self.parts.append(np.concatenate(coefs, axis=1))

    def factor(self) -> "np.ndarray | None":
        """F over every row added, or None if the basis was given up."""
        if self.basis is None:
            return None
        out = np.zeros((self.n_rows, self.k))
        i0 = 0
        for part in self.parts:
            out[i0 : i0 + part.shape[0], : part.shape[1]] = part
            i0 += part.shape[0]
        return out


@_one_blas_thread
def _row_factor(problem: FredholmProblem, samples, z, centre, max_dirs: "int | None" = None):
    """Per-chunk results and the factor of the kernel block over grid points x ``samples``.

    The grid rows go in the chunks of :func:`~mcie.problems._row_chunks`,
    every sample in each kernel call and never cut by the worker count,
    on the kernel pool when the block is large.  Each task runs
    ``centre(block, keep)`` on its read-only chunk of K(t_j, s_i, z_i),
    which returns ``(result, floor, centred)``; the calling thread adds
    the centred rows, in row order, to one :class:`_RowBasis` with that
    ``floor``, so the factor does not depend on the worker count.
    ``keep`` is false once the basis is given up, and ``centred`` is then
    not read.  Returns the results in row order and
    :meth:`_RowBasis.factor`.
    """
    t, s = _pair(problem.grid.points, samples)
    z_row = z[None, :]
    basis = _RowBasis(t.shape[0], s.shape[1], max_dirs)

    def task(rows: np.ndarray):
        block = _as_full(problem.kernel(rows, s, z_row), (rows.shape[0], s.shape[1]))
        return centre(block, basis.basis is not None)

    results = []
    for result, floor, block in _row_chunks(task, t, s.shape[1], ahead=problems._WORKERS + 1):
        results.append(result)
        basis.add(block, floor)
        del block  # before the next chunk is evaluated
    return results, basis.factor()


def _grid_pass(problem: FredholmProblem, stage: StageIterate) -> StageIterate:
    """The final stage with its grid values and the factor of its centred summands.

    Each row chunk's task takes its rows' means, the values
    :meth:`StageIterate.evaluate` gives bit for bit, and centres them
    while the basis of at most ``problems._BASIS_DIRS`` directions is
    kept.
    """

    def centred(block: np.ndarray, keep: bool):
        mean = np.mean(block, axis=1)
        return mean, 0.0, block - mean[:, None] if keep else None

    means, factor = _row_factor(
        problem, stage.samples, stage.input_values, centred, problems._BASIS_DIRS
    )
    means = np.concatenate(means)
    if not np.all(np.isfinite(means)):
        raise NonFiniteKernelError("kernel produced non-finite values")
    grid_values = np.asarray(problem.f(problem.grid.points), dtype=float) + means
    return replace(stage, grid_values=grid_values, factor=factor)


def mc_solve_fredholm(
    problem: FredholmProblem,
    schedule: PartitionSchedule,
    stream: RandomStream,
    replication: int = 0,
    factor: bool = True,
) -> "list[StageIterate]":
    """Run the staged iteration; returns one record per stage.

    The final stage's record carries ``grid_values`` and, with ``factor``
    and at most 16,384 final-stage draws, the covariance factor of its
    grid pass (see :class:`StageIterate`); otherwise the pass takes plain
    row means, as for runs whose covariance is not estimated.  Randomness comes only from the stream's spatial lanes
    ``(ROLE_XI, replication, k)``, so any two runs with equal arguments
    agree bit for bit.
    """
    draws = _stage_draws(problem.measure, schedule, stream, replication)
    m = schedule.stages
    z = np.asarray(problem.f(draws[0]), dtype=float)
    iterates: "list[StageIterate]" = []
    for k in range(1, m + 1):
        stage = StageIterate(k, draws[k - 1], z, None, None)
        if k < m:
            z = stage.evaluate(problem, draws[k])
            stage = replace(stage, sample_values=z)
        elif factor and draws[k - 1].shape[0] * problems._BASIS_DIRS <= problems._BASIS_ENTRIES:
            stage = _grid_pass(problem, stage)
        else:
            stage = replace(stage, grid_values=stage.evaluate(problem, problem.grid.points))
        iterates.append(stage)
    return iterates

"""Staged Monte Carlo iteration for Fredholm problems.

Each stage spends a disjoint block of draws from the partition schedule.
Stage k evaluates the previous stage's iterate only at that stage's own
draws, so the whole run costs sum(q(k) * q(k+1)) kernel calls plus a
final pass over the evaluation grid, instead of the N**2 cost of naive
resampling.  All reductions run in a fixed order; a run is a pure
function of (problem, schedule, seed, replication).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .problems import FredholmProblem, _kernel_values, _stage_draws
from .sampling import PartitionSchedule, RandomStream

__all__ = [
    "StageIterate",
    "mc_solve_fredholm",
]


@dataclass(frozen=True)
class StageIterate:
    """State of the Monte Carlo iterate after one stage.

    ``samples`` is stage k's draw block, ``input_values`` the previous
    iterate at those draws (what the stage consumed), ``sample_values``
    this iterate at the next stage's draws (what it hands on; absent for
    the final stage) and ``grid_values`` this iterate on the evaluation
    grid (only tabulated where requested).
    """

    stage: int
    samples: np.ndarray
    input_values: np.ndarray
    sample_values: "np.ndarray | None"
    grid_values: "np.ndarray | None"

    def evaluate(self, problem: FredholmProblem, points: np.ndarray) -> np.ndarray:
        """This stage's iterate at arbitrary points, no fresh randomness."""
        t = np.asarray(points, dtype=float)
        means = _kernel_values(problem, t, self.samples, self.input_values)
        return np.asarray(problem.f(t), dtype=float) + means


def mc_solve_fredholm(
    problem: FredholmProblem,
    schedule: PartitionSchedule,
    stream: RandomStream,
    replication: int = 0,
) -> "list[StageIterate]":
    """Run the staged iteration; returns one record per stage.

    The final stage's record carries ``grid_values``.  Randomness comes
    only from the stream's spatial lanes ``(ROLE_XI, replication, k)``,
    so any two runs with equal arguments agree bit for bit.
    """
    draws = _stage_draws(problem.measure, schedule, stream, replication)
    m = schedule.stages
    z = np.asarray(problem.f(draws[0]), dtype=float)
    if z.shape != (schedule.sizes[0],):
        z = np.broadcast_to(z, (schedule.sizes[0],)).copy()
    iterates: "list[StageIterate]" = []
    for k in range(1, m + 1):
        stage = StageIterate(k, draws[k - 1], z, None, None)
        if k < m:
            z = stage.evaluate(problem, draws[k])
            stage = replace(stage, sample_values=z)
        else:
            stage = replace(stage, grid_values=stage.evaluate(problem, problem.grid.points))
        iterates.append(stage)
    return iterates

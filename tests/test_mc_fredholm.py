"""Staged dependent-trials recursion for Fredholm problems."""

import numpy as np
import pytest

from mcie import (
    FredholmProblem,
    InvalidSpecError,
    MeasureSpec,
    PartitionSchedule,
    RandomStream,
    budget_consistent_partition,
    build_grid,
    gauss_legendre_grid,
    manufactured_case,
    mc_solve_fredholm,
    picard_solve,
)
from mcie import problems


def _ones(t):
    return np.ones(np.shape(t))


def _trials_integral(g, grid, count, seed):
    """t -> mean of g(t, s) over shared draws: the grid pass of one stage with f = 0."""
    prob = FredholmProblem(
        lambda t: np.zeros(np.shape(t)), lambda t, s, z: g(t, s),
        0.5, MeasureSpec.uniform_cube(1), grid, validate=False,
    )
    run = mc_solve_fredholm(prob, PartitionSchedule((count,), count), RandomStream(seed))
    return run[-1].grid_values


def test_depending_trials_no_s_dependence_is_exact():
    grid = build_grid(33)

    def g(t, s):
        shape = np.broadcast_shapes(np.shape(t), np.shape(s))
        return np.broadcast_to(t, shape).copy()

    for count in (1, 17, 400):
        assert np.array_equal(_trials_integral(g, grid, count, 3), grid.points)


def test_depending_trials_uniform_mean_bound():
    grid = build_grid(33)
    n = 10**5
    out = _trials_integral(lambda t, s: t + s, grid, n, 1)
    sup_err = np.abs(out - (grid.points + 0.5)).max()
    assert sup_err <= 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)


def test_depending_trials_second_moment():
    grid = build_grid(5)
    n = 10**5
    out = _trials_integral(lambda t, s: s**2, grid, n, 2)
    # all grid points share the same draws, so the values are constant in t
    assert np.ptp(out) == 0.0
    assert abs(out[0] - 1.0 / 3.0) <= 3.0 * 0.3 / np.sqrt(n)


def test_zero_variance_two_stages_exact():
    case = manufactured_case("fred-lin-const")
    for seed in (0, 1, 5):
        for sizes in ((7, 13), (50, 50), (1, 99)):
            sched = PartitionSchedule(sizes, sum(sizes))
            its = mc_solve_fredholm(case.problem, sched, RandomStream(seed))
            assert np.all(its[-1].grid_values == 1.75)


def test_zero_kernel_every_stage_equals_f():
    grid = build_grid(17)
    prob = FredholmProblem(
        lambda t: np.cos(np.asarray(t)),
        lambda t, s, z: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(s))),
        0.5, MeasureSpec.uniform_cube(1), grid,
    )
    its = mc_solve_fredholm(prob, budget_consistent_partition(200, 3), RandomStream(0))
    assert np.array_equal(its[-1].grid_values, np.cos(grid.points))


def test_stage_bookkeeping_shapes():
    case = manufactured_case("fred-smooth")
    sched = budget_consistent_partition(500, 3)
    its = mc_solve_fredholm(case.problem, sched, RandomStream(0))
    assert [it.stage for it in its] == [1, 2, 3]
    for k, it in enumerate(its, start=1):
        assert it.samples.shape[0] == sched.sizes[k - 1]
        if k < 3:
            assert it.sample_values.shape == (sched.sizes[k],)
            assert it.grid_values is None
        else:
            assert it.sample_values is None
            assert it.grid_values.shape == (case.problem.grid.size,)
    assert sum(it.samples.shape[0] for it in its) == sched.budget


def test_schedule_budget_mismatch_rejected():
    case = manufactured_case("fred-lin-const")
    with pytest.raises(InvalidSpecError):
        mc_solve_fredholm(case.problem, PartitionSchedule((3, 4), 10), RandomStream(0))


def test_identical_seed_and_replication_bit_identical():
    case = manufactured_case("fred-smooth")
    sched = budget_consistent_partition(2000, 3)
    a = mc_solve_fredholm(case.problem, sched, RandomStream(9), replication=2)
    b = mc_solve_fredholm(case.problem, sched, RandomStream(9), replication=2)
    assert np.array_equal(a[-1].grid_values, b[-1].grid_values)
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.samples, ib.samples)


def test_replications_differ():
    case = manufactured_case("fred-smooth")
    sched = budget_consistent_partition(2000, 3)
    a = mc_solve_fredholm(case.problem, sched, RandomStream(9), replication=0)
    b = mc_solve_fredholm(case.problem, sched, RandomStream(9), replication=1)
    assert not np.array_equal(a[-1].grid_values, b[-1].grid_values)


def test_error_shrinks_with_budget():
    # coarse convergence proxy: median sup error over ten seeds drops
    # when the budget grows sixteenfold
    case = manufactured_case("fred-smooth")
    target = picard_solve(case.problem, 3)[-1].values
    medians = {}
    for budget in (1000, 16000):
        sched = budget_consistent_partition(budget, 3)
        errs = [
            np.abs(
                mc_solve_fredholm(case.problem, sched, RandomStream(seed))[-1].grid_values
                - target
            ).max()
            for seed in range(10)
        ]
        medians[budget] = float(np.median(errs))
    assert medians[16000] < medians[1000]


def test_stage_evaluate_agrees_with_grid_values():
    case = manufactured_case("fred-smooth")
    sched = budget_consistent_partition(1000, 2)
    its = mc_solve_fredholm(case.problem, sched, RandomStream(4))
    pts = case.problem.grid.points
    assert np.allclose(its[-1].evaluate(case.problem, pts), its[-1].grid_values, atol=1e-14)


def _fred_2d():
    def kernel(t, s, z):
        return 0.4 * np.cos(np.sum(t * s, axis=-1)) * np.sin(z)

    return FredholmProblem(
        lambda t: np.ones(np.shape(t)[:-1]), kernel, 0.4,
        MeasureSpec.uniform_cube(2), build_grid(5, dim=2),
    )


def _same(a, b):
    return (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize(
    "make_problem",
    [lambda: manufactured_case("fred-smooth").problem, _fred_2d],
    ids=["1-d", "5x5"],
)
def test_fredholm_run_is_chunk_invariant(monkeypatch, make_problem):
    problem = make_problem()
    schedule = budget_consistent_partition(600, 3)
    whole = mc_solve_fredholm(problem, schedule, RandomStream(5))
    # 4 grid rows per chunk leaves one row over on 65 and 25 points; the
    # stage 2 -> 3 handoff is split into ragged chunks too.
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 4 * schedule.sizes[-1] + 1)
    chunked = mc_solve_fredholm(problem, schedule, RandomStream(5))
    for a, b in zip(whole, chunked):
        assert _same(a.input_values, b.input_values)
        assert _same(a.sample_values, b.sample_values)
        assert _same(a.grid_values, b.grid_values)


def test_depending_trials_is_chunk_invariant(monkeypatch):
    grid = build_grid(33)

    def g(t, s):
        return np.cos(3.0 * t * s)

    whole = _trials_integral(g, grid, 300, 2)
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 4 * 300)  # 33 = 8 * 4 + 1 rows
    chunked = _trials_integral(g, grid, 300, 2)
    assert np.array_equal(whole, chunked)

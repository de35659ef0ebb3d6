"""Staged Monte-Carlo recursion for Volterra problems and the ODE demo."""

import dataclasses
import math
import threading
from functools import partial

import numpy as np
import pytest

from mcie import (
    InvalidSpecError,
    NonFiniteKernelError,
    PartitionSchedule,
    RandomStream,
    VolterraProblem,
    budget_consistent_partition,
    manufactured_case,
    mc_solve_volterra,
    volterra_cauchy_demo,
)
from mcie import inference as inf
from mcie import problems
from mcie.mc_volterra import _stage_table
from mcie.sampling import ROLE_ETA, ROLE_XI
from test_kernel_layout import _volt_2d


def test_first_stage_exact_for_constant_integrand():
    # K = z with X0 = f = 1 makes the stage-1 summand constant, so
    # X_1(tau) = 1 + tau for every seed and block size
    case = manufactured_case("volt-exp", tau_n=17)
    tau = case.problem.tau_grid
    for seed in (0, 3, 11):
        its = mc_solve_volterra(
            case.problem, PartitionSchedule((6, 14), 20), RandomStream(seed)
        )
        stage1 = its[0].table[:, 0]
        assert np.abs(stage1 - (1.0 + tau)).max() <= 1e-14


def test_second_stage_matches_eta_mean_identity():
    # for K = z the second stage is 1 + tau + tau^2 * mean(eta) exactly,
    # with eta the stage-two time-fraction draws
    case = manufactured_case("volt-exp", tau_n=17)
    tau = case.problem.tau_grid
    its = mc_solve_volterra(
        case.problem, PartitionSchedule((40, 60), 100), RandomStream(9)
    )
    expect = 1.0 + tau + tau**2 * its[1].eta.mean()
    assert np.abs(its[1].grid_table[:, 0] - expect).max() <= 1e-13


def test_second_stage_statistical_band():
    case = manufactured_case("volt-exp", tau_n=17)
    tau = case.problem.tau_grid
    q2 = 10**5
    its = mc_solve_volterra(
        case.problem, PartitionSchedule((100, q2), 100 + q2), RandomStream(2)
    )
    got = its[1].grid_table[:, 0]
    allow = 3.0 * tau**2 * (1.0 / math.sqrt(12.0)) / math.sqrt(q2)
    assert np.all(np.abs(got - (1.0 + tau + tau**2 / 2.0)) <= allow + 1e-12)


def test_zero_kernel_every_stage_equals_f():
    base = manufactured_case("volt-smooth", tau_n=17).problem
    quiet = VolterraProblem(
        base.f,
        lambda tau, y, nu, v, z: np.zeros(np.broadcast_shapes(np.shape(tau), np.shape(v))),
        base.lip, base.measure, base.grid, base.tau_grid, validate=False,
    )
    its = mc_solve_volterra(quiet, budget_consistent_partition(100, 2), RandomStream(0))
    tau = quiet.tau_grid
    f_table = np.asarray(
        quiet.f(tau[:, None], quiet.grid.points[None, :]), dtype=float
    )
    assert np.array_equal(its[-1].grid_table, f_table)


def test_degenerate_ode_constant_and_linear():
    # dX/dtau = 0 from X0 = 5 stays at 5; dX/dtau = 1 from 0 gives tau
    grid = manufactured_case("volt-exp").problem.grid
    meas = manufactured_case("volt-exp").problem.measure
    tau = np.linspace(0.0, 1.0, 17)

    still = VolterraProblem(
        lambda t, y: np.full(np.broadcast_shapes(np.shape(t), np.shape(y)), 5.0),
        lambda t, y, nu, v, z: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(v))),
        0.5, meas, grid, tau, validate=False,
    )
    its = mc_solve_volterra(still, PartitionSchedule((10, 10), 20), RandomStream(1))
    assert np.all(its[-1].grid_table == 5.0)

    ramp = VolterraProblem(
        lambda t, y: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(y))),
        lambda t, y, nu, v, z: np.ones(np.broadcast_shapes(np.shape(t), np.shape(v))),
        0.5, meas, grid, tau, validate=False,
    )
    its = mc_solve_volterra(ramp, PartitionSchedule((20,), 20), RandomStream(3))
    assert np.abs(its[-1].grid_table[:, 0] - tau).max() <= 1e-15


def test_table_shapes_and_sample_collection():
    case = manufactured_case("volt-smooth", tau_n=17)
    sched = budget_consistent_partition(300, 3)
    its = mc_solve_volterra(case.problem, sched, RandomStream(5))
    n_tau = case.problem.tau_grid.shape[0]
    for k, it in enumerate(its, start=1):
        assert it.eta.shape[0] == sched.sizes[k - 1]
        assert it.xi.shape[0] == sched.sizes[k - 1]
        if k < 3:
            assert it.table.shape == (n_tau, sched.sizes[k])
            assert it.grid_table is None
        else:
            assert it.table is None
            assert it.grid_table.shape == (n_tau, case.problem.grid.size)
    assert sum(it.eta.shape[0] for it in its) == sched.budget
    assert sum(it.xi.shape[0] for it in its) == sched.budget


def _lane_draws(problem, schedule, stream, replication):
    """Each stage's (eta, xi) as its lanes give them, in stream order."""
    return [
        (
            stream.generator(ROLE_ETA, replication, k).random(q),
            problems.sample_measure(
                problem.measure, q, stream.generator(ROLE_XI, replication, k)
            ),
        )
        for k, q in enumerate(schedule.sizes, start=1)
    ]


def _sorting_case(case_id, y_dependent_case):
    # volt-exp draws from discrete atoms, volt-smooth's kernel ignores the
    # target, and the other two use it, the last on a 2-D domain.
    if case_id == "y-dependent":
        return y_dependent_case.problem
    if case_id == "2-d":
        return _volt_2d()
    return manufactured_case(case_id, tau_n=17).problem


@pytest.mark.parametrize("case_id", ["volt-exp", "volt-smooth", "y-dependent", "2-d"])
def test_later_stages_hold_their_lane_draws_in_ascending_eta(case_id, y_dependent_case):
    problem = _sorting_case(case_id, y_dependent_case)
    schedule = PartitionSchedule((7, 50, 300, 900), 1257)
    stream = RandomStream(6)
    its = mc_solve_volterra(problem, schedule, stream, replication=2)
    for it, (eta, xi) in zip(its, _lane_draws(problem, schedule, stream, 2)):
        if it.stage == 1:
            # Stage 1 reads the forcing term directly and keeps stream order.
            assert np.array_equal(it.eta, eta) and np.array_equal(it.xi, xi)
            continue
        assert np.all(np.diff(it.eta) >= 0.0), it.stage
        # The same pairs, reordered by one stable sort on eta.
        order = np.argsort(eta, kind="stable")
        assert np.array_equal(it.eta, eta[order]), it.stage
        assert np.array_equal(it.xi, xi[order]), it.stage


@pytest.mark.parametrize("case_id", ["volt-exp", "volt-smooth", "y-dependent", "2-d"])
def test_sorted_stages_match_stream_order_tables(case_id, y_dependent_case):
    # The staged run on stream-order draws, stage by stage: sorting the
    # later stages moves the tables only through summation order.
    problem = _sorting_case(case_id, y_dependent_case)
    schedule = PartitionSchedule((7, 50, 300, 900), 1257)
    stream = RandomStream(6)
    its = mc_solve_volterra(problem, schedule, stream)
    lanes = _lane_draws(problem, schedule, stream, 0)
    prev = None
    for k, (eta, xi) in enumerate(lanes, start=1):
        last = k == len(lanes)
        targets = problem.grid.points if last else lanes[k][1]
        prev = _stage_table(problem, eta, xi, prev, targets)
        got = its[k - 1].grid_table if last else its[k - 1].table
        # Stage k's table has its columns in stage k + 1's sorted order.
        want = prev if last else prev[:, np.argsort(lanes[k][0], kind="stable")]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), k


def test_determinism_and_replication_lanes():
    case = manufactured_case("volt-exp", tau_n=17)
    sched = budget_consistent_partition(400, 2)
    a = mc_solve_volterra(case.problem, sched, RandomStream(8), replication=3)
    b = mc_solve_volterra(case.problem, sched, RandomStream(8), replication=3)
    c = mc_solve_volterra(case.problem, sched, RandomStream(8), replication=4)
    assert np.array_equal(a[-1].grid_table, b[-1].grid_table)
    assert not np.array_equal(a[-1].grid_table, c[-1].grid_table)


def test_tau_grid_doubling_stays_within_noise():
    # halving the tau step must not move the answer by more than a small
    # multiple of the stage standard error
    stream = RandomStream(11)
    sched = budget_consistent_partition(4000, 2)
    sups = {}
    for tau_n in (65, 129):
        case = manufactured_case("volt-smooth", tau_n=tau_n)
        its = mc_solve_volterra(case.problem, sched, stream)
        sups[tau_n] = float(np.abs(its[-1].grid_table).max())
    case65 = manufactured_case("volt-smooth", tau_n=65)
    its65 = mc_solve_volterra(case65.problem, sched, stream)
    est = inf.estimate_covariance_volterra(case65.problem, its65)
    stderr = math.sqrt(est.matrix.diagonal().max() / sched.sizes[-1])
    assert abs(sups[65] - sups[129]) <= 10.0 * stderr


def test_cauchy_demo_tracks_taylor_target():
    demo = volterra_cauchy_demo(3, 3000, RandomStream(0))
    assert demo.target == pytest.approx(sum(1.0 / math.factorial(k) for k in range(4)), abs=1e-12)
    assert demo.stderr > 0.0
    assert len(demo.values) == 16
    assert abs(demo.deviation_sigmas) <= 3.0


def test_cauchy_demo_rejects_bad_arguments():
    with pytest.raises(InvalidSpecError):
        volterra_cauchy_demo(0, 1000, RandomStream(0))
    with pytest.raises(InvalidSpecError):
        volterra_cauchy_demo(3, 1000, RandomStream(0), replications=1)


@pytest.mark.parametrize("case_id", ["volt-smooth", "y-dependent"])
def test_volterra_run_is_chunk_invariant(case_id, y_dependent_case, monkeypatch):
    # volt-smooth's kernel ignores the target point, so only the y-dependent
    # case shows chunks that land in the wrong rows.
    case = y_dependent_case if case_id == "y-dependent" else manufactured_case(case_id, tau_n=9)
    problem = case.problem
    schedule = budget_consistent_partition(400, 2)
    whole = mc_solve_volterra(problem, schedule, RandomStream(1))
    # 5 target rows per chunk: 33 grid points = 6 * 5 + 3, 9 = 5 + 4
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 5 * schedule.sizes[-1])
    chunked = mc_solve_volterra(problem, schedule, RandomStream(1))
    assert np.array_equal(whole[0].table, chunked[0].table)
    assert np.array_equal(whole[-1].grid_table, chunked[-1].grid_table)


def test_y_independent_kernel_matches_its_full_shape_blocks(monkeypatch):
    # volt-smooth's kernel ignores y and returns one row for all the
    # targets of a call; that row is averaged once.  Calls of at most 512
    # entries split every stage's targets into several chunks.
    prob = manufactured_case("volt-smooth", tau_n=9).problem
    kernel = prob.kernel
    shapes = []

    def full(copy, *args):
        row = kernel(*args)
        shapes.append(np.shape(row))
        block = np.broadcast_to(row, np.broadcast_shapes(*map(np.shape, args)))
        return np.array(block) if copy else block

    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 512)
    schedule = budget_consistent_partition(2000, 3)
    runs = [
        mc_solve_volterra(
            prob if k is None else dataclasses.replace(prob, kernel=k, validate=False),
            schedule,
            RandomStream(4),
        )
        for k in (None, partial(full, False), partial(full, True))
    ]
    assert shapes and all(shape[0] == 1 for shape in shapes)
    for rows, view, copy in zip(*runs):
        for name in ("table", "grid_table"):
            got = getattr(rows, name)
            if got is not None:
                # The full-shape view is averaged row by row as before, in the
                # same order; numpy sums a contiguous copy in another order.
                assert np.array_equal(got, getattr(view, name)), (rows.stage, name)
                assert np.abs(got - getattr(copy, name)).max() <= 1e-14 * np.abs(got).max()


def _recording(problem, kernel=None):
    """``problem`` with ``kernel`` (default its own), and a list of
    (broadcast entries, returned values) per call."""
    kernel = problem.kernel if kernel is None else kernel
    calls = []

    def recorded(*args):
        values = kernel(*args)
        calls.append((math.prod(np.broadcast_shapes(*map(np.shape, args))), np.size(values)))
        return values

    recording = dataclasses.replace(problem, kernel=recorded, validate=False)
    calls.clear()  # the call that showed, when the problem was built, whether it ignores y
    return recording, calls


def test_y_independent_kernel_makes_one_call_per_check_time():
    # Each stage (10, 104 and 9,886 draws against 104, 9,886 and 33
    # targets) calls the kernel once per check time with all its targets.
    prob, calls = _recording(manufactured_case("volt-smooth").problem)
    schedule = budget_consistent_partition(10_000, 3)
    assert schedule.sizes == (10, 104, 9886)
    mc_solve_volterra(prob, schedule, RandomStream(0))
    assert len(calls) == 3 * 65 == 195
    assert sum(values for _, values in calls) == 65 * (10 + 104 + 9886) == 650_000
    assert sum(entries for entries, _ in calls) == 65 * (104 * 10 + 9886 * 104 + 33 * 9886)
    assert sum(entries for entries, _ in calls) == 88_102_430


def test_y_independent_kernel_takes_every_target_in_one_call():
    # volt-exp at N=2e4, m=4: stage 3 holds 147 draws and tabulates the
    # iterate at stage 4's 19,837 draws.  Each check time takes one call
    # with all of them on the calling thread, where 2 MiB row chunks would
    # take 12, with the same broadcast entries.
    prob = manufactured_case("volt-exp").problem
    kernel = prob.kernel
    calls = []

    def recorded(tau, y, nu, v, z):
        if np.shape(nu)[-1] == 147:
            calls.append((np.shape(y)[0], threading.current_thread().name))
        return kernel(tau, y, nu, v, z)

    schedule = budget_consistent_partition(20_000, 4)
    assert schedule.sizes == (3, 13, 147, 19_837)
    traced = dataclasses.replace(prob, kernel=recorded, validate=False)
    run = mc_solve_volterra(traced, schedule, RandomStream(1))
    assert calls == [(19_837, threading.current_thread().name)] * prob.tau_grid.shape[0]
    assert np.array_equal(run[2].table, mc_solve_volterra(prob, schedule, RandomStream(1))[2].table)


def test_y_dependent_kernel_keeps_capped_calls(y_dependent_case):
    prob, calls = _recording(y_dependent_case.problem)
    mc_solve_volterra(prob, budget_consistent_partition(10_000, 3), RandomStream(0))
    assert max(entries for entries, _ in calls) <= problems._CHUNK_ENTRIES
    assert len(calls) > 3 * 9  # stage 2's 9,886 x 104 blocks are split


def test_constant_kernel_at_tau_zero_does_not_decide(y_dependent_case):
    # A kernel that returns a scalar at tau = 0 gives one row for every
    # target there; the problem probes it at the next check time.
    kernel = y_dependent_case.problem.kernel

    def zero_at_start(tau, y, nu, v, z):
        return 0.0 if tau == 0.0 else kernel(tau, y, nu, v, z)

    prob, calls = _recording(y_dependent_case.problem, zero_at_start)
    run = mc_solve_volterra(prob, budget_consistent_partition(10_000, 3), RandomStream(0))
    assert max(entries for entries, _ in calls) <= problems._CHUNK_ENTRIES
    assert np.all(np.isfinite(run[-1].grid_table))


def test_kernel_that_turns_to_the_target_after_construction_raises(y_dependent_case):
    # The kernel ignores y up to tau_grid[1], where the problem probes it
    # when built, and uses y later, which breaks the contract.
    kernel, first = y_dependent_case.problem.kernel, y_dependent_case.problem.tau_grid[1]

    def late(tau, y, nu, v, z):
        return 0.3 * np.sin(nu + z) if tau <= first else kernel(tau, y, nu, v, z)

    prob = dataclasses.replace(y_dependent_case.problem, kernel=late, validate=False)
    with pytest.raises(InvalidSpecError, match="row per target"):
        mc_solve_volterra(prob, budget_consistent_partition(2000, 2), RandomStream(0))


def test_y_independent_kernel_non_finite_at_a_late_check_time_raises():
    prob = manufactured_case("volt-smooth").problem
    kernel, last = prob.kernel, prob.tau_grid[-1]

    def nan_at_end(tau, y, nu, v, z):
        values = kernel(tau, y, nu, v, z)
        return values * np.nan if tau == last else values

    bad, calls = _recording(prob, nan_at_end)
    with pytest.raises(NonFiniteKernelError):
        mc_solve_volterra(bad, budget_consistent_partition(10_000, 3), RandomStream(0))

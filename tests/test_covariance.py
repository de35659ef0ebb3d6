"""Covariance factor form: truncated roots, streamed estimation, kernel faults."""

import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcie import (
    FredholmProblem,
    InvalidSpecError,
    MeasureSpec,
    NonFiniteKernelError,
    PartitionSchedule,
    RandomStream,
    VolterraProblem,
    VolterraStageIterate,
    budget_consistent_partition,
    build_grid,
    confidence_band,
    estimate_covariance,
    estimate_covariance_volterra,
    gauss_legendre_grid,
    gaussian_sup_quantile,
    limit_covariance,
    manufactured_case,
    mc_solve_fredholm,
    mc_solve_volterra,
    picard_solve,
    picard_step,
    tail_log_asymptote,
    volterra_solve,
    volterra_step,
)
from mcie import cli, deterministic, inference, mc_fredholm, problems
from mcie.deterministic import FunctionOnGrid, TauProductFunction, interp_at
from mcie.mc_fredholm import StageIterate
from mcie.problems import ManufacturedCase, _as_full, _pair, _volterra_kernel_rows
from mcie.sampling import ROLE_GAUSS

# Entries are 0 or at least 1e-50 in magnitude, so factor entries (products
# of two) are 0 or at least about 1e-100.  A smaller factor has subnormal
# Gram entries, where the relative bound below underflows to 0 while the
# roundoff of float64 does not.
_ELEMENTS = st.one_of(st.just(0.0), st.floats(1e-50, 4.0), st.floats(-4.0, -1e-50))


@st.composite
def factors(draw):
    """Feature factors B with k < n or k >= n columns, of full or lower rank, or zero."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 8))
        n = k + draw(st.integers(1, 8))
    else:
        n = draw(st.integers(1, 8))
        k = n + draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["full", "deficient", "zero"]))
    if kind == "zero":
        return np.zeros((n, k))
    if kind == "deficient":
        r = draw(st.integers(1, min(n, k)))
        left = draw(arrays(float, (n, r), elements=_ELEMENTS))
        right = draw(arrays(float, (r, k), elements=_ELEMENTS))
        return left @ right
    return draw(arrays(float, (n, k), elements=_ELEMENTS))


@settings(deadline=None)
@given(factors())
def test_factor_root_reproduces_gram(b):
    exact = b @ b.T
    top = float(np.linalg.norm(b, 2)) ** 2 if b.size else 0.0
    n, k = b.shape
    # The default cap leaves every factor drawn here on the pivoted route;
    # a cap of 0 sends it to the dense finish.
    for cap in (inference._PIVOT_CAP, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "_PIVOT_CAP", cap)
            est = inference._factor_covariance(b, "limit", 0)
        assert est.root.shape[0] == n
        assert est.rank <= min(n, k)
        assert np.abs(est.matrix - exact).max() <= 1e-12 * top
        assert np.array_equal(est.matrix, est.matrix.T)
        assert est.min_eigenvalue >= -1e-12 * est.scale
        if k < n:  # B B^T has n - k zero eigenvalues
            assert est.min_eigenvalue <= 0.0
        assert not est.heavy_clip


def _dense_two_pass(g: np.ndarray) -> np.ndarray:
    centred = g - np.mean(g, axis=1)[:, None]
    return centred @ centred.T / g.shape[1]


def test_streamed_estimator_matches_dense_two_pass(monkeypatch):
    case = manufactured_case("fred-smooth")
    prob = case.problem
    schedule = budget_consistent_partition(300, 2)
    # A record without the grid pass's factor: the estimator's draw chunks.
    its = mc_solve_fredholm(prob, schedule, RandomStream(4), factor=False)
    t, s = _pair(prob.grid.points, its[-1].samples)
    g = prob.kernel(t, s, its[-1].input_values[None, :])
    dense = _dense_two_pass(np.asarray(g, dtype=float))
    # A kernel that keeps every full-shape array it returns: centring a
    # chunk in place must write into none of them, nor into the run's draws.
    held = []

    def holding(t, s, z):
        out = prob.kernel(t, s, z)
        held.append((out, out.copy()))
        return out

    holder = dataclasses.replace(prob, kernel=holding, validate=False)
    stored = [its[-1].samples.copy(), its[-1].input_values.copy()]
    n = schedule.sizes[-1]
    rows = prob.grid.size
    # (kernel-call cap, pivot cap, workers, kernel calls).  The estimator
    # takes one kernel call per chunk of at most the cap.
    splits = [
        (7 * rows, inference._PIVOT_CAP, 1, 41),  # 41 chunks of 7 draws, the last one short
        (7 * rows, inference._PIVOT_CAP, 2, 41),  # the same chunks rooted on the kernel pool
        # Every chunk joins the stack as its centred block, the stack is
        # rooted again past 4 x 65 columns and the final root is dense.
        (7 * rows, 0, 1, 41),
        (100 * rows, inference._PIVOT_CAP, 1, 3),  # chunk factors wider than the 65 grid points
        # One chunk in one kernel call: the block is a read-only view of the
        # kernel's own array, so it is centred in a copy.
        (n * rows, inference._PIVOT_CAP, 1, 1),
        # A row longer than the cap: chunks of one draw (rank 0, all spread in
        # the mean shifts), each from kernel calls of 64 and 1 rows.
        (64, inference._PIVOT_CAP, 1, 2 * n),
    ]
    for kernel_cap, cap, workers, calls in splits:
        monkeypatch.setattr(problems, "_CHUNK_ENTRIES", kernel_cap)
        monkeypatch.setattr(problems, "_WORKERS", workers)
        monkeypatch.setattr(problems, "_PARALLEL_MIN_ENTRIES", 1)
        monkeypatch.setattr(inference, "_PIVOT_CAP", cap)
        held.clear()
        est = estimate_covariance(holder, its)
        assert est.n_samples == n
        assert np.abs(est.matrix - dense).max() <= 1e-12 * np.abs(dense).max(), kernel_cap
        assert len(held) == calls
        for out, before in held:
            assert np.array_equal(out, before)
    assert np.array_equal(its[-1].samples, stored[0])
    assert np.array_equal(its[-1].input_values, stored[1])


def test_streamed_volterra_estimator_matches_single_chunk(monkeypatch):
    case = manufactured_case("volt-smooth", tau_n=9)
    its = mc_solve_volterra(case.problem, budget_consistent_partition(400, 2), RandomStream(2))
    whole = estimate_covariance_volterra(case.problem, its)
    # Chunks of 13 draws: the kernel ignores y, so a chunk has one row per check time.
    monkeypatch.setattr(inference, "_DRAW_CHUNK_ENTRIES", 13 * 9)
    streamed = estimate_covariance_volterra(case.problem, its)
    ref = whole.matrix
    assert np.abs(streamed.matrix - ref).max() <= 1e-12 * np.abs(ref).max()


def _traced_peak(fn) -> int:
    """Bytes that ``fn()`` allocates at its peak, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def two_worker_pool(monkeypatch):
    """A kernel pool of two threads, however many CPUs run the tests."""
    monkeypatch.setattr(problems, "_WORKERS", 2)
    monkeypatch.setattr(problems, "_pool", None)
    yield
    if problems._pool is not None:
        problems._pool.shutdown()


def test_streamed_estimator_holds_one_draw_chunk(monkeypatch, two_worker_pool):
    prob = manufactured_case("fred-smooth").problem
    its = mc_solve_fredholm(
        prob, budget_consistent_partition(20_000, 2), RandomStream(3), factor=False
    )
    draws = 5_000
    block = 8 * draws * prob.grid.size
    # Chunks of 2,048 entries (31 draws): 635 chunk roots, whose stack is
    # rooted again whenever it passes 128 columns, and no block of 5,000
    # draws.
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 2_048)
    for workers, bound in ((1, 1.5), (2, 2.5)):
        monkeypatch.setattr(problems, "_WORKERS", workers)
        peak = _traced_peak(lambda: estimate_covariance(prob, its))
        assert peak < bound * block, (workers, peak / block)
    # Chunks of 5,000 draws (four of the 19,677 final draws): each live
    # chunk holds the kernel's result (or its temporaries) and its centred
    # copy, one chunk per worker, and no predecessor.
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", draws * prob.grid.size)
    for workers in (1, 2):
        monkeypatch.setattr(problems, "_WORKERS", workers)
        peak = _traced_peak(lambda: estimate_covariance(prob, its))
        assert peak < (2 * workers + 0.5) * block, (workers, peak / block)


def test_low_rank_stack_stays_near_128_columns(monkeypatch):
    prob = manufactured_case("fred-smooth", grid_n=300).problem
    rng = np.random.default_rng(2)
    final = StageIterate(2, rng.random(6_000), rng.uniform(1.0, 2.0, 6_000), None, None)
    # Chunks of 100 draws: 60 chunk roots of rank 4, five columns each with
    # its mean shift, where rooting the stack only past 4 x 300 columns
    # left one final stack of 300.
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 100 * prob.grid.size)
    widths = []
    factor_covariance = inference._factor_covariance

    def recording(factor, *args, **kwargs):
        widths.append(factor.shape[1])
        return factor_covariance(factor, *args, **kwargs)

    monkeypatch.setattr(inference, "_factor_covariance", recording)
    est = estimate_covariance(prob, [final])
    # The stack is rooted once it passes 4 x max(rank, 32) columns, so it
    # holds at most that plus the one part that passed it.
    assert len(widths) >= 3
    assert max(widths) <= 4 * max(est.rank, inference._PIVOT_CAP) + est.rank + 1, widths
    t, s = _pair(prob.grid.points, final.samples)
    dense = _dense_two_pass(prob.kernel(t, s, final.input_values[None, :]))
    assert np.abs(est.matrix - dense).max() <= 1e-12 * np.abs(dense).max()


def _fred_2d_kernel(t, s, z):
    return 0.4 * np.cos(np.sum(np.asarray(t) * np.asarray(s), axis=-1)) * np.sin(z)


def test_fred_2d_sized_estimate_stays_under_20_mib(two_worker_pool):
    # The benchmark's 2-D shape: 1,089 grid points and 9,886 final draws,
    # on its two cores.
    prob = FredholmProblem(
        lambda t: np.ones(np.shape(t)[:-1]), _fred_2d_kernel, 0.4,
        MeasureSpec.uniform_cube(2), build_grid(33, dim=2), validate=False,
    )
    rng = np.random.default_rng(0)
    final = StageIterate(3, rng.random((9886, 2)), 1.5 + 0.1 * rng.random(9886), None, None)
    peak = _traced_peak(lambda: estimate_covariance(prob, [final]))
    # 2 MiB chunks of 240 draws; one 32 MB draw chunk peaked at 42.7 MiB.
    assert peak < 20 * 2**20, peak / 2**20


def _full_rank_kernel(t, s, z):
    return 0.4 * np.cos(300.0 * np.asarray(t) * np.asarray(s)) * np.sin(z)


def test_full_rank_estimate_keeps_its_stack_bounded(monkeypatch):
    prob = FredholmProblem(
        lambda t: np.ones(np.shape(t)), _full_rank_kernel, 0.4,
        MeasureSpec.uniform_cube(1), build_grid(65), validate=False,
    )
    rows = prob.grid.size
    # Chunks of 50 draws: rank 49 > _PIVOT_CAP, so each joins the stack as
    # its centred block, and the stack passes 4 x 65 columns (128 before
    # its first rooting) every few chunks.
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 50 * rows)
    rng = np.random.default_rng(1)
    peaks = []
    for n in (4_000, 16_000):
        final = StageIterate(2, rng.random(n), rng.uniform(-1.0, 1.0, n), None, None)
        est = estimate_covariance(prob, [final])
        assert est.rank == rows
        t, s = _pair(prob.grid.points, final.samples)
        dense = _dense_two_pass(_full_rank_kernel(t, s, final.input_values[None, :]))
        assert np.abs(est.matrix - dense).max() <= 1e-12 * np.abs(dense).max(), n
        peaks.append(_traced_peak(lambda: estimate_covariance(prob, [final])))
    # Stacking every chunk factor would make the 4x budget's peak about 4x.
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_sup_simulation_holds_one_small_field_chunk():
    rng = np.random.default_rng(0)
    root = rng.standard_normal((2145, 7))  # volt-band's product grid and rank
    cov = inference.CovarianceEstimate(root, "limit", 0, 0.0, 0.0)
    peak = _traced_peak(lambda: gaussian_sup_quantile(cov, 0.95, RandomStream(0)))
    # A 2 MiB field chunk, the 10,000 x 7 normal draws and the sups.
    assert peak < 4 * 2**20, peak


def _counting(problem, calls: list):
    """The problem with a kernel that records how many entries each call evaluates."""
    kernel = problem.kernel

    def counted(*args):
        calls.append(int(np.prod(np.broadcast_shapes(*map(np.shape, args)))))
        return kernel(*args)

    counting = dataclasses.replace(problem, kernel=counted, validate=False)
    calls.clear()  # a Volterra problem calls its kernel once when built
    return counting


@pytest.mark.parametrize("stages", [1, 3])
def test_estimators_evaluate_the_kernel_once_per_final_stage_draw(stages):
    schedule = budget_consistent_partition(600, stages)
    prob = manufactured_case("fred-smooth").problem
    calls = []
    counting = _counting(prob, calls)
    # The grid pass's kernel entries serve the grid values and the estimate.
    its = mc_solve_fredholm(counting, schedule, RandomStream(3))
    handoff = sum(a * b for a, b in zip(schedule.sizes, schedule.sizes[1:]))
    estimate_covariance(counting, its)
    assert sum(calls) == handoff + prob.grid.size * schedule.sizes[-1]
    vprob = manufactured_case("volt-smooth", tau_n=9).problem
    vits = mc_solve_volterra(vprob, schedule, RandomStream(3))
    calls = []
    estimate_covariance_volterra(_counting(vprob, calls), vits)
    assert sum(calls) == 9 * vprob.grid.size * schedule.sizes[-1]


@pytest.mark.parametrize("stages", [1, 3])
def test_stored_previous_iterate_matches_its_re_evaluation(stages):
    prob = manufactured_case("fred-smooth").problem
    its = mc_solve_fredholm(prob, budget_consistent_partition(600, stages), RandomStream(6))
    # Both estimates take the draw chunks: the record without its factor.
    stored = estimate_covariance(prob, its[:-1] + [dataclasses.replace(its[-1], factor=None)])
    evaluated = estimate_covariance(prob, its, samples=its[-1].samples)
    assert np.array_equal(stored.root, evaluated.root)
    assert stored.n_samples == evaluated.n_samples == its[-1].samples.shape[0]


# Kernels that turn NaN at one draw (or quadrature node) and are finite elsewhere.
_BAD = 0.25
# A measure whose draws hit the NaN point.
_AT_BAD = MeasureSpec.discrete(np.array([_BAD, 0.75]), np.array([0.5, 0.5]))


def _nan_fredholm_kernel(t, s, z):
    return np.where(s == _BAD, np.nan, 0.3 * np.sin(t * s + z))


def _nan_volterra_kernel(tau, y, nu, v, z):
    return np.where(v == _BAD, np.nan, 0.3 * np.sin(y * v + nu + z))


def _fredholm(grid, measure=MeasureSpec.uniform_cube(1)):
    return FredholmProblem(
        lambda t: np.ones(np.shape(t)), _nan_fredholm_kernel, 0.5,
        measure, grid, validate=False,
    )


def _volterra(grid, measure=MeasureSpec.uniform_cube(1)):
    return VolterraProblem(
        lambda tau, y: np.ones(np.broadcast_shapes(np.shape(tau), np.shape(y))),
        _nan_volterra_kernel, 0.5, measure, grid,
        np.linspace(0.0, 1.0, 9), validate=False,
    )


def test_estimate_covariance_non_finite_kernel():
    prob = _fredholm(gauss_legendre_grid(9))
    its = mc_solve_fredholm(prob, PartitionSchedule((10,), 10), RandomStream(0))
    with pytest.raises(NonFiniteKernelError):
        estimate_covariance(prob, its, samples=np.array([0.1, _BAD, 0.7]))


def test_estimate_covariance_volterra_non_finite_kernel():
    prob = _volterra(gauss_legendre_grid(9))
    stage = VolterraStageIterate(
        1, np.array([0.2, 0.5, 0.9]), np.array([0.1, _BAD, 0.7]), None, None
    )
    with pytest.raises(NonFiniteKernelError):
        estimate_covariance_volterra(prob, [stage])


def test_limit_covariance_non_finite_kernel():
    grid = build_grid(9)  # node 2 is _BAD
    prob = _fredholm(grid)
    with pytest.raises(NonFiniteKernelError):
        limit_covariance(prob, FunctionOnGrid(grid, np.ones(9)))
    vprob = _volterra(grid)
    x_prev = TauProductFunction(vprob.tau_grid, grid, np.ones((9, 9)))
    with pytest.raises(NonFiniteKernelError):
        limit_covariance(vprob, x_prev)


# Solve entry points, each fed a NaN at one draw or grid node (build_grid(9)
# has node 2 at _BAD).
_SOLVE_PATHS = {
    "mc_solve_fredholm-handoff": lambda grid: mc_solve_fredholm(
        _fredholm(grid, _AT_BAD), PartitionSchedule((8, 8), 16), RandomStream(0)
    ),
    "mc_solve_fredholm-grid-pass": lambda grid: mc_solve_fredholm(
        _fredholm(grid, _AT_BAD), PartitionSchedule((8,), 8), RandomStream(0)
    ),
    "mc_solve_volterra": lambda grid: mc_solve_volterra(
        _volterra(grid, _AT_BAD), PartitionSchedule((8,), 8), RandomStream(0)
    ),
    "StageIterate.evaluate": lambda grid: StageIterate(
        1, np.array([0.1, _BAD]), np.ones(2), None, None
    ).evaluate(_fredholm(grid), grid.points),
    "picard_step": lambda grid: picard_step(_fredholm(grid), FunctionOnGrid(grid, np.ones(9))),
    "volterra_step": lambda grid: volterra_step(
        _volterra(grid), TauProductFunction(np.linspace(0.0, 1.0, 9), grid, np.ones((9, 9)))
    ),
    "reference_residual": lambda grid: ManufacturedCase(
        "nan-volterra", "volterra", _volterra(grid),
        lambda tau, y: np.ones(np.broadcast_shapes(np.shape(tau), np.shape(y))),
        "NaN at 0.25", 9, 9,
    ).reference_residual(),
}


@pytest.mark.parametrize("path", sorted(_SOLVE_PATHS))
def test_solve_paths_non_finite_kernel(path):
    with pytest.raises(NonFiniteKernelError):
        _SOLVE_PATHS[path](build_grid(9))


def test_cli_non_finite_kernel_exits_two(monkeypatch, capsys):
    def nan_case(case_id, grid_n=None, tau_n=None):
        prob = _fredholm(build_grid(9), _AT_BAD)
        return ManufacturedCase(case_id, "fredholm", prob, np.ones_like, "NaN at 0.25", 9)

    monkeypatch.setattr(cli, "manufactured_case", nan_case)
    assert cli.run(["solve", "--case", "fred-smooth", "--N", "16", "--m", "2"]) == 2
    assert capsys.readouterr().err.startswith("runtime failure:")


@pytest.mark.parametrize(
    "case_id, rows",
    [
        # Target rows per chunk of the 32-node quadrature block: volt-smooth's
        # 33 rows split 6 * 5 + 3 (the residual's 128-node block one row at a
        # time), volt-exp's 2 rows split 1 + 1, y-dependent's 9 rows 4 * 2 + 1.
        ("volt-smooth", 5),
        ("volt-exp", 1),
        ("y-dependent", 2),
    ],
    ids=["volt-smooth", "volt-exp", "y-dependent"],
)
def test_volterra_quadrature_is_chunk_invariant(case_id, rows, y_dependent_case, monkeypatch):
    case = y_dependent_case if case_id == "y-dependent" else manufactured_case(case_id)
    prob = case.problem
    whole = volterra_solve(prob, 3)
    residual = case.reference_residual()
    limit = limit_covariance(prob, whole[-2]).matrix
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", rows * 32 * prob.grid.size)
    chunked = volterra_solve(prob, 3)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a.values, b.values)
    assert case.reference_residual() == residual
    # The same features in another buffer may round differently when centred.
    split = limit_covariance(prob, chunked[-2]).matrix
    assert np.abs(split - limit).max() <= 1e-12 * np.abs(limit).max()


def _per_check_time_quadrature(problem, nu01, z_at):
    """Reference quadrature: ``z_at`` called at each check time on its own node times."""
    pts = problem.grid.points
    n, k = pts.shape[0], nu01.shape[0]
    xi = np.tile(pts, (k,) + (1,) * (pts.ndim - 1))

    def z_one(u, a):  # u[::n] is tau_a * nu01
        return _as_full(z_at(u[::n]), (k, n)).ravel()

    blocks = _volterra_kernel_rows(problem, np.repeat(nu01, n), xi, z_one, pts, mean=False)
    return ((tau_a, block.reshape(-1, k, n)) for tau_a, block in blocks)


def _quadrature_outputs(case):
    det = volterra_solve(case.problem, 3)
    return [x.values for x in det] + [
        limit_covariance(case.problem, det[-2]).root, np.array(case.reference_residual())
    ]


@pytest.mark.parametrize("case_id", ["volt-smooth", "volt-exp", "y-dependent"])
def test_batched_quadrature_matches_per_check_time(case_id, y_dependent_case, monkeypatch):
    case = y_dependent_case if case_id == "y-dependent" else manufactured_case(case_id)
    batched = _quadrature_outputs(case)
    # volterra_step and the residual reach the quadrature through
    # problems._volterra_integrals, limit_covariance directly.
    for module in (problems, inference):
        monkeypatch.setattr(module, "_volterra_quadrature", _per_check_time_quadrature)
    reference = _quadrature_outputs(case)
    assert len(batched) == len(reference)
    for a, b in zip(batched, reference):
        assert np.array_equal(a, b)


def test_quadrature_pass_interpolates_once(y_dependent_case, monkeypatch):
    queries: list = []

    def counted(nodes, table, u):
        queries.append(len(u))
        return interp_at(nodes, table, u)

    for module in (deterministic, inference):
        monkeypatch.setattr(module, "interp_at", counted)
    prob = y_dependent_case.problem
    det = volterra_solve(prob, 3)
    limit_covariance(prob, det[-2])
    n_tau = prob.tau_grid.shape[0]
    # Three volterra_steps and one limit_covariance: one call each, on every
    # check time's 32 node times.
    assert queries == [n_tau * 32] * 4
    references: list = []

    def reference(tau, y):
        references.append(np.shape(tau))
        return y_dependent_case.reference(tau, y)

    dataclasses.replace(y_dependent_case, reference=reference).reference_residual()
    # One call on every check time's 128 node times, then one on the check
    # times for the left-hand side.
    assert references == [(n_tau * 128, 1), (n_tau, 1)]


def _full_rows(kernel):
    """``kernel`` with its value spread over every target: never one row for all."""

    def spread(*args):
        return np.broadcast_to(kernel(*args), np.broadcast_shapes(*map(np.shape, args)))

    return spread


def _factor_rows(monkeypatch) -> list:
    """Record the rows of every factor ``inference._tau_major`` builds."""
    rows = []
    tau_major = inference._tau_major

    def recording(*args):
        out = tau_major(*args)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(inference, "_tau_major", recording)
    return rows


def _volterra_covariances(prob, stages):
    det = volterra_solve(prob, stages)
    its = mc_solve_volterra(prob, budget_consistent_partition(2000, stages), RandomStream(7))
    return [limit_covariance(prob, det[-2]), estimate_covariance_volterra(prob, its)]


def _assert_same_covariances(got, want):
    for a, b in zip(got, want):
        assert a.root.shape == b.root.shape
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12 * np.abs(b.matrix).max()


@pytest.mark.parametrize(
    "case_id, stages",
    [("volt-smooth", 1), ("volt-smooth", 2), ("volt-smooth", 3), ("volt-exp", 3)],
)
def test_target_free_kernel_roots_one_row_per_check_time(case_id, stages, monkeypatch):
    prob = manufactured_case(case_id).problem
    n_tau, n_pts = prob.tau_grid.shape[0], prob.grid.size
    rows = _factor_rows(monkeypatch)
    compact = _volterra_covariances(prob, stages)
    assert set(rows) == {n_tau}
    rows.clear()
    full = _volterra_covariances(
        dataclasses.replace(prob, kernel=_full_rows(prob.kernel), validate=False), stages
    )
    assert set(rows) == {n_tau * n_pts}
    _assert_same_covariances(compact, full)
    for cov in compact:
        assert cov.root.shape[0] == n_tau * n_pts
        assert not cov.heavy_clip


def _one_row_at_tau_zero(tau, y, nu, v, z):
    if tau == 0.0:
        return 0.3 * np.sin(nu + z)
    return 0.3 * np.sin(y * v + nu + z)


def _full_rows_at_tau_zero(tau, y, nu, v, z):
    return 0.3 * np.sin(y * v + nu + z) if tau == 0.0 else 0.3 * np.sin(nu + z)


@pytest.mark.parametrize(
    "kernel, per_point", [(None, True), (_one_row_at_tau_zero, True), (_full_rows_at_tau_zero, False)],
    ids=["y-dependent", "one-row-only-at-0", "full-rows-only-at-0"],
)
def test_kernel_that_uses_the_target_keeps_full_rows(kernel, per_point, y_dependent_case, monkeypatch):
    prob = y_dependent_case.problem
    if kernel is not None:
        prob = dataclasses.replace(prob, kernel=kernel, validate=False)
    rows = _factor_rows(monkeypatch)
    covs = _volterra_covariances(prob, 3)
    # Every factor, the limit's and one per draw chunk, has a row per product
    # point, unless the kernel ignores y after tau = 0: the rows at 0 are
    # scaled by 0, so one row per check time stands for them all.
    n_rows = prob.grid.size if per_point else 1
    assert set(rows) == {prob.tau_grid.shape[0] * n_rows}
    full = _volterra_covariances(
        dataclasses.replace(prob, kernel=_full_rows(prob.kernel), validate=False), 3
    )
    _assert_same_covariances(covs, full)


def test_draw_chunks_count_one_row_per_check_time(monkeypatch):
    prob = manufactured_case("volt-exp", tau_n=5).problem
    its = mc_solve_volterra(prob, PartitionSchedule((50, 450_000), 450_050), RandomStream(0))
    rows = _factor_rows(monkeypatch)
    whole = estimate_covariance_volterra(prob, its)
    # The problem found that the kernel ignores y when it was built, so a
    # draw chunk counts one row per check time: it holds 4,000,000 / 5
    # draws, all 450,000 of them, and its rows are longer than a kernel
    # call's cap.  Counted over product points it would take two chunks.
    assert rows == [5]
    monkeypatch.setattr(inference, "_DRAW_CHUNK_ENTRIES", 5 * 200_000)
    rows.clear()
    streamed = estimate_covariance_volterra(prob, its)
    assert rows == [5, 5, 5]
    full = estimate_covariance_volterra(
        dataclasses.replace(prob, kernel=_full_rows(prob.kernel), validate=False), its
    )
    _assert_same_covariances([whole, streamed], [full, full])


def test_expanded_root_reports_the_expanded_scale():
    prob = manufactured_case("volt-smooth", tau_n=9).problem
    root = np.random.default_rng(5).standard_normal((9, 4))
    for low in (-1e-3, -1e-14, 1e-16):
        compact = inference.CovarianceEstimate(root, "limit", 0, 0.0, low)
        full = inference._per_point(prob, compact)
        assert np.array_equal(full.root, np.repeat(root, prob.grid.size, axis=0))
        assert full.scale == pytest.approx(prob.grid.size * compact.scale, rel=1e-14)
        # Its eigenvalues are n_pts times the compact ones, and it is singular.
        assert full.min_eigenvalue == min(prob.grid.size * low, 0.0)
        assert full.heavy_clip == compact.heavy_clip
    # A kernel that uses the target gives a root over product points already.
    spread = dataclasses.replace(prob, kernel=_full_rows(prob.kernel), validate=False)
    assert inference._per_point(spread, full) is full


def test_limit_covariance_forms_no_product_row_factor():
    prob = manufactured_case("volt-smooth").problem
    x_prev = volterra_solve(prob, 2)[-2]
    limit_covariance(prob, x_prev)  # the quadrature and window tables are cached
    peak = _traced_peak(lambda: limit_covariance(prob, x_prev))
    # The factor over 2,145 product points and 32 x 33 quadrature pairs
    # alone takes 18 MB; the one over 65 check times 0.55 MB.
    assert peak < 4 * 2**20, peak / 2**20


def _reference_sup_quantile(root, level, seed, n_sim=10_000):
    """The sup of every row's field value, in field chunks of ``_CHUNK_ENTRIES``."""
    draws = RandomStream(seed).generator(ROLE_GAUSS, 0, 0).standard_normal((n_sim, root.shape[1]))
    step = max(1, problems._CHUNK_ENTRIES // root.shape[0])
    sups = [np.max(np.abs(draws[i : i + step] @ root.T), axis=1) for i in range(0, n_sim, step)]
    return float(np.quantile(np.concatenate(sups), level))


def test_sup_quantile_skips_repeated_rows():
    rng = np.random.default_rng(6)
    distinct = rng.standard_normal((65, 6))
    repeated = np.repeat(distinct, 33, axis=0)
    u = [
        gaussian_sup_quantile(inference.CovarianceEstimate(r, "limit", 0, 0.0, 0.0), 0.95,
                              RandomStream(2))
        for r in (repeated, distinct)
    ]
    assert u[0] == u[1] == _reference_sup_quantile(distinct, 0.95, 2)


def _fred_2d_forcing(t):
    """Forcing term of the 2-D problem whose solution is pi/2 (see bench/workloads.py)."""
    t = np.asarray(t, dtype=float)
    c = [np.where(x == 0.0, 1.0, (np.exp(1j * x) - 1.0) / (1j * np.where(x == 0.0, 1.0, x)))
         for x in (t[..., 0], t[..., 1])]
    return 0.5 * np.pi - 0.4 * np.real(c[0] * c[1])


def test_sup_quantile_keeps_the_row_order_of_a_root_without_repeats():
    prob = _fred_2d_problem()
    its = mc_solve_fredholm(prob, budget_consistent_partition(10_000, 3), RandomStream(1))
    cov = estimate_covariance(prob, its)
    # With its rows sorted, this root's 0.95 quantile moves by one unit in
    # the last place at seeds 0 and 1.
    for seed in range(4):
        assert gaussian_sup_quantile(cov, 0.95, RandomStream(seed)) == _reference_sup_quantile(
            cov.root, 0.95, seed
        ), seed


def _fred_2d_problem(kernel=_fred_2d_kernel) -> FredholmProblem:
    """The benchmark's problem on its 33 x 33 grid (``kernel`` may replace its kernel)."""
    return FredholmProblem(
        _fred_2d_forcing, kernel, 0.4, MeasureSpec.uniform_cube(2),
        build_grid(33, dim=2), validate=False,
    )


@problems._one_blas_thread
def _final_stage_gram(prob, final) -> np.ndarray:
    """G_c G_c^T / q(m) of the final stage's summands, two passes over draw chunks."""
    t, q, step = prob.grid.points, final.samples.shape[0], 1_000

    def block(c0: int) -> np.ndarray:
        a, b = _pair(t, final.samples[c0 : c0 + step])
        values = prob.kernel(a, b, final.input_values[None, c0 : c0 + step])
        return _as_full(values, (t.shape[0], b.shape[1]))

    starts = range(0, q, step)
    mean = sum(np.sum(block(c0), axis=1) for c0 in starts) / q
    gram = np.zeros((t.shape[0], t.shape[0]))
    for c0 in starts:
        centred = block(c0) - mean[:, None]
        gram += centred @ centred.T
    return gram / q


_ONE_PASS_RUNS = {
    **{f"fred-2d-s{seed}": (_fred_2d_problem, 3, seed) for seed in range(4)},
    "fred-smooth-m1": (lambda: manufactured_case("fred-smooth").problem, 1, 0),
    "fred-smooth-m3": (lambda: manufactured_case("fred-smooth").problem, 3, 0),
    "fred-lin-const": (lambda: manufactured_case("fred-lin-const").problem, 3, 0),
}


def _recording_basis(monkeypatch) -> list:
    """Record ``(kept, residual trace)`` of each block the grid pass's basis receives.

    ``kept`` says whether the basis was still kept; the residual trace is
    what the block's rows left once projected, None for a block that was
    not centred.
    """
    seen: list = []
    add = mc_fredholm._RowBasis.add

    def recorded(self, block, floor):
        kept = self.basis is not None
        add(self, block, floor)
        seen.append((kept, None if block is None else float(np.sum(block * block))))

    monkeypatch.setattr(mc_fredholm._RowBasis, "add", recorded)
    return seen


@pytest.mark.parametrize("run_id", list(_ONE_PASS_RUNS))
def test_one_pass_factor_matches_dense_two_pass(run_id, monkeypatch):
    make, stages, seed = _ONE_PASS_RUNS[run_id]
    prob = make()
    schedule = budget_consistent_partition(10_000, stages)
    seen = _recording_basis(monkeypatch)
    its = mc_solve_fredholm(prob, schedule, RandomStream(seed))
    plain = mc_solve_fredholm(prob, schedule, RandomStream(seed), factor=False)
    final = its[-1]
    assert plain[-1].factor is None and final.factor is not None
    assert np.array_equal(final.grid_values, plain[-1].grid_values)
    dense = _final_stage_gram(prob, final)
    peak = np.abs(dense).max()
    est = estimate_covariance(prob, its)
    drawn = estimate_covariance(prob, plain)
    assert est.source == drawn.source == "estimated"
    assert est.n_samples == drawn.n_samples == schedule.sizes[-1]
    assert est.rank == drawn.rank
    assert np.abs(est.matrix - dense).max() <= 1e-11 * peak
    # The dropped remainders stay within their budget: 1e-16 of the largest
    # squared centred row norm, q(m) times the largest variance.
    assert seen and all(kept for kept, _ in seen)
    dropped = sum(trace for _, trace in seen)
    assert dropped <= 1e-16 * schedule.sizes[-1] * np.max(np.diag(dense))
    if run_id == "fred-lin-const":
        assert est.rank == 0 and peak == 0.0


def test_one_draw_final_stage_is_refused_on_both_routes():
    prob = manufactured_case("fred-smooth").problem
    its = mc_solve_fredholm(prob, PartitionSchedule((3, 1), 4), RandomStream(0))
    assert its[-1].factor.shape == (prob.grid.size, 0)  # one centred draw is 0
    for run in (its, its[:-1] + [dataclasses.replace(its[-1], factor=None)]):
        with pytest.raises(InvalidSpecError, match="at least 2 draws"):
            estimate_covariance(prob, run)


def test_estimate_past_the_basis_cap_takes_the_draw_chunks(monkeypatch):
    # A full-rank covariance on the 33 x 33 grid: its 4,941 draws allow the
    # basis, but it needs more than 64 directions, so the grid pass gives
    # the basis up within a few chunks.
    prob = _fred_2d_problem(
        lambda t, s, z: 0.4 * np.cos(300.0 * np.sum(t * s, axis=-1)) * np.sin(z)
    )
    schedule = budget_consistent_partition(5_000, 2)
    seen = _recording_basis(monkeypatch)
    its = mc_solve_fredholm(prob, schedule, RandomStream(0))
    plain = mc_solve_fredholm(prob, schedule, RandomStream(0), factor=False)
    assert its[-1].factor is None
    # Once given up, only the tasks already ahead of the caller centred
    # their blocks; every later chunk takes its row means alone.
    kept = sum(k for k, _ in seen)
    late = sum(not k and trace is not None for k, trace in seen)
    assert kept < len(seen) // 4 and late <= problems._WORKERS + 1
    assert np.array_equal(its[-1].grid_values, plain[-1].grid_values)
    est = estimate_covariance(prob, its)
    assert est.rank == prob.grid.size
    assert np.array_equal(est.root, estimate_covariance(prob, plain).root)


def test_final_stage_past_the_entry_cap_builds_no_basis(monkeypatch):
    # 64 directions of 16,384 draws fill the 8 MiB cap; one draw more and
    # the grid pass takes plain row means, as with factor=False.
    def refused(*args):
        raise AssertionError("basis built")

    prob = manufactured_case("fred-smooth", grid_n=9).problem
    monkeypatch.setattr(mc_fredholm, "_RowBasis", refused)
    with pytest.raises(AssertionError, match="basis built"):
        mc_solve_fredholm(prob, PartitionSchedule((16_384,), 16_384), RandomStream(0))
    schedule = PartitionSchedule((16_385,), 16_385)
    run = mc_solve_fredholm(prob, schedule, RandomStream(0))
    plain = mc_solve_fredholm(prob, schedule, RandomStream(0), factor=False)
    assert run[-1].factor is None
    assert np.array_equal(run[-1].grid_values, plain[-1].grid_values)


def test_fredholm_limit_covariance_forms_no_grid_block(monkeypatch):
    prob = _fred_2d_problem()
    x_prev = picard_solve(prob, 2)[-2]
    monkeypatch.setattr(problems, "_WORKERS", 1)
    peak = _traced_peak(lambda: limit_covariance(prob, x_prev))
    # The 1,089 x 1,089 feature block alone takes 9 MiB; the whole call
    # peaked at 18.6 MiB with it.
    assert peak < 4 * 2**20, peak / 2**20
    for problem, x in (
        (prob, x_prev),
        *((c.problem, picard_solve(c.problem, 2)[-2])
          for c in map(manufactured_case, ("fred-smooth", "fred-lin-const"))),
    ):
        t, s = _pair(problem.grid.points, problem.grid.points)
        g = _as_full(problem.kernel(t, s, x.values[None, :]), (problem.grid.size,) * 2)
        block = inference._limit_factor_covariance(np.array(g), problem.grid.weights)
        rows = limit_covariance(problem, x)
        assert rows.rank == block.rank
        assert np.abs(rows.matrix - block.matrix).max() <= 1e-12 * np.abs(block.matrix).max()


def test_interp_at_forms_no_window_slot_array():
    # 65 check times x 32 nodes of one quadrature pass on a 65 x 33 table.
    rng = np.random.default_rng(0)
    nodes, table = np.linspace(0.0, 1.0, 65), rng.standard_normal((65, 33))
    queries = rng.random(65 * 32)
    interp_at(nodes, table, queries)  # the window denominators are cached
    tracemalloc.start()
    try:
        interp_at(nodes, table, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A (6, queries, columns) array alone would take 3.3 MB.
    assert peak < 6 * queries.size * table.shape[1] * 8


_PLAIN_COVARIANCE_PATHS = {
    "gaussian_sup_quantile": lambda cov: gaussian_sup_quantile(cov, 0.9, RandomStream(0)),
    "confidence_band": lambda cov: confidence_band(
        np.zeros(cov.shape[0]), cov, 100, 0.9, RandomStream(0)
    ),
    "tail_log_asymptote": lambda cov: tail_log_asymptote(1.0, cov),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", sorted(_PLAIN_COVARIANCE_PATHS))
def test_plain_covariance_with_non_finite_entry_is_rejected(path, bad):
    cov = np.eye(50)
    cov[3, 3] = bad
    with pytest.raises(InvalidSpecError):
        _PLAIN_COVARIANCE_PATHS[path](cov)


def _eigh_shapes(monkeypatch) -> list:
    """Record the shape of every matrix passed to ``np.linalg.eigh``."""
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def test_full_rank_factor_above_cap_takes_dense_finish(monkeypatch):
    k = inference._PIVOT_CAP + 8
    b = np.random.default_rng(3).standard_normal((k + 20, k))
    shapes = _eigh_shapes(monkeypatch)
    est = inference._factor_covariance(b, "limit", 0)
    assert shapes == [(k, k)]  # B^T B, the smaller Gram matrix
    assert est.rank == k
    exact = b @ b.T
    assert np.abs(est.matrix - exact).max() <= 1e-12 * np.abs(exact).max()


def test_low_rank_covariances_take_one_small_eigh(monkeypatch):
    shapes = _eigh_shapes(monkeypatch)
    for case_id, rank in (("fred-smooth", 3), ("volt-smooth", 6)):
        prob = manufactured_case(case_id).problem
        det = inference._det_solve(prob, 3)
        shapes.clear()
        est = limit_covariance(prob, det[-2])
        assert est.rank == rank
        assert len(shapes) == 1
        assert rank <= shapes[0][0] == shapes[0][1] <= inference._PIVOT_CAP


def test_zero_covariance_has_rank_zero_without_eigh(monkeypatch):
    shapes = _eigh_shapes(monkeypatch)
    case = manufactured_case("fred-lin-const")
    # Every fred-lin-const feature is 1.0, but its quadrature mean is not
    # exactly 1, so centring leaves roundoff that is not a direction.
    x_prev = picard_solve(case.problem, 2)[-2]
    for cap in (inference._PIVOT_CAP, 0):
        monkeypatch.setattr(inference, "_PIVOT_CAP", cap)
        est = inference._factor_covariance(np.zeros((7, 3)), "limit", 0)
        assert est.root.shape == (7, 0)
        assert est.min_eigenvalue == 0.0
        limit = limit_covariance(case.problem, x_prev)
        assert limit.root.shape == (case.problem.grid.size, 0)
        assert gaussian_sup_quantile(limit, 0.9, RandomStream(0)) == 0.0
    its = mc_solve_fredholm(case.problem, budget_consistent_partition(500, 2), RandomStream(0))
    for draws in (500, 150):  # one chunk, then four
        monkeypatch.setattr(problems, "_CHUNK_ENTRIES", draws * case.problem.grid.size)
        est = estimate_covariance(case.problem, its)
        assert est.root.shape == (case.problem.grid.size, 0)
        assert gaussian_sup_quantile(est, 0.9, RandomStream(0)) == 0.0
    assert shapes == []


def _route_covariances():
    """Limit covariances of three registered cases and one estimated covariance."""
    for case_id in ("fred-smooth", "volt-smooth", "volt-exp"):
        prob = manufactured_case(case_id).problem
        det = inference._det_solve(prob, 3)
        yield case_id, partial(limit_covariance, prob, det[-2])
    prob = manufactured_case("fred-smooth").problem
    its = mc_solve_fredholm(prob, budget_consistent_partition(2000, 2), RandomStream(1))
    yield "fred-smooth-estimated", lambda: estimate_covariance(prob, its)


def test_pivoted_and_dense_routes_give_the_same_band(monkeypatch):
    for label, build in _route_covariances():
        pivoted = build()
        monkeypatch.setattr(inference, "_PIVOT_CAP", 0)
        dense = build()
        monkeypatch.undo()
        assert pivoted.rank == dense.rank, label
        u_piv = gaussian_sup_quantile(pivoted, 0.95, RandomStream(5))
        u_dense = gaussian_sup_quantile(dense, 0.95, RandomStream(5))
        assert u_piv > 0.0, label
        assert abs(u_piv - u_dense) <= 1e-9 * u_dense, label


def test_signs_follow_the_first_large_entry():
    root = np.array([[0.1, -1.0, 0.0], [-1.0, 0.2, 0.0], [0.9, 0.6, 0.0]])
    signed = inference._signed(root.copy())
    assert np.array_equal(signed, root * np.array([-1.0, -1.0, 1.0]))


@pytest.mark.parametrize("path", sorted(_PLAIN_COVARIANCE_PATHS))
def test_plain_covariance_not_symmetric_is_rejected(path):
    with pytest.raises(InvalidSpecError, match="symmetric"):
        _PLAIN_COVARIANCE_PATHS[path](np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_negative_definite_plain_covariance_is_rejected():
    # gaussian_sup_quantile returned 0.0 here: a zero-width band.
    for path in sorted(_PLAIN_COVARIANCE_PATHS):
        with pytest.raises(InvalidSpecError, match="positive-semidefinite"):
            _PLAIN_COVARIANCE_PATHS[path](-np.eye(3))


def test_indefinite_plain_covariance_is_rejected():
    # diag(1, -5) used to act as diag(1, 0) with heavy_clip set and ignored.
    for path in sorted(_PLAIN_COVARIANCE_PATHS):
        with pytest.raises(InvalidSpecError, match="positive-semidefinite"):
            _PLAIN_COVARIANCE_PATHS[path](np.diag([1.0, -5.0]))


def test_plain_covariance_within_tolerances_is_accepted():
    cov = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    assert gaussian_sup_quantile(cov, 0.9, RandomStream(0)) > 0.0
    assert tail_log_asymptote(1.0, np.diag([1.0, -1e-12])) == pytest.approx(-0.5)

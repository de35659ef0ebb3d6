"""Grids, measures, problem validation, and the manufactured case registry."""

import tracemalloc

import numpy as np
import pytest

from mcie import (
    FredholmProblem,
    InvalidSpecError,
    ManufacturedCase,
    MeasureSpec,
    MetricSpaceGrid,
    RandomStream,
    UnknownCaseError,
    VolterraProblem,
    build_grid,
    gauss_legendre_grid,
    list_cases,
    manufactured_case,
    probe_lipschitz,
    sample_measure,
)
from mcie import problems


def _ones(t):
    return np.ones(np.shape(t))


def test_build_grid_three_points():
    grid = build_grid(3)
    assert np.allclose(grid.points, [0.0, 0.5, 1.0])
    assert np.allclose(grid.weights, 1.0 / 3.0)


def test_build_grid_two_by_two():
    grid = build_grid(2, dim=2)
    assert grid.size == 4
    assert grid.points.shape == (4, 2)
    assert np.allclose(grid.weights, 0.25)


def test_build_grid_rejects_degenerate():
    with pytest.raises(InvalidSpecError):
        build_grid(1)
    with pytest.raises(InvalidSpecError):
        build_grid(3, dim=0)


def test_gauss_legendre_grid_quadrature_exactness():
    grid = gauss_legendre_grid(5)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-14)
    # 5 nodes integrate polynomials up to degree 9 exactly on [0, 1]
    for k in range(10):
        exact = 1.0 / (k + 1)
        assert np.dot(grid.weights, grid.points**k) == pytest.approx(exact, abs=1e-13)


def test_gauss_legendre_rule_is_computed_once_and_shared_read_only():
    nodes, weights = np.polynomial.legendre.leggauss(65)
    rule = problems._gauss_legendre01(65)
    assert rule is problems._gauss_legendre01(65)
    assert np.array_equal(rule[0], 0.5 * (nodes + 1.0))
    assert np.array_equal(rule[1], 0.5 * weights)
    assert not any(a.flags.writeable for a in rule)
    # A grid gets its own arrays, so writing into one leaves the rule as it was.
    grid = gauss_legendre_grid(65)
    assert grid.points is not rule[0] and grid.weights is not rule[1]
    grid.points[0] = -1.0
    assert np.array_equal(rule[0], 0.5 * (nodes + 1.0))


def test_metric_grid_validates_weights():
    pts = np.array([0.0, 1.0])
    with pytest.raises(InvalidSpecError):
        MetricSpaceGrid(pts, np.array([0.7, 0.7]))
    with pytest.raises(InvalidSpecError):
        MetricSpaceGrid(pts, np.array([-0.5, 1.5]))


def test_sample_measure_point_mass():
    meas = MeasureSpec.discrete(np.array([0.7]), np.array([1.0]))
    draws = sample_measure(meas, 5, RandomStream(0).generator())
    assert np.all(draws == 0.7)


def test_sample_measure_uniform_mean():
    n = 10**5
    draws = sample_measure(MeasureSpec.uniform_cube(1), n, RandomStream(1).generator())
    assert abs(draws.mean() - 0.5) <= 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)


def test_sample_measure_inverse_cdf_mean():
    n = 10**5
    meas = MeasureSpec.from_inverse_cdf(lambda u: u**2)
    draws = sample_measure(meas, n, RandomStream(2).generator())
    # E[U^2] = 1/3 for uniform U
    assert abs(draws.mean() - 1.0 / 3.0) <= 3.0 * draws.std() / np.sqrt(n)


def test_sample_measure_bit_identical_across_calls():
    meas = MeasureSpec.uniform_cube(2)
    a = sample_measure(meas, 100, RandomStream(7).generator(0, 4, 2))
    b = sample_measure(meas, 100, RandomStream(7).generator(0, 4, 2))
    assert np.array_equal(a, b)


def test_measure_spec_rejects_bad_inputs():
    with pytest.raises(InvalidSpecError):
        MeasureSpec.discrete(np.array([0.0, 1.0]), np.array([0.4, 0.4]))
    # NaN weights pass the sum check (NaN compares false) and a NaN atom is
    # drawn as NaN; both are refused as MetricSpaceGrid refuses them.
    for atoms, weights in (([0.0, 1.0], [np.nan, np.nan]), ([np.nan, 1.0], [0.5, 0.5]),
                           ([np.inf, 1.0], [0.5, 0.5])):
        with pytest.raises(InvalidSpecError, match="finite"):
            MeasureSpec.discrete(np.array(atoms), np.array(weights))
    with pytest.raises(InvalidSpecError):
        MeasureSpec.from_inverse_cdf(lambda u: -u)  # decreasing probe


def test_probe_lipschitz_linear_kernel_exact():
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        _ones, lambda t, s, z: 0.5 * np.asarray(z, dtype=float),
        0.5, MeasureSpec.uniform_cube(1), grid,
    )
    assert abs(probe_lipschitz(prob) - 0.5) <= 1e-12


def test_probe_lipschitz_sine_kernel():
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        _ones, lambda t, s, z: 0.3 * np.sin(z),
        0.3, MeasureSpec.uniform_cube(1), grid,
    )
    est = probe_lipschitz(prob)
    assert 0.29 <= est <= 0.3 + 1e-6


def test_probe_lipschitz_flags_noncontraction():
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        _ones, lambda t, s, z: np.asarray(z, dtype=float) ** 2,
        0.5, MeasureSpec.uniform_cube(1), grid, validate=False,
    )
    assert probe_lipschitz(prob, z_range=(-10.0, 10.0)) > 1.0


def test_probe_lipschitz_needs_enough_probes():
    case = manufactured_case("fred-lin-const")
    with pytest.raises(InvalidSpecError):
        probe_lipschitz(case.problem, n_probes=50)


def test_fredholm_problem_rejects_bad_rho():
    grid = build_grid(9)
    meas = MeasureSpec.uniform_cube(1)
    for rho in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidSpecError):
            FredholmProblem(_ones, lambda t, s, z: 0.5 * z, rho, meas, grid)


def test_volterra_problem_refuses_a_lip_whose_bound_overflows():
    # exp(lip), the factor of the a priori bound, is past the float range:
    # math.exp raised OverflowError while the construction probed the kernel.
    for validate in (True, False):
        with pytest.raises(InvalidSpecError, match="lip=800 is too large"):
            VolterraProblem(
                lambda tau, y: np.ones(np.broadcast_shapes(np.shape(tau), np.shape(y))),
                lambda tau, y, nu, v, z: 0.5 * np.asarray(z, dtype=float), 800.0,
                MeasureSpec.uniform_cube(1), build_grid(5), np.linspace(0.0, 1.0, 5),
                validate=validate,
            )


def test_volterra_problem_refuses_an_a_priori_bound_that_overflows():
    # exp(709) is finite, but sup|f| exp(lip) = 1e10 exp(709) is not: the
    # probe's z-range and the iteration bounds would be infinite.
    for validate in (True, False):
        with pytest.raises(InvalidSpecError, match=r"sup\|f\| exp\(lip\) = 1e\+10 exp\(709\)"):
            VolterraProblem(
                lambda tau, y: np.full(np.broadcast_shapes(np.shape(tau), np.shape(y)), 1e10),
                lambda tau, y, nu, v, z: 0.5 * np.asarray(z, dtype=float), 709.0,
                MeasureSpec.uniform_cube(1), build_grid(5), np.linspace(0.0, 1.0, 5),
                validate=validate,
            )


def test_fredholm_problem_catches_contraction_lie():
    grid = build_grid(9)
    with pytest.raises(InvalidSpecError):
        FredholmProblem(
            _ones, lambda t, s, z: np.asarray(z, dtype=float) ** 2,
            0.5, MeasureSpec.uniform_cube(1), grid,
        )


def test_registry_contains_the_four_cases():
    ids = [row[0] for row in list_cases()]
    assert set(ids) == {"fred-lin-const", "fred-smooth", "volt-exp", "volt-smooth"}


def test_fred_lin_const_reference_is_two():
    case = manufactured_case("fred-lin-const")
    assert np.allclose(case.reference(case.problem.grid.points), 2.0, atol=1e-15)


def test_volt_exp_reference_is_exponential():
    case = manufactured_case("volt-exp")
    tau = case.problem.tau_grid
    y0 = case.problem.grid.points[0]
    ref = np.asarray(case.reference(tau, y0), dtype=float)
    assert np.max(np.abs(ref - np.exp(tau))) <= 1e-12
    at_one = float(np.asarray(case.reference(1.0, y0)))
    assert at_one == pytest.approx(2.718281828, abs=1e-8)


def test_unknown_case_raises():
    with pytest.raises(UnknownCaseError):
        manufactured_case("no-such-case")


def test_volt_exp_grid_is_fixed():
    assert manufactured_case("volt-exp", grid_n=2).problem.grid.size == 2
    for grid_n in (3, 7):
        with pytest.raises(InvalidSpecError, match="fixed grid of 2 points"):
            manufactured_case("volt-exp", grid_n=grid_n)


def test_listing_and_residual_do_not_probe(monkeypatch):
    calls = []
    probe = problems.probe_lipschitz

    def counting_probe(*args, **kwargs):
        calls.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(problems, "probe_lipschitz", counting_probe)
    case = manufactured_case("fred-smooth")
    assert len(calls) == 1  # the construction's own check of rho
    calls.clear()
    list_cases()
    case.reference_residual()
    assert calls == []


def _hand_built(case, **grid_rule):
    return ManufacturedCase(
        "mine", case.kind, case.problem, case.reference, case.description, case.grid_n,
        **grid_rule,
    )


def test_hand_built_case_computes_its_residual():
    registered = manufactured_case("fred-smooth")
    mine = _hand_built(registered, grid_rule=gauss_legendre_grid)
    assert mine.reference_residual() == registered.reference_residual()


def test_hand_built_fredholm_case_needs_a_grid_rule():
    with pytest.raises(InvalidSpecError, match="grid_rule"):
        _hand_built(manufactured_case("fred-smooth")).reference_residual()


def _cos_dot_case() -> ManufacturedCase:
    """0.4 cos(t.s) sin z on build_grid(33, dim=2), solution pi/2.

    The integral of cos(t.s) over the unit square is Re[c(t1) c(t2)] with
    c(x) = (e^{ix} - 1)/(ix), so that forcing term makes pi/2 the fixed point.
    """

    def c(x):
        safe = np.where(x == 0.0, 1.0, x)
        return np.where(x == 0.0, 1.0 + 0j, (np.exp(1j * safe) - 1.0) / (1j * safe))

    def f(t):
        return 0.5 * np.pi - 0.4 * np.real(c(t[..., 0]) * c(t[..., 1]))

    def kernel(t, s, z):
        return 0.4 * np.cos(np.sum(t * s, axis=-1)) * np.sin(z)

    prob = FredholmProblem(
        f, kernel, 0.4, MeasureSpec.uniform_cube(2), build_grid(33, dim=2), validate=False
    )
    return ManufacturedCase(
        "cos-dot-2d", "fredholm", prob, lambda t: np.full(np.shape(t)[:-1], 0.5 * np.pi),
        "", 33, grid_rule=lambda n: build_grid(n, dim=2),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_fredholm_residual_forms_no_refined_block(workers, monkeypatch):
    # 1,089 points against the 17,424 of the refined grid: that kernel block
    # alone would take 145 MiB.
    case = _cos_dot_case()
    monkeypatch.setattr(problems, "_WORKERS", workers)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        residual = case.reference_residual()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20
    prob, fine = case.problem, build_grid(4 * 33, dim=2)
    t, s = prob.grid.points, fine.points
    sums = np.concatenate([
        prob.kernel(t[i : i + 64, None, :], s[None, :, :], 0.5 * np.pi) @ fine.weights
        for i in range(0, t.shape[0], 64)
    ])
    dense = float(np.max(np.abs(0.5 * np.pi - (prob.f(t) + sums))))
    assert residual == pytest.approx(dense, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("case_id", ["fred-lin-const", "fred-smooth", "volt-exp", "volt-smooth"])
def test_reference_residual_small(case_id):
    case = manufactured_case(case_id)
    assert case.reference_residual() < 1e-8


@pytest.mark.parametrize("case_id", ["fred-lin-const", "fred-smooth", "volt-exp", "volt-smooth"])
def test_probe_never_exceeds_declared_constant(case_id):
    case = manufactured_case(case_id)
    prob = case.problem
    declared = prob.rho if hasattr(prob, "rho") else prob.lip
    assert probe_lipschitz(prob) <= declared + 1e-6


@pytest.mark.parametrize(
    "forcing",
    [lambda t: np.ones((np.shape(t)[0], 1)), lambda t: 1.0],
    ids=["column", "scalar"],
)
def test_forcing_term_of_another_shape_is_refused(forcing):
    # Before the check, the column built and then failed in
    # mc_solve_fredholm with numpy's own ValueError, and the scalar built
    # and ran there, while picard_solve refused it.
    with pytest.raises(InvalidSpecError, match="forcing term returned shape"):
        FredholmProblem(
            forcing, lambda t, s, z: 0.5 * np.asarray(z, dtype=float), 0.5,
            MeasureSpec.uniform_cube(1), build_grid(9), validate=False,
        )


def test_solution_bound_fred_lin_const():
    case = manufactured_case("fred-lin-const")
    # sup|f|/(1 - rho) = 1/0.5
    assert case.problem.solution_bound() == pytest.approx(2.0, abs=1e-12)

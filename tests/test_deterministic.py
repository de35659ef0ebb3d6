"""Quadrature Picard iteration, error bounds, and tau interpolation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcie import (
    FredholmProblem,
    InvalidSpecError,
    MeasureSpec,
    apriori_error_bound,
    build_grid,
    gauss_legendre_grid,
    manufactured_case,
    picard_solve,
    picard_step,
    volterra_solve,
    volterra_step,
    volterra_tail_bound,
)
from mcie import problems
from mcie.deterministic import (
    FunctionOnGrid,
    _interp_windows,
    _window_denominators,
    interp_at,
    interp_per_column,
)


def _ones(t):
    return np.ones(np.shape(t))


def _zero_kernel(t, s, z):
    return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(s)))


def test_picard_step_zero_kernel_returns_f():
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        lambda t: np.sin(3.0 * np.asarray(t)), _zero_kernel,
        0.5, MeasureSpec.uniform_cube(1), grid,
    )
    x0 = picard_step(prob)
    x1 = picard_step(prob, x0)
    assert np.array_equal(x1.values, np.sin(3.0 * grid.points))


def test_picard_step_linear_kernel_arithmetic():
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        _ones, lambda t, s, z: 0.5 * np.asarray(z, dtype=float),
        0.5, MeasureSpec.uniform_cube(1), grid,
    )
    x = FunctionOnGrid(grid, np.ones(grid.size))
    stepped = picard_step(prob, x)
    assert np.allclose(stepped.values, 1.5, atol=1e-14)


def test_picard_step_s_weighted_kernel():
    # f(t) = t, K = 0.5*s*z, x0 = f gives x1(t) = t + 0.5 * int s^2 ds
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        lambda t: np.asarray(t, dtype=float),
        lambda t, s, z: 0.5 * s * z,
        0.5, MeasureSpec.uniform_cube(1), grid,
    )
    x1 = picard_step(prob, picard_step(prob))
    assert np.abs(x1.values - (grid.points + 1.0 / 6.0)).max() <= 1e-14


def _cos_dot_kernel(t, s, z):
    return 0.4 * np.cos(np.sum(t * s, axis=-1)) * np.sin(z)


@pytest.mark.parametrize("workers", [1, 2])
def test_picard_step_forms_no_grid_by_grid_block(workers, monkeypatch):
    # 1,089 points, the benchmark's 2-D grid: the grid x grid kernel block
    # alone would be 9.5 MB (a peak of 15-19 MiB with its chunks).  Each
    # worker holds one 2 MiB chunk per coordinate plane and its temporaries.
    problem = FredholmProblem(
        lambda t: np.ones(np.shape(t)[:-1]), _cos_dot_kernel, 0.4,
        MeasureSpec.uniform_cube(2), build_grid(33, dim=2), validate=False,
    )
    x = picard_step(problem)
    monkeypatch.setattr(problems, "_WORKERS", workers)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        picard_step(problem, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < workers * 4 * 2**20, peak / 2**20


def test_picard_step_matches_the_dense_quadrature_in_row_chunks(monkeypatch):
    case = manufactured_case("fred-smooth", grid_n=300)
    problem = case.problem
    x = picard_solve(problem, 1)[-1]
    pts, w = problem.grid.points, problem.grid.weights
    dense = problem.f(pts) + problem.kernel(pts[:, None], pts[None, :], x.values[None, :]) @ w
    # Row chunks of 7 rows: per-row sums may round differently from one
    # product over the whole block, but only at roundoff.
    monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 7 * 300)
    got = picard_step(problem, x).values
    np.testing.assert_allclose(got, dense, rtol=1e-14, atol=0.0)


def test_picard_solve_fixed_point_of_linear_case():
    case = manufactured_case("fred-lin-const")
    iterates = picard_solve(case.problem, 50)
    assert len(iterates) == 51
    assert np.abs(iterates[-1].values - 2.0).max() <= 1e-10


def test_picard_solve_zero_kernel_stays_at_f():
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        _ones, _zero_kernel, 0.5, MeasureSpec.uniform_cube(1), grid,
    )
    iterates = picard_solve(prob, 3)
    for it in iterates:
        assert np.array_equal(it.values, iterates[0].values)


def test_picard_contraction_property():
    case = manufactured_case("fred-smooth")
    iterates = picard_solve(case.problem, 8)
    rho = case.problem.rho
    for n in range(2, len(iterates)):
        step = iterates[n].sup_distance(iterates[n - 1])
        prev = iterates[n - 1].sup_distance(iterates[n - 2])
        assert step <= rho * prev + 1e-12


def test_apriori_bound_empirical_on_smooth_case():
    case = manufactured_case("fred-smooth")
    iterates = picard_solve(case.problem, 200)
    ref = iterates[-1]
    delta0 = iterates[1].sup_distance(iterates[0])
    for m in range(1, 11):
        err = iterates[m].sup_distance(ref)
        assert err <= apriori_error_bound(case.problem.rho, delta0, m) + 1e-10


def test_apriori_bound_values():
    assert apriori_error_bound(0.5, 1.0, 3) == pytest.approx(0.25, abs=1e-15)
    assert apriori_error_bound(0.5, 1.0, 1) == pytest.approx(1.0, abs=1e-15)
    assert apriori_error_bound(0.9, 2.0, 5) == pytest.approx(2.0 * 0.9**5 / 0.1, rel=1e-13)


def test_apriori_bound_rejects_bad_rho():
    for rho in (0.0, 1.0, 1.3):
        with pytest.raises(InvalidSpecError):
            apriori_error_bound(rho, 1.0, 3)


def test_volterra_tail_bound_values():
    assert volterra_tail_bound(1.0, 1.0, 3) == pytest.approx(math.e - 2.5, abs=1e-12)
    assert volterra_tail_bound(0.0, 1.0, 3) == 0.0
    assert volterra_tail_bound(2.0, 1.0, 4) == pytest.approx(math.e**2 - 19.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
def test_volterra_tail_bound_matches_truncated_series(c):
    for m in range(1, 11):
        truncated = sum(c**n / math.factorial(n) for n in range(m, 61))
        assert abs(volterra_tail_bound(c, 1.0, m) - truncated) <= 1e-12


def test_volterra_step_zero_kernel_returns_f():
    case = manufactured_case("volt-smooth", tau_n=17)
    prob = case.problem
    from mcie import VolterraProblem

    quiet = VolterraProblem(
        prob.f, lambda tau, y, nu, v, z: np.zeros(np.broadcast_shapes(np.shape(tau), np.shape(v))),
        prob.lip, prob.measure, prob.grid, prob.tau_grid, validate=False,
    )
    x0 = volterra_step(quiet)
    x1 = volterra_step(quiet, x0)
    assert np.array_equal(x1.values, x0.values)


def test_volterra_step_first_iterate_linear_growth():
    case = manufactured_case("volt-exp", tau_n=33)
    x1 = volterra_step(case.problem, volterra_step(case.problem))
    expect = 1.0 + case.problem.tau_grid
    assert np.abs(x1.values[:, 0] - expect).max() <= 1e-12


def test_volterra_iterates_are_taylor_sums():
    case = manufactured_case("volt-exp", tau_n=65)
    iterates = volterra_solve(case.problem, 6)
    tau = case.problem.tau_grid
    for n, it in enumerate(iterates):
        taylor = sum(tau**k / math.factorial(k) for k in range(n + 1))
        assert np.abs(it.values[:, 0] - taylor).max() <= 1e-10


def test_volt_exp_factorial_bound_never_violated():
    case = manufactured_case("volt-exp", tau_n=65)
    iterates = volterra_solve(case.problem, 10)
    for n in range(1, 11):
        err = abs(float(iterates[n].values[-1, 0]) - math.e)
        assert err <= volterra_tail_bound(1.0, 1.0, n + 1) + 1e-12


def test_interp_at_reproduces_degree_five_polynomials():
    nodes = np.linspace(0.0, 1.0, 13)
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.5, 0.9])
    table = np.polyval(coeffs, nodes)[:, None]
    queries = np.linspace(0.0, 1.0, 201)
    got = interp_at(nodes, table, queries)[:, 0]
    assert np.abs(got - np.polyval(coeffs, queries)).max() <= 1e-12


def test_interp_at_exact_hits_pass_through():
    nodes = np.linspace(0.0, 1.0, 9)
    table = np.sin(nodes)[:, None]
    got = interp_at(nodes, table, nodes)[:, 0]
    assert np.array_equal(got, np.sin(nodes))


def test_interp_at_rejects_out_of_range():
    nodes = np.linspace(0.0, 1.0, 9)
    table = nodes[:, None]
    with pytest.raises(InvalidSpecError):
        interp_at(nodes, table, np.array([1.2]))


def test_interp_per_column_matches_columnwise_interp():
    nodes = np.linspace(0.0, 1.0, 13)
    table = np.stack([np.sin(nodes), np.cos(nodes), nodes**3], axis=1)
    queries = np.array([0.15, 0.5, 0.97])
    got = interp_per_column(nodes, table, queries)
    for j in range(3):
        single = interp_at(nodes, table[:, j : j + 1], queries[j : j + 1])[0, 0]
        assert got[j] == pytest.approx(single, abs=1e-15)


@st.composite
def _polynomial_tables(draw):
    """Sorted nodes, a polynomial of degree <= 5 on their span, and queries in range.

    Node gaps are at least 1e-3 and within a factor 8 of each other; the
    polynomial is taken in the abscissa rescaled to [0, 1].
    """
    h = draw(st.floats(1e-3, 0.1))
    gaps = h * np.array(draw(st.lists(st.floats(1.0, 8.0), min_size=5, max_size=24)))
    nodes = draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    coeffs = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)))
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)))
    lo, hi = nodes[0], nodes[-1]

    def poly(x):
        return np.polyval(coeffs, (x - lo) / (hi - lo))

    return nodes, poly, np.clip(lo + fractions * (hi - lo), lo, hi)


@settings(deadline=None)
@given(_polynomial_tables())
def test_interp_at_reproduces_random_polynomials(case):
    nodes, poly, queries = case
    got = interp_at(nodes, poly(nodes)[:, None], queries)[:, 0]
    scale = max(1.0, float(np.max(np.abs(poly(nodes)))))
    # Six-node Lagrange windows are exact for degree 5; what is left is
    # roundoff, relative to the largest tabulated value.
    assert np.max(np.abs(got - poly(queries))) <= 1e-10 * scale


@settings(deadline=None)
@given(_polynomial_tables(), st.integers(0, 2**32 - 1))
def test_interp_per_column_matches_interp_at(case, seed):
    nodes, _, queries = case
    table = np.random.default_rng(seed).standard_normal((nodes.shape[0], queries.shape[0]))
    got = interp_per_column(nodes, table, queries)
    for j in range(queries.shape[0]):
        single = interp_at(nodes, table[:, j : j + 1], queries[j : j + 1])[0, 0]
        assert abs(got[j] - single) <= 1e-12 * max(1.0, float(np.max(np.abs(table))))


@settings(deadline=None)
@given(_polynomial_tables(), st.integers(0, 2**32 - 1))
def test_interp_per_column_commutes_with_a_column_permutation(case, seed):
    # Each column's value is computed on its own, so the Volterra stages
    # may hand over their draws in any order, sorted by time included.
    nodes, _, queries = case
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((nodes.shape[0], queries.shape[0]))
    perm = rng.permutation(queries.shape[0])
    got = interp_per_column(nodes, table[:, perm], queries[perm])
    assert np.array_equal(got, interp_per_column(nodes, table, queries)[perm])


def _reference_windows(nodes, queries):
    """The per-query window arithmetic the cached denominators replaced."""
    nodes = np.asarray(nodes, dtype=float)
    q = np.asarray(queries, dtype=float)
    order = min(6, nodes.shape[0])
    pos = np.searchsorted(nodes, q)
    start = np.clip(pos - order // 2, 0, nodes.shape[0] - order)
    idx = start[:, None] + np.arange(order)[None, :]
    s = nodes[idx]
    d = q[:, None] - s
    diff = s[:, :, None] - s[:, None, :]
    np.einsum("qii->qi", diff)[...] = 1.0
    denom = diff.prod(axis=2)
    prod_all = d.prod(axis=1)
    near = np.abs(d) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        w = prod_all[:, None] / (d * denom)
    hit = near.any(axis=1)
    if np.any(hit):
        w[hit] = 0.0
        w[near] = 1.0
    return idx, w


@st.composite
def _window_queries(draw):
    """1-9 uniform or non-uniform nodes; queries at both ends, on nodes and between."""
    n = draw(st.integers(1, 9))
    lo = draw(st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        nodes = np.linspace(lo, lo + draw(st.floats(0.01, 2.0)), n)
    else:
        gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
        nodes = lo + np.concatenate([[0.0], np.cumsum(gaps)])
    on_nodes = draw(st.lists(st.integers(0, n - 1), max_size=5))
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=20)))
    between = np.clip(nodes[0] + fractions * (nodes[-1] - nodes[0]), nodes[0], nodes[-1])
    queries = np.concatenate([nodes[[0, -1]], nodes[on_nodes], between])
    return nodes, np.array(draw(st.permutations(queries)))


@settings(deadline=None)
@given(_window_queries(), st.integers(0, 2**32 - 1))
def test_interp_windows_bit_identical_to_per_query_formula(case, seed):
    nodes, queries = case
    start, w = _interp_windows(nodes, queries)
    ref_idx, ref_w = _reference_windows(nodes, queries)
    assert np.array_equal(start[:, None] + np.arange(w.shape[0]), ref_idx)
    assert np.array_equal(w.T, ref_w)
    table = np.random.default_rng(seed).standard_normal((nodes.shape[0], queries.shape[0]))
    cols = np.arange(queries.shape[0])
    expect = np.sum(ref_w * table[ref_idx, cols[:, None]], axis=1)
    assert np.array_equal(interp_per_column(nodes, table, queries), expect)


@settings(deadline=None)
@given(_window_queries(), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_interp_at_bit_identical_to_window_einsum(case, n_cols, seed):
    # Reference: the einsum over (query, slot) windows.  interp_at sums the
    # slots row by row and matches it bit for bit from two columns up.
    nodes, queries = case
    table = np.random.default_rng(seed).standard_normal((nodes.shape[0], n_cols))
    ref_idx, ref_w = _reference_windows(nodes, queries)
    expect = np.einsum("qo,qoc->qc", ref_w, table[ref_idx])
    assert np.array_equal(interp_at(nodes, table, queries), expect)


def test_interp_windows_keep_node_sets_apart():
    # Two node sets of equal length take turns; each call must use its own
    # cached denominators.
    uniform = np.linspace(0.0, 1.0, 9)
    skewed = uniform**2
    queries = np.linspace(0.0, 1.0, 37)
    _window_denominators.cache_clear()
    for nodes in (uniform, skewed, uniform, skewed):
        start, w = _interp_windows(nodes, queries)
        ref_idx, ref_w = _reference_windows(nodes, queries)
        assert np.array_equal(start[:, None] + np.arange(w.shape[0]), ref_idx)
        assert np.array_equal(w.T, ref_w)
    assert _window_denominators.cache_info().currsize == 2
    assert not _window_denominators(uniform.tobytes()).flags.writeable


def test_interp_rejects_nan_query():
    nodes = np.linspace(0.0, 1.0, 9)
    with pytest.raises(InvalidSpecError):
        interp_at(nodes, nodes[:, None], np.array([0.3, np.nan]))
    with pytest.raises(InvalidSpecError):
        interp_per_column(nodes, np.ones((9, 2)), np.array([np.nan, 0.3]))


def test_interp_rejects_repeated_nodes():
    with pytest.raises(InvalidSpecError):
        interp_at(np.array([0.0, 0.5, 0.5, 1.0]), np.arange(4.0)[:, None], np.array([0.3]))


def test_interp_rejects_unsorted_nodes():
    with pytest.raises(InvalidSpecError):
        interp_at(np.array([0.0, 0.7, 0.3, 1.0]), np.arange(4.0)[:, None], np.array([0.3]))

"""Point layout of kernel calls: coordinate-major planes for dim > 1, views in 1-D."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcie import (
    FredholmProblem,
    ManufacturedCase,
    MeasureSpec,
    RandomStream,
    VolterraProblem,
    budget_consistent_partition,
    build_grid,
    estimate_covariance,
    estimate_covariance_volterra,
    limit_covariance,
    manufactured_case,
    mc_solve_fredholm,
    mc_solve_volterra,
    picard_solve,
    picard_step,
    volterra_solve,
    volterra_step,
)
from mcie import problems
from mcie.problems import _kernel_values, _pair
from test_kernel_threads import _fred_2d, _fredholm_outputs, _volterra_outputs


def _c_order_pair(points_a, points_b):
    """The earlier ``_pair``: for dim > 1 the coordinate axis is innermost in memory."""
    a = np.asarray(points_a)
    b = np.asarray(points_b)
    if a.ndim <= 1 and b.ndim <= 1:
        return a[:, None], b[None, :]
    a2 = a if a.ndim == 2 else a[:, None]
    b2 = b if b.ndim == 2 else b[:, None]
    return a2[:, None, :], b2[None, :, :]


def _volt_2d():
    """A Volterra problem on a 4 x 4 grid whose kernel uses both points."""

    def kernel(tau, y, nu, v, z):
        return 0.3 * np.sin(np.sum(y * v, axis=-1) + nu + z)

    return VolterraProblem(
        lambda tau, y: np.asarray(tau) + np.sum(np.asarray(y), axis=-1), kernel, 0.5,
        MeasureSpec.uniform_cube(2), build_grid(4, dim=2), np.linspace(0.0, 1.0, 9),
        validate=False,
    )


def _planes_ok(points, shape) -> bool:
    """``points`` has ``shape`` and each coordinate ``points[..., k]`` is one contiguous plane."""
    return points.shape == shape and all(
        points[..., k].flags.c_contiguous for k in range(shape[-1])
    )


def _recording(problem, point_args, calls: list):
    """The problem with a kernel that records the layout of its point arrays per call."""
    kernel = problem.kernel
    dim = problem.grid.dim
    i, j = point_args

    def recorded(*args):
        t, s = args[i], args[j]
        if dim == 1:
            ok = t.ndim == 2 and t.shape[1] == 1 and s.ndim == 2 and s.shape[0] == 1
        else:
            ok = _planes_ok(t, (t.shape[0], 1, dim)) and _planes_ok(s, (1, s.shape[1], dim))
        calls.append((ok, t.shape, s.shape))
        return kernel(*args)

    return dataclasses.replace(problem, kernel=recorded, validate=False)


def _fredholm_sites(problem):
    """Each Fredholm call site, run once on ``problem``."""
    schedule = budget_consistent_partition(3000, 3)
    det = picard_solve(problem, 2)
    case = ManufacturedCase(
        "layout", "fredholm", problem, lambda t: np.ones(np.shape(t)[:-1]), "",
        5, grid_rule=lambda n: build_grid(n, dim=2),
    )
    return {
        "handoff and grid pass": lambda: mc_solve_fredholm(problem, schedule, RandomStream(2)),
        "picard_step": lambda: picard_step(problem, det[1]),
        # Without the grid pass's factor: the estimator's own draw chunks.
        "estimate_covariance": lambda: estimate_covariance(
            problem, mc_solve_fredholm(problem, schedule, RandomStream(2), factor=False)
        ),
        "limit_covariance": lambda: limit_covariance(problem, det[1]),
        "reference_residual": case.reference_residual,
    }


def _volterra_sites(problem):
    """Each Volterra call site, run once on ``problem``."""
    schedule = budget_consistent_partition(2000, 3)
    det = volterra_solve(problem, 1)
    return {
        "mc_solve_volterra": lambda: mc_solve_volterra(problem, schedule, RandomStream(1)),
        "volterra_step": lambda: volterra_step(problem, det[1]),
        "estimate_covariance_volterra": lambda: estimate_covariance_volterra(
            problem, mc_solve_volterra(problem, schedule, RandomStream(1))
        ),
        "limit_covariance": lambda: limit_covariance(problem, det[1]),
    }


@pytest.mark.parametrize("cap", [None, 512], ids=["default-cap", "small-chunks"])
@pytest.mark.parametrize("family", ["fredholm", "volterra"])
def test_two_dim_kernels_get_contiguous_coordinate_planes(family, cap, monkeypatch):
    if cap is not None:  # row chunks are slices of the coordinate-major views
        monkeypatch.setattr(problems, "_CHUNK_ENTRIES", cap)
    if family == "fredholm":
        problem, point_args, sites = _fred_2d(), (0, 1), _fredholm_sites
    else:
        problem, point_args, sites = _volt_2d(), (1, 3), _volterra_sites
    seen = {}
    calls: list = []
    for site, run in sites(_recording(problem, point_args, calls)).items():
        start = len(calls)
        run()
        seen[site] = calls[start:]
    for site, site_calls in seen.items():
        assert site_calls, site
        assert all(ok for ok, _, _ in site_calls), (site, site_calls[:3])
    if cap is not None:  # blocks such as the 25 x 2,936 grid pass were split
        assert all(t[0] * s[1] * t[-1] <= cap or t[0] == 1 for _, t, s in calls)


def test_two_dim_calls_count_every_coordinate_plane():
    # The benchmark's 33 x 33 grid.  An estimator chunk of 240 draws holds
    # 1,089 x 240 kernel values, and so does a Picard row chunk of 240
    # rows: a coordinate product twice the cap, unless each is split.
    problem = FredholmProblem(
        lambda t: np.ones(np.shape(t)[:-1]), _fred_2d().kernel, 0.4,
        MeasureSpec.uniform_cube(2), build_grid(33, dim=2), validate=False,
    )
    sizes: list = []

    def recorded(t, s, z):
        sizes.append(t.shape[0] * s.shape[1] * t.shape[-1])
        return problem.kernel(t, s, z)

    recording = dataclasses.replace(problem, kernel=recorded, validate=False)
    schedule = budget_consistent_partition(3000, 3)
    mc_solve_fredholm(recording, schedule, RandomStream(0))  # the grid pass and its factor
    run = mc_solve_fredholm(recording, schedule, RandomStream(0), factor=False)
    picard_solve(recording, 1)
    estimate_covariance(recording, run)  # the estimator's draw chunks
    assert max(sizes) <= problems._CHUNK_ENTRIES


@pytest.mark.parametrize(
    "case_id, point_args, solve, iterate",
    [("fred-smooth", (0, 1), mc_solve_fredholm, picard_solve),
     ("volt-smooth", (1, 3), mc_solve_volterra, volterra_solve)],
    ids=["fredholm", "volterra"],
)
def test_one_dim_kernels_get_a_column_and_a_row(case_id, point_args, solve, iterate):
    calls: list = []
    recorded = _recording(manufactured_case(case_id, 9).problem, point_args, calls)
    solve(recorded, budget_consistent_partition(2000, 2), RandomStream(0))
    iterate(recorded, 1)
    assert calls and all(ok for ok, _, _ in calls)
    # In 1-D _pair returns views of the points, as before.
    t, s = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 7)
    col, row = _pair(t, s)
    assert col.shape == (5, 1) and row.shape == (1, 7)
    assert np.shares_memory(col, t) and np.shares_memory(row, s)


@pytest.mark.parametrize(
    "make, outputs", [(_fred_2d, _fredholm_outputs), (_volt_2d, _volterra_outputs)],
    ids=["fredholm-5x5", "volterra-4x4"],
)
def test_two_dim_outputs_match_the_c_order_layout(make, outputs, monkeypatch):
    # Every kernel in these problems sums two coordinates, which rounds the
    # same whichever way they are laid out.
    coordinate_major = outputs(make())
    monkeypatch.setattr(problems, "_pair", _c_order_pair)
    c_order = outputs(make())
    assert len(coordinate_major) == len(c_order)
    for a, b in zip(coordinate_major, c_order):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@st.composite
def _blocks(draw):
    dim = draw(st.integers(2, 4))
    rows, n = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    coords = st.floats(-4.0, 4.0)
    return (
        draw(arrays(np.float64, (rows, dim), elements=coords)),
        draw(arrays(np.float64, (n, dim), elements=coords)),
        draw(arrays(np.float64, (n,), elements=coords)),
        draw(st.booleans()),
    )


@settings(max_examples=80, deadline=None)
@given(_blocks())
def test_kernel_values_match_c_order_broadcasting(block):
    targets, samples, z, mean = block

    def kernel(t, s, z):
        return np.sin(z) * np.sum(t * s + np.cos(t - s), axis=-1)

    problem = FredholmProblem(
        lambda t: np.zeros(np.shape(t)[:-1]), kernel, 0.5,
        MeasureSpec.uniform_cube(targets.shape[1]), build_grid(2, dim=targets.shape[1]),
        validate=False,
    )
    got = _kernel_values(problem, targets, samples, z, mean=mean)
    full = kernel(targets[:, None, :], samples[None, :, :], z[None, :])
    want = np.mean(full, axis=1) if mean else full
    if targets.shape[1] == 2:
        # Two coordinates add in one rounding in either layout.
        assert np.array_equal(got, want)
    else:
        # numpy 2.4.6 adds 3 and 4 coordinate planes in the order it adds
        # an innermost axis of that length, so these matched bit for bit
        # there too; only the two-coordinate case is guaranteed.
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)

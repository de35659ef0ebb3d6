"""Covariance estimation, Gaussian band machinery, diagnostics, and studies."""

import math
import statistics

import numpy as np
import pytest

from mcie import (
    FredholmProblem,
    InvalidSpecError,
    MeasureSpec,
    PartitionSchedule,
    RandomStream,
    budget_consistent_partition,
    confidence_band,
    coverage_study,
    estimate_covariance,
    estimate_covariance_volterra,
    gauss_legendre_grid,
    gaussian_sup_quantile,
    limit_covariance,
    manufactured_case,
    mc_solve_fredholm,
    mc_solve_volterra,
    picard_solve,
    rate_study,
    tail_log_asymptote,
)
from mcie import inference
from mcie.deterministic import picard_step


def _ones(t):
    return np.ones(np.shape(t))


def _s_kernel(t, s, z):
    shape = np.broadcast_shapes(np.shape(t), np.shape(s))
    return np.broadcast_to(s, shape).copy()


def test_estimator_zero_for_s_independent_kernel():
    case = manufactured_case("fred-lin-const")
    its = mc_solve_fredholm(case.problem, PartitionSchedule((50, 50), 100), RandomStream(0))
    est = estimate_covariance(case.problem, its)
    assert np.abs(est.matrix).max() <= 1e-14


def test_estimator_hand_arithmetic_on_two_forced_points():
    # K = s with draws {0, 1}: E[K^2] - E[K]^2 = 1/2 - 1/4 at every pair
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        _ones, _s_kernel, 0.5, MeasureSpec.uniform_cube(1), grid, validate=False
    )
    its = mc_solve_fredholm(prob, PartitionSchedule((2,), 2), RandomStream(0))
    est = estimate_covariance(prob, its, samples=np.array([0.0, 1.0]))
    assert np.abs(est.matrix - 0.25).max() <= 1e-14
    assert est.n_samples == 2


def test_limit_covariance_uniform_moments():
    # K = s under the uniform measure: 1/3 - 1/4 = 1/12 everywhere
    grid = gauss_legendre_grid(9)
    prob = FredholmProblem(
        _ones, _s_kernel, 0.5, MeasureSpec.uniform_cube(1), grid, validate=False
    )
    lim = limit_covariance(prob, picard_step(prob))
    assert np.abs(lim.matrix - 1.0 / 12.0).max() <= 1e-14


def test_limit_covariance_zero_for_s_independent_kernel():
    case = manufactured_case("fred-lin-const")
    det = picard_solve(case.problem, 2)
    lim = limit_covariance(case.problem, det[1])
    assert np.abs(lim.matrix).max() <= 1e-14


def test_estimator_approaches_limit_on_smooth_case():
    case = manufactured_case("fred-smooth")
    n = 10**5
    its = mc_solve_fredholm(
        case.problem, budget_consistent_partition(n, 3), RandomStream(0)
    )
    est = estimate_covariance(case.problem, its)
    det = picard_solve(case.problem, 3)
    lim = limit_covariance(case.problem, det[2])
    assert np.abs(est.matrix - lim.matrix).max() <= 5.0 / math.sqrt(n)


@pytest.mark.parametrize("case_id", ["fred-lin-const", "fred-smooth"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimator_symmetric_and_psd_fredholm(case_id, seed):
    case = manufactured_case(case_id)
    for stages in (1, 2):
        sched = budget_consistent_partition(2000, stages)
        its = mc_solve_fredholm(case.problem, sched, RandomStream(seed))
        est = estimate_covariance(case.problem, its)
        assert est.n_samples == sched.sizes[-1]
        assert est.asymmetry <= 1e-10
        assert np.array_equal(est.matrix, est.matrix.T)
        assert est.min_eigenvalue >= -1e-12


@pytest.mark.parametrize("case_id", ["volt-exp", "volt-smooth"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimator_symmetric_and_psd_volterra(case_id, seed):
    case = manufactured_case(case_id, tau_n=9)
    for stages in (1, 2):
        sched = budget_consistent_partition(400, stages)
        its = mc_solve_volterra(case.problem, sched, RandomStream(seed))
        est = estimate_covariance_volterra(case.problem, its)
        assert est.n_samples == sched.sizes[-1]
        assert est.asymmetry <= 1e-10
        assert np.array_equal(est.matrix, est.matrix.T)
        assert est.min_eigenvalue >= -1e-12


def test_quantile_standard_normal():
    u = gaussian_sup_quantile(np.array([[1.0]]), 0.95, RandomStream(7), n_sim=10**5)
    assert abs(u - 1.96) <= 0.02


def test_quantile_scales_with_sigma():
    u = gaussian_sup_quantile(np.array([[4.0]]), 0.95, RandomStream(7), n_sim=10**5)
    assert abs(u - 3.92) <= 0.04


def test_quantile_two_independent_components():
    u = gaussian_sup_quantile(np.eye(2), 0.95, RandomStream(7), n_sim=10**5)
    # P(max of two |N(0,1)| <= u) = 0.95 at the root of Phi-band squared
    exact = statistics.NormalDist().inv_cdf((1.0 + math.sqrt(0.95)) / 2.0)
    assert abs(u - exact) <= 0.03


def test_quantile_monotone_in_level_with_shared_draws():
    cov = np.eye(3)
    levels = [0.5, 0.8, 0.9, 0.95, 0.99]
    got = [
        gaussian_sup_quantile(cov, level, RandomStream(5), n_sim=4000)
        for level in levels
    ]
    assert all(a <= b for a, b in zip(got, got[1:]))


def test_quantile_linear_under_covariance_scaling():
    rng_a = RandomStream(6)
    rng_b = RandomStream(6)
    cov = np.array([[1.0, 0.4], [0.4, 0.8]])
    u1 = gaussian_sup_quantile(cov, 0.9, rng_a, n_sim=4000)
    u3 = gaussian_sup_quantile(9.0 * cov, 0.9, rng_b, n_sim=4000)
    assert u3 == pytest.approx(3.0 * u1, rel=1e-12)


def test_quantile_rejects_bad_level():
    with pytest.raises(InvalidSpecError):
        gaussian_sup_quantile(np.eye(2), 1.0, RandomStream(0))


def test_confidence_band_arithmetic_and_zero_width():
    center = np.zeros(4)
    band = confidence_band(center, np.zeros((4, 4)), 100, 0.9, RandomStream(0))
    assert band.halfwidth == 0.0
    assert band.covers(np.zeros(4))
    band2 = confidence_band(center, np.eye(4), 10**4, 0.95, RandomStream(0))
    assert band2.halfwidth == pytest.approx(band2.quantile / 100.0, abs=1e-15)


def test_confidence_band_covers_with_widening():
    band = confidence_band(np.zeros(3), np.zeros((3, 3)), 10, 0.9, RandomStream(0))
    off = np.full(3, 0.5)
    assert not band.covers(off)
    assert band.covers(off, widen=0.5)


@pytest.mark.parametrize("kind", ["estimate", "matrix"])
def test_confidence_band_refuses_a_center_of_another_length(kind):
    case = manufactured_case("fred-smooth")
    cov = limit_covariance(case.problem, picard_solve(case.problem, 2)[-2])
    assert cov.root.shape[0] == 65
    with pytest.raises(InvalidSpecError, match="center has 10 values but the covariance has 65"):
        confidence_band(np.zeros(10), cov if kind == "estimate" else cov.matrix, 100, 0.9,
                        RandomStream(0))


def test_band_covers_refuses_values_that_do_not_broadcast():
    band = confidence_band(np.zeros(3), np.eye(3), 10, 0.9, RandomStream(0))
    assert band.covers(0.0)
    with pytest.raises(InvalidSpecError, match="do not broadcast to the 3 points"):
        band.covers(np.zeros(4))


def test_tail_log_asymptote_values():
    assert tail_log_asymptote(2.0, np.array([[1.0]])) == pytest.approx(-2.0, abs=1e-14)
    assert tail_log_asymptote(3.0, np.array([[0.25]])) == pytest.approx(-18.0, abs=1e-13)
    with pytest.raises(InvalidSpecError):
        tail_log_asymptote(1.0, np.zeros((2, 2)))


def test_rate_study_zero_variance_flagged_undefined():
    case = manufactured_case("fred-lin-const")
    res = rate_study(
        case.problem, 2, [100, 400, 1600, 6400], RandomStream(0), replications=5
    )
    assert res.slope is None
    assert res.undefined_reason


def test_rate_study_volterra_slope_near_half():
    case = manufactured_case("volt-exp")
    res = rate_study(
        case.problem, 2, [250, 1000, 4000, 16000], RandomStream(4), replications=20
    )
    assert res.slope is not None
    assert -0.6 <= res.slope <= -0.4


def test_rate_study_input_validation():
    case = manufactured_case("fred-smooth")
    with pytest.raises(InvalidSpecError):
        rate_study(case.problem, 2, [1000], RandomStream(0))


def test_coverage_study_refuses_a_bad_level_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(inference, "mc_solve_fredholm", lambda *args, **kw: runs.append(args))
    case = manufactured_case("fred-smooth")
    with pytest.raises(InvalidSpecError, match="level"):
        coverage_study(case.problem, 2, 400, 1.5, RandomStream(0), replications=50)
    assert runs == []


def test_coverage_study_refuses_a_wrong_reference_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(inference, "mc_solve_fredholm", lambda *args, **kw: runs.append(args))
    case = manufactured_case("fred-smooth")
    with pytest.raises(InvalidSpecError, match="do not broadcast to the 65 points"):
        coverage_study(case.problem, 2, 400, 0.9, RandomStream(0), replications=50,
                       reference=np.zeros(64))
    assert runs == []


def test_coverage_zero_variance_is_total():
    case = manufactured_case("fred-lin-const")
    res = coverage_study(case.problem, 2, 400, 0.9, RandomStream(0), replications=50)
    assert res.coverage == 1.0


def test_coverage_half_level_band():
    case = manufactured_case("fred-smooth")
    res = coverage_study(case.problem, 3, 5000, 0.5, RandomStream(0), replications=500)
    assert 0.43 <= res.coverage <= 0.57


def test_studies_identical_across_worker_counts():
    case = manufactured_case("fred-smooth")
    rates = [
        rate_study(
            case.problem, 2, [200, 800], RandomStream(3),
            replications=6, workers=w,
        )
        for w in (1, 3)
    ]
    assert repr(rates[0]) == repr(rates[1])
    covers = [
        coverage_study(
            case.problem, 2, 800, 0.9, RandomStream(3),
            replications=20, workers=w,
        )
        for w in (1, 3)
    ]
    assert repr(covers[0]) == repr(covers[1])

"""The integer rule: every count and index argument refuses booleans."""

import numpy as np
import pytest

from mcie import (
    InvalidSpecError,
    MeasureSpec,
    RandomStream,
    apriori_error_bound,
    build_grid,
    confidence_band,
    coverage_study,
    gauss_legendre_grid,
    gaussian_sup_quantile,
    manufactured_case,
    mc_solve_fredholm,
    picard_solve,
    probe_lipschitz,
    rate_study,
    sample_measure,
    uniform_partition,
    volterra_cauchy_demo,
)
from mcie.errors import check_int


def _problem():
    return manufactured_case("fred-lin-const").problem


def _coverage(**kw):
    return coverage_study(_problem(), 2, 400, 0.9, RandomStream(0), **kw)


# Each call passes True where an integer of at least 0, 1, 2 or 100 goes.
_CALLS = {
    "seed": lambda: RandomStream(True),
    "lane-role": lambda: RandomStream(0).generator(True, 0, 0),
    "lane-replication": lambda: RandomStream(0).generator(0, True, 0),
    "lane-stage": lambda: RandomStream(0).generator(0, 0, True),
    "budget": lambda: uniform_partition(True, 1),
    "stages": lambda: uniform_partition(10, True),
    "resolution": lambda: build_grid(True),
    "grid-dim": lambda: build_grid(3, dim=True),
    "gauss-legendre-nodes": lambda: gauss_legendre_grid(True),
    "measure-dim": lambda: MeasureSpec.uniform_cube(True),
    "draw-count": lambda: sample_measure(MeasureSpec.uniform_cube(), True, RandomStream(0)),
    "replication-index": lambda: mc_solve_fredholm(
        _problem(), uniform_partition(100, 2), RandomStream(0), replication=True
    ),
    "probes": lambda: probe_lipschitz(_problem(), n_probes=True),
    "iterations": lambda: picard_solve(_problem(), True),
    "bound-iterations": lambda: apriori_error_bound(0.5, 1.0, True),
    "n-sim": lambda: gaussian_sup_quantile(np.eye(2), 0.9, RandomStream(0), n_sim=True),
    "q-last": lambda: confidence_band(np.zeros(2), np.eye(2), True, 0.9, RandomStream(0)),
    "replications": lambda: _coverage(replications=True),
    "workers": lambda: _coverage(replications=2, workers=True),
    "rate-workers": lambda: rate_study(
        _problem(), 2, [100, 400], RandomStream(0), replications=2, workers=True
    ),
    "demo-stages": lambda: volterra_cauchy_demo(True, 1000, RandomStream(0)),
    "demo-replications": lambda: volterra_cauchy_demo(
        2, 1000, RandomStream(0), replications=True
    ),
    "demo-budget": lambda: volterra_cauchy_demo(2, True, RandomStream(0)),
    "tau-points": lambda: manufactured_case("volt-exp", tau_n=True),
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_integer_arguments_refuse_true(name):
    with pytest.raises(InvalidSpecError):
        _CALLS[name]()


@pytest.mark.parametrize("value", [True, False, 1.0, np.int64(3), "3", None, -1])
def test_check_int_refuses_what_is_not_an_int_at_the_bound(value):
    with pytest.raises(InvalidSpecError, match="^n must be a non-negative integer$"):
        check_int(value, 0, "n must be a non-negative integer")


def test_check_int_accepts_an_int_at_the_bound():
    check_int(0, 0, "unused")
    check_int(2**70, 2, "unused")


def test_counts_that_were_unchecked_refuse_floats():
    with pytest.raises(InvalidSpecError, match="budget must be a positive integer"):
        volterra_cauchy_demo(2, 1000.5, RandomStream(0), replications=2)
    with pytest.raises(InvalidSpecError, match="tau_n must be an integer of at least 2"):
        manufactured_case("volt-exp", tau_n=3.0)


@pytest.mark.parametrize("workers", [0, -1, 2.0])
def test_studies_refuse_workers_below_one(workers):
    with pytest.raises(InvalidSpecError, match="workers must be a positive integer"):
        _coverage(replications=2, workers=workers)


def test_lane_coordinates_must_be_integers():
    with pytest.raises(InvalidSpecError, match="lane coordinates"):
        RandomStream(0).generator(0, 1.5, 0)

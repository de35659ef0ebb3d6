"""Stage-budget partitions, the allocation search, and keyed random streams."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcie import (
    InvalidSpecError,
    PartitionSchedule,
    RandomStream,
    allocation_objective,
    asymptotic_partition,
    brute_force_allocation,
    budget_consistent_partition,
    uniform_partition,
    validate_partition,
)
from mcie.sampling import ROLE_ETA, ROLE_XI


def test_uniform_partition_even_split():
    sched = uniform_partition(100, 4)
    assert sched.sizes == (25, 25, 25, 25)
    assert sched.budget == 100


def test_uniform_partition_residual_goes_last():
    assert uniform_partition(10, 3).sizes == (3, 3, 4)


def test_uniform_partition_all_ones():
    assert uniform_partition(5, 5).sizes == (1, 1, 1, 1, 1)


def test_uniform_partition_rejects_small_budget():
    with pytest.raises(InvalidSpecError):
        uniform_partition(3, 4)


def test_boundaries_cumulative_and_final_equals_budget():
    sched = uniform_partition(10, 3)
    assert sched.boundaries == (3, 6, 10)
    assert sched.boundaries[-1] == sched.budget
    assert all(b < a for b, a in zip(sched.boundaries, sched.boundaries[1:]))


def test_gamma_shares_sum_to_one():
    for budget, stages in ((10, 3), (100, 4), (97, 5)):
        g = uniform_partition(budget, stages).gamma
        assert abs(g.sum() - 1.0) <= 1e-12
        assert np.all(g > 0) and np.all(g <= 1)


def test_asymptotic_partition_pinned_million():
    part = asymptotic_partition(10**6, 3)
    assert part.sizes == (5, 26, 968)
    assert part.budget == 999
    assert part.budget != 10**6


@pytest.mark.parametrize(
    "budget,stages,expected",
    [(10**4, 2, (10, 90)), (256, 2, (4, 12))],
)
def test_asymptotic_partition_two_stage_values(budget, stages, expected):
    assert asymptotic_partition(budget, stages).sizes == expected


def test_asymptotic_last_stage_tracks_root_budget():
    for budget in (10**6, 10**7):
        part = asymptotic_partition(budget, 3)
        ratio = part.sizes[-1] / np.sqrt(budget)
        assert 0.9 <= ratio <= 1.0


def test_asymptotic_partition_rejects_tiny_budget():
    with pytest.raises(InvalidSpecError):
        asymptotic_partition(16, 3)


def test_allocation_objective_values():
    assert allocation_objective([2, 4]) == pytest.approx(0.375, abs=1e-15)
    assert allocation_objective([10]) == pytest.approx(0.1, abs=1e-15)
    assert allocation_objective([2, 2, 2]) == pytest.approx(0.875, abs=1e-15)


def test_allocation_objective_rejects_empty():
    with pytest.raises(InvalidSpecError):
        allocation_objective([])


def test_budget_consistent_small_cases():
    assert budget_consistent_partition(12, 2).sizes == (3, 9)
    assert budget_consistent_partition(100, 1).sizes == (100,)


def test_budget_consistent_hundred_two_stages():
    sched = budget_consistent_partition(100, 2)
    assert sched.sizes == (9, 91)
    # exhaustive check of the two-stage objective
    best = min(
        (allocation_objective([q1, 100 - q1]), q1) for q1 in range(1, 100)
    )
    assert best[1] == 9
    assert allocation_objective(sched.sizes) == pytest.approx(0.0122100, abs=5e-8)


def test_budget_consistent_passes_validation():
    for budget, stages in ((12, 2), (100, 2), (257, 3), (10**5, 4)):
        report = validate_partition(budget_consistent_partition(budget, stages))
        assert report.ok
        assert report.total == budget


def test_budget_consistent_rejects_infeasible():
    with pytest.raises(InvalidSpecError):
        budget_consistent_partition(7, 3)


def test_brute_force_pinned_cases():
    assert brute_force_allocation(12, 2).sizes == (3, 9)
    assert brute_force_allocation(3, 3).sizes == (1, 1, 1)


def test_brute_force_matches_enumeration_oracle():
    budget, stages = 6, 3
    best = None
    for parts in itertools.product(range(1, budget), repeat=stages - 1):
        rest = budget - sum(parts)
        if rest < 1:
            continue
        q = parts + (rest,)
        z = allocation_objective(q)
        if best is None or z < best[0]:
            best = (z, q)
    assert brute_force_allocation(budget, stages).sizes == best[1]


def test_brute_force_tie_break_lexicographic():
    # all compositions of 3 into 3 positive parts collapse to one choice,
    # so probe a size where distinct argmin candidates appear
    sched = brute_force_allocation(4, 3)
    z = allocation_objective(sched.sizes)
    for parts in itertools.product((1, 2), repeat=2):
        rest = 4 - sum(parts)
        if rest < 1:
            continue
        q = parts + (rest,)
        if allocation_objective(q) == z:
            assert sched.sizes <= q
            break


def test_brute_force_rejects_out_of_bounds():
    with pytest.raises(InvalidSpecError):
        brute_force_allocation(501, 2)
    with pytest.raises(InvalidSpecError):
        brute_force_allocation(100, 4)


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_budget_consistent_near_optimal_sample(stages):
    # spot-check of the 5% optimality contract; the full sweep over every
    # feasible budget up to 500 runs in the acceptance tests
    for budget in range(2**stages, 501, 61):
        got = allocation_objective(budget_consistent_partition(budget, stages).sizes)
        best = allocation_objective(brute_force_allocation(budget, stages).sizes)
        assert got <= 1.05 * best + 1e-15


def test_validate_partition_flags_zero_stage():
    report = validate_partition(PartitionSchedule((0, 100), 100))
    assert not report.ok
    assert any("below 1" in v for v in report.violations)


def test_validate_partition_flags_budget_mismatch():
    report = validate_partition(PartitionSchedule((5, 26, 968), 10**6))
    assert not report.ok
    assert report.total == 999


@pytest.mark.parametrize(
    "sizes, budget",
    [((True, 2), 3), ((2.0, 3), 5), ((np.int64(2), 3), 5), ((2, 3), 5.0), ((1,), True)],
)
def test_sizes_and_budgets_that_are_not_integers_are_refused(sizes, budget):
    report = validate_partition(PartitionSchedule(sizes, budget))
    assert not report.ok
    assert any("not an integer" in v for v in report.violations)
    with pytest.raises(InvalidSpecError, match="not an integer"):
        PartitionSchedule.from_sizes(sizes, budget)


def test_from_sizes_refuses_instead_of_truncating():
    with pytest.raises(InvalidSpecError, match=r"stage 1: size 2\.7 is not an integer"):
        PartitionSchedule.from_sizes([2.7, 3.3], 5)
    with pytest.raises(InvalidSpecError, match="below 1"):
        PartitionSchedule.from_sizes([0, 5])
    with pytest.raises(InvalidSpecError, match="budget is 6"):
        PartitionSchedule.from_sizes([2, 3], 6)
    assert PartitionSchedule.from_sizes([2, 3]) == PartitionSchedule((2, 3), 5)


@pytest.mark.parametrize(
    "schedule",
    [
        asymptotic_partition(10**6, 3),
        brute_force_allocation(100, 2),
        brute_force_allocation(100, 3),
        budget_consistent_partition(1000, 3),
        uniform_partition(10, 3),
    ],
)
def test_factories_hand_python_ints(schedule):
    assert all(type(q) is int for q in schedule.sizes)
    assert type(schedule.budget) is int


def test_validate_partition_accepts_uniform():
    report = validate_partition(uniform_partition(100, 4))
    assert report.ok
    assert report.violations == ()


def test_stream_same_lane_is_bit_identical():
    a = RandomStream(42).generator(ROLE_XI, 3, 1).random(64)
    b = RandomStream(42).generator(ROLE_XI, 3, 1).random(64)
    assert np.array_equal(a, b)


def test_stream_distinct_lanes_differ():
    base = RandomStream(42)
    draws = {
        lane: base.generator(*lane).random(8).tobytes()
        for lane in ((ROLE_XI, 0, 0), (ROLE_XI, 0, 1), (ROLE_XI, 1, 0), (ROLE_ETA, 0, 0))
    }
    assert len(set(draws.values())) == len(draws)


def test_stream_rejects_bad_seed_and_lane():
    with pytest.raises(InvalidSpecError):
        RandomStream(-1)
    with pytest.raises(InvalidSpecError):
        RandomStream(0).generator(-1, 0, 0)


_STAGES_AND_BUDGET = st.integers(1, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2**m, 10**6))
)


@settings(deadline=None)
@given(_STAGES_AND_BUDGET)
def test_partitions_spend_the_budget_exactly(stages_budget):
    stages, budget = stages_budget
    for schedule in (
        uniform_partition(budget, stages),
        budget_consistent_partition(budget, stages),
    ):
        assert len(schedule.sizes) == stages
        assert min(schedule.sizes) >= 1
        assert sum(schedule.sizes) == budget
        assert validate_partition(schedule).ok


_LANES = st.tuples(st.integers(0, 3), st.integers(0, 1000), st.integers(0, 20))


@given(st.integers(0, 2**63), _LANES, _LANES)
def test_stream_lanes_repeat_and_differ(seed, lane, other):
    first = RandomStream(seed).generator(*lane).random(16)
    assert np.array_equal(first, RandomStream(seed).generator(*lane).random(16))
    if other != lane:
        assert not np.array_equal(first, RandomStream(seed).generator(*other).random(16))

"""Stage budgets and keyed randomness for staged Monte Carlo runs.

A staged run consumes a total budget of ``N`` random draws split into
consecutive blocks, one block per iteration stage.  This module provides
the block-size schedules (uniform, closed-form cascade, budget-consistent
search) and a counter-keyed random stream whose output depends only on
the seed and a lane address, never on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, check_int, is_int

__all__ = [
    "ROLE_XI",
    "ROLE_ETA",
    "ROLE_GAUSS",
    "ROLE_PROBE",
    "RandomStream",
    "PartitionSchedule",
    "PartitionReport",
    "uniform_partition",
    "asymptotic_partition",
    "budget_consistent_partition",
    "allocation_objective",
    "brute_force_allocation",
    "validate_partition",
]

# Lane roles.  Spatial draws, time-fraction draws, Gaussian simulation for
# band quantiles, and Lipschitz probing never share a generator.
ROLE_XI = 0
ROLE_ETA = 1
ROLE_GAUSS = 2
ROLE_PROBE = 3

# Closed-form stage sizes are differences of fractional powers of N.  A
# value that lands a hair below an integer (cancellation in N**a - C*N**b)
# is snapped up before truncation so the integer part is stable.
_ENT_SNAP = 1e-3


def _ent(value: float) -> int:
    return int(math.floor(value + _ENT_SNAP))


@dataclass(frozen=True)
class RandomStream:
    """Counter-keyed source of reproducible generators.

    Every generator is addressed by a lane ``(role, replication, stage)``.
    The same seed and lane always reproduce the same draws, and distinct
    lanes are statistically independent, so results do not depend on the
    order in which work is executed or on how it is split across workers.
    """

    seed: int

    def __post_init__(self) -> None:
        check_int(self.seed, 0, "seed must be a non-negative integer")

    def generator(
        self, role: int = 0, replication: int = 0, stage: int = 0
    ) -> np.random.Generator:
        for coordinate in (role, replication, stage):
            check_int(coordinate, 0, "lane coordinates must be non-negative integers")
        key = np.random.SeedSequence(self.seed, spawn_key=(role, replication, stage))
        return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class PartitionSchedule:
    """Block sizes ``q(1..m)`` drawn against a total budget.

    ``sizes[k - 1]`` is the number of fresh draws consumed by stage ``k``.
    Construction does not validate; use :func:`validate_partition` for a
    violation report.  The factory functions in this module only return
    schedules that pass it.
    """

    sizes: tuple[int, ...]
    budget: int

    @classmethod
    def from_sizes(
        cls, sizes: "list[int] | tuple[int, ...]", budget: "int | None" = None
    ) -> "PartitionSchedule":
        """Schedule of these sizes and budget (their sum by default).

        Raises ``InvalidSpecError`` with the violations of
        :func:`validate_partition` unless the schedule passes it; sizes
        are not converted, so ``2.0`` or ``2.7`` is refused, not truncated.
        """
        t = tuple(sizes)
        schedule = cls(t, sum(t) if budget is None else budget)
        report = validate_partition(schedule)
        if not report.ok:
            raise InvalidSpecError("; ".join(report.violations))
        return schedule

    @property
    def stages(self) -> int:
        return len(self.sizes)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative draw counts after each stage."""
        out: list[int] = []
        acc = 0
        for q in self.sizes:
            acc += q
            out.append(acc)
        return tuple(out)

    @property
    def gamma(self) -> np.ndarray:
        """Stage shares of the budget."""
        if self.budget <= 0:
            raise InvalidSpecError("gamma is undefined for a non-positive budget")
        return np.asarray(self.sizes, dtype=float) / float(self.budget)


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of checking a schedule against the partition contract."""

    violations: tuple[str, ...]
    total: int
    budget: int

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_partition(schedule: PartitionSchedule) -> PartitionReport:
    """Check stage sizes and the budget identity.

    Sizes and the budget follow :func:`~mcie.errors.is_int`: a ``bool``,
    a float or a numpy integer is reported, even one of integral value.
    """
    violations: list[str] = []
    sizes = schedule.sizes
    total = sum(int(q) for q in sizes)
    if len(sizes) < 1:
        violations.append("schedule has no stages")
    for k, q in enumerate(sizes, start=1):
        if not is_int(q):
            violations.append(f"stage {k}: size {q!r} is not an integer")
        elif q < 1:
            violations.append(f"stage {k}: size {q} is below 1")
    if not is_int(schedule.budget):
        violations.append(f"budget {schedule.budget!r} is not an integer")
    elif total != schedule.budget:
        violations.append(
            f"stage sizes sum to {total}, budget is {schedule.budget}"
        )
    return PartitionReport(tuple(violations), total, schedule.budget)


def uniform_partition(budget: int, stages: int) -> PartitionSchedule:
    """Equal blocks, remainder folded into the final stage."""
    _check_budget_stages(budget, stages)
    if budget < stages:
        raise InvalidSpecError(
            f"budget {budget} cannot cover {stages} stages with one draw each"
        )
    base = budget // stages
    sizes = [base] * stages
    sizes[-1] += budget - base * stages
    return PartitionSchedule.from_sizes(sizes, budget)


def asymptotic_partition(budget: int, stages: int) -> PartitionSchedule:
    """Closed-form cascade ``q(k)`` driven by fractional powers of the budget.

    The final stage takes roughly ``sqrt(N)`` draws and each earlier stage
    the square root of its successor, with unit per-stage constants:
    ``q(k) = N**(2**(k-m-1)) - N**(2**(k-m-2))``, except ``q(1) = N**(2**-m)``
    when ``m > 1``.  The sizes come from truncating real-valued
    expressions, so their sum usually falls short of the budget.  The
    schedule's ``budget`` is that sum, the budget it actually spends;
    callers that need an exact split should use
    :func:`budget_consistent_partition`.
    """
    _check_budget_stages(budget, stages)
    n = float(budget)
    m = stages
    sizes = [0] * m
    sizes[m - 1] = _ent(n**0.5 - n**0.25)
    for k in range(1, m - 1):
        sizes[m - 1 - k] = _ent(n ** (2.0 ** (-k - 1)) - n ** (2.0 ** (-k - 2)))
    if m > 1:
        sizes[0] = _ent(n ** (2.0 ** (-m)))
    bad = [k + 1 for k, q in enumerate(sizes) if q < 1]
    if bad:
        raise InvalidSpecError(
            f"cascade gives stage sizes below 1 at stages {bad} "
            f"(budget {budget} is too small for {stages} stages)"
        )
    return PartitionSchedule.from_sizes(sizes)


def allocation_objective(sizes: "list[int] | tuple[int, ...]") -> float:
    """Variance-proxy cost of a schedule.

    Sum over stages of the reciprocal product of the trailing block sizes:
    ``1/q(m) + 1/(q(m)q(m-1)) + ... + 1/(q(m)...q(1))``.  Smaller is better
    for a fixed budget.
    """
    t = [int(q) for q in sizes]
    if not t:
        raise InvalidSpecError("schedule has no stages")
    if any(q < 1 for q in t):
        raise InvalidSpecError("all stage sizes must be at least 1")
    rev = np.asarray(t[::-1], dtype=float)
    return float(np.sum(1.0 / np.cumprod(rev)))


def budget_consistent_partition(budget: int, stages: int) -> PartitionSchedule:
    """Exact split of the budget shaped like the closed-form cascade.

    Starts from rounded cascade sizes with the remainder in the final
    stage, then walks single draws between stages while the allocation
    objective strictly improves.  Deterministic for fixed arguments.
    """
    _check_budget_stages(budget, stages)
    if budget < 2**stages:
        raise InvalidSpecError(
            f"budget {budget} is below 2**{stages}; stage sizes would collapse"
        )
    if stages == 1:
        return PartitionSchedule.from_sizes([budget], budget)
    sizes = [0] * stages
    for s in range(stages - 1):
        sizes[s] = max(1, round(float(budget) ** (2.0 ** (-(stages - 1 - s)))))
    # The earlier stages take at most sqrt(N) + (m - 2) N**(1/4) + (m - 1)/2
    # draws, which leaves the last at least 2 whenever N >= 2**m.
    sizes[-1] = budget - sum(sizes[:-1])
    sizes = _descend(sizes)
    return PartitionSchedule.from_sizes(sizes, budget)


def _descend(sizes: "list[int]") -> "list[int]":
    # Greedy transfer of draws between stages.  Steps down through move
    # sizes so shallow local minima of the single-unit walk are escaped;
    # the scan order is fixed, keeping the result deterministic.
    best = allocation_objective(sizes)
    for _ in range(200):
        improved = False
        for move in (32, 8, 4, 2, 1):
            for i in range(len(sizes)):
                for j in range(len(sizes)):
                    if i == j or sizes[i] - move < 1:
                        continue
                    trial = list(sizes)
                    trial[i] -= move
                    trial[j] += move
                    z = allocation_objective(trial)
                    if z < best:
                        sizes, best, improved = trial, z, True
        if not improved:
            break
    return sizes


def brute_force_allocation(budget: int, stages: int) -> PartitionSchedule:
    """Exhaustive minimiser of the allocation objective.

    Only supports small instances (budget up to 500, at most 3 stages);
    ties resolve to the lexicographically smallest schedule.
    """
    _check_budget_stages(budget, stages)
    if budget > 500:
        raise InvalidSpecError("brute force is limited to budgets of at most 500")
    if stages > 3:
        raise InvalidSpecError("brute force is limited to at most 3 stages")
    if budget < stages:
        raise InvalidSpecError(
            f"budget {budget} cannot cover {stages} stages with one draw each"
        )
    if stages == 1:
        return PartitionSchedule.from_sizes([budget], budget)
    if stages == 2:
        q1 = np.arange(1, budget, dtype=float)
        q2 = budget - q1
        z = 1.0 / q2 + 1.0 / (q1 * q2)
        i = int(np.argmin(z))
        return PartitionSchedule.from_sizes([int(q1[i]), int(q2[i])], budget)
    best: "tuple[int, int, int] | None" = None
    best_z = math.inf
    for a in range(1, budget - 1):
        q2 = np.arange(1, budget - a, dtype=float)
        q3 = budget - a - q2
        z = 1.0 / q3 + 1.0 / (q2 * q3) + 1.0 / (a * q2 * q3)
        i = int(np.argmin(z))
        if z[i] < best_z:
            best_z = float(z[i])
            best = (a, int(q2[i]), int(q3[i]))
    assert best is not None
    return PartitionSchedule.from_sizes(list(best), budget)


# Schedule kinds by name: whether the kind always spends the budget exactly,
# and its factory.  The factories are called through their module-level
# names, so a rebinding of those names (tracing does that) reaches them.
_SCHEDULES = {
    "uniform": (True, lambda budget, m: uniform_partition(budget, m)),
    "budget-consistent": (True, lambda budget, m: budget_consistent_partition(budget, m)),
    "asymptotic": (False, lambda budget, m: asymptotic_partition(budget, m)),
}


def _make_schedule(
    kind: str, budget: int, stages: int, exact: bool = False
) -> "tuple[PartitionSchedule, str | None]":
    """Schedule of a named kind, with a warning when it misses the budget.

    Closed-form ``asymptotic`` sizes that do not sum to the budget run on
    their own total, and the warning says so.  ``exact=True`` accepts
    only the kinds that always spend the budget exactly.
    """
    exact_kinds = " or ".join(repr(k) for k, (spends, _) in _SCHEDULES.items() if spends)
    if kind not in _SCHEDULES:
        raise InvalidSpecError(f"unknown schedule kind {kind!r}; use {exact_kinds}")
    spends, factory = _SCHEDULES[kind]
    if exact and not spends:
        raise InvalidSpecError(
            f"schedule kind {kind!r} does not spend the budget exactly; use {exact_kinds}"
        )
    schedule = factory(budget, stages)
    if schedule.budget == budget:
        return schedule, None
    return schedule, (
        f"sum != budget; closed-form sizes total {schedule.budget}, "
        f"running with that effective budget"
    )


def _check_budget_stages(budget: int, stages: int) -> None:
    check_int(stages, 1, "stage count must be a positive integer")
    check_int(budget, 1, "budget must be a positive integer")

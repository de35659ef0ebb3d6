"""Work-count self-test of the traced benchmark.

    python3 -m pytest -q bench/test_bench.py

Traced kernel-evaluation counts must equal the cost model of the staged
estimator, sum_k q(k) q(k+1) + n_grid q(m) (times n_tau for Volterra),
and must repeat exactly across traced requests with different seeds.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  - caps BLAS threads before numpy loads
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [k for k, unit in run.PER_LAYER_UNITS.items() if unit in ("count", "B")]


def handoff(sizes):
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


def traced_requests(name: str, seeds=(3, 11)) -> "list[dict]":
    """Per-layer figures of one traced request per seed."""
    workload = WORKLOADS[name]
    _, mcie, state = run.timed_setup(workload)
    runner = run.Runner(workload, mcie, state, 0)
    rows = []
    for seed in seeds:
        tracer = spans.Tracer()
        runner.request(seed, spans.Instrumentation(tracer))
        rows.append(spans.request_layer_metrics(tracer.spans, 0))
    assert runner.failures == []
    return rows


def assert_repeat(rows: "list[dict]") -> None:
    first = {k: rows[0].get(k, 0) for k in COUNTS}
    for row in rows[1:]:
        assert {k: row.get(k, 0) for k in COUNTS} == first


def test_fred_coverage_counts_match_cost_model():
    rows = traced_requests("fred-coverage")
    assert_repeat(rows)
    sizes, reps, n_grid = (18, 324, 99658), 2, 65
    row = rows[0]
    assert row["mc_fredholm.handoff_evals"] == reps * handoff(sizes) == reps * 32_295_024
    assert row["mc_fredholm.grid_evals"] == reps * n_grid * sizes[-1] == reps * 6_477_770
    assert row["mc_fredholm.handoff_evals"] + row["mc_fredholm.grid_evals"] == reps * 38_772_794
    assert row["sampling.draws"] == reps * 100_000


def test_fred_2d_counts_match_cost_model():
    rows = traced_requests("fred-2d")
    assert_repeat(rows)
    sizes, n_grid = (10, 104, 9886), 33 * 33
    row = rows[0]
    assert row["mc_fredholm.handoff_evals"] == handoff(sizes) == 1_029_184
    assert row["mc_fredholm.grid_evals"] == n_grid * sizes[-1] == 10_765_854
    assert row["mc_fredholm.handoff_evals"] + row["mc_fredholm.grid_evals"] == 11_795_038
    assert row["deterministic.kernel_evals"] == 3 * n_grid * n_grid
    assert row["inference.cov_block_bytes"] == n_grid * 10_000 * 8


def test_volt_exp_coverage_counts_match_cost_model():
    rows = traced_requests("volt-exp-coverage")
    assert_repeat(rows)
    sizes, reps, n_grid, n_tau = (3, 13, 147, 19837), 2, 2, 65
    per_rep = (handoff(sizes) + n_grid * sizes[-1]) * n_tau
    assert per_rep == 192_248_095
    assert rows[0]["mc_volterra.kernel_evals"] == reps * per_rep
    assert rows[0]["mc_volterra.interp_calls"] == reps * (len(sizes) - 1) * n_tau


def test_schedules_match_the_workloads():
    mcie = run.timed_setup(WORKLOADS["fred-coverage"])[1]
    for budget, stages, sizes in ((100_000, 3, (18, 324, 99658)),
                                  (10_000, 3, (10, 104, 9886)),
                                  (20_000, 4, (3, 13, 147, 19837))):
        assert mcie.budget_consistent_partition(budget, stages).sizes == sizes


@pytest.mark.parametrize("times, expected", [
    ([1.0] * 10, None),
    ([float(i) for i in range(1, 12)], (100.0 / 11, 1.0)),
    ([float(i) for i in range(1, 21)], (50.0, 10.0)),
])
def test_tail_has_ten_requests_beyond(times, expected):
    assert run.tail(times) == expected


def test_benchmark_json_declares_the_printed_metrics():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)

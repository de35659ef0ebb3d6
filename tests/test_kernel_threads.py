"""Kernel blocks on the kernel pool: worker-count invariance, faults, no nested pools."""

import dataclasses
import math
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mcie import (
    FredholmProblem,
    MeasureSpec,
    NonFiniteKernelError,
    RandomStream,
    budget_consistent_partition,
    build_grid,
    coverage_study,
    estimate_covariance,
    estimate_covariance_volterra,
    limit_covariance,
    manufactured_case,
    mc_solve_fredholm,
    mc_solve_volterra,
    picard_solve,
    volterra_solve,
)
from mcie import inference, problems
from mcie.problems import _enter_pool_thread, _kernel_rows, _kernel_values

_POOL = "mcie-kernel"


def _recording(problem, names: list):
    """The problem with a kernel that records the thread of each call."""
    kernel = problem.kernel

    def recorded(*args):
        names.append(threading.current_thread().name)
        return kernel(*args)

    return dataclasses.replace(problem, kernel=recorded, validate=False)


def _fred_2d():
    def kernel(t, s, z):
        return 0.4 * np.cos(np.sum(t * s, axis=-1)) * np.sin(z)

    return FredholmProblem(
        lambda t: np.ones(np.shape(t)[:-1]), kernel, 0.4,
        MeasureSpec.uniform_cube(2), build_grid(5, dim=2),
    )


def _fredholm_outputs(problem):
    schedule = budget_consistent_partition(3000, 3)
    run = mc_solve_fredholm(problem, schedule, RandomStream(5))
    det = picard_solve(problem, 3)
    out = [a for it in run for a in (it.input_values, it.sample_values, it.grid_values)
           if a is not None]
    # The grid pass's factor and its root, the draw-chunk root of the same
    # record without it, and the limit root.
    drawn = run[:-1] + [dataclasses.replace(run[-1], factor=None)]
    out += [run[-1].factor, estimate_covariance(problem, run).root]
    out += [estimate_covariance(problem, drawn).root, limit_covariance(problem, det[-2]).root]
    return out + [x.values for x in det]


def _volterra_outputs(problem):
    schedule = budget_consistent_partition(2000, 3)
    run = mc_solve_volterra(problem, schedule, RandomStream(1))
    det = volterra_solve(problem, 3)
    out = [run[0].table, run[1].table, run[-1].grid_table]
    out += [estimate_covariance_volterra(problem, run).root,
            limit_covariance(problem, det[-2]).root]
    return out + [x.values for x in det]


_CASES = {
    "fredholm-1d": (lambda fx: manufactured_case("fred-smooth").problem, _fredholm_outputs),
    # Picard sums over six row chunks of 54 rows at the cap below.
    "fredholm-300": (
        lambda fx: manufactured_case("fred-smooth", grid_n=300).problem, _fredholm_outputs
    ),
    "fredholm-5x5": (lambda fx: _fred_2d(), _fredholm_outputs),
    "volt-smooth": (
        lambda fx: manufactured_case("volt-smooth", tau_n=9).problem, _volterra_outputs
    ),
    "y-dependent": (lambda fx: fx.problem, _volterra_outputs),
}


def _estimator_threads(problem) -> "tuple[np.ndarray, list]":
    """The draw-chunk root of the Fredholm outputs' run and the thread of each chunk's kernel call."""
    run = mc_solve_fredholm(
        problem, budget_consistent_partition(3000, 3), RandomStream(5), factor=False
    )
    names: list = []
    return estimate_covariance(_recording(problem, names), run).root, names


@pytest.mark.parametrize("case_id", list(_CASES))
def test_outputs_bit_identical_for_one_and_two_workers(case_id, y_dependent_case, monkeypatch):
    make, outputs = _CASES[case_id]
    # Every block goes to the pool, so the small test problems exercise it.
    monkeypatch.setattr(problems, "_PARALLEL_MIN_ENTRIES", 1)
    fredholm = outputs is _fredholm_outputs
    if fredholm:
        # Estimator chunks of 252 (65 points), 54 (300 points) or 655
        # (5 x 5) of the ~2,900 final draws, fewer and larger at the
        # default cap.
        monkeypatch.setattr(problems, "_CHUNK_ENTRIES", 16_384)
    results, threads = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(problems, "_WORKERS", workers)
        threads[workers] = []
        results[workers] = outputs(_recording(make(y_dependent_case), threads[workers]))
    assert not any(name.startswith(_POOL) for name in threads[1])
    assert any(name.startswith(_POOL) for name in threads[2])
    assert len(results[1]) == len(results[2])
    for a, b in zip(results[1], results[2]):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    if not fredholm:
        return
    # One kernel call per estimator chunk: on the pool with two workers, on
    # the calling thread with one or on a thread whose kernel blocks run
    # serially; the root is the same bit for bit.
    problem = make(y_dependent_case)
    root, names = _estimator_threads(problem)
    assert len(names) >= 3
    assert all(name.startswith(_POOL) for name in names)
    with ThreadPoolExecutor(1, "serial", initializer=_enter_pool_thread) as caller:
        serial_root, serial_names = caller.submit(_estimator_threads, problem).result()
    monkeypatch.setattr(problems, "_WORKERS", 1)
    one_root, one_names = _estimator_threads(problem)
    assert set(one_names) == {threading.current_thread().name}
    assert len(set(serial_names)) == 1 and serial_names[0].startswith("serial")
    assert len(one_names) == len(serial_names) == len(names)
    for other in (one_root, serial_root):
        assert np.array_equal(root, other)


def test_large_grid_pass_uses_pool_at_default_threshold(monkeypatch):
    # 65 grid points x 19,677 final draws is above the default threshold.
    monkeypatch.setattr(problems, "_WORKERS", 2)
    names: list = []
    problem = _recording(manufactured_case("fred-smooth").problem, names)
    kernel = problem.kernel

    def capped(t, s, z):
        # Every call, serial or a pool task, holds at most 2 MiB of float64.
        assert math.prod(np.broadcast_shapes(np.shape(t), np.shape(s), np.shape(z))) <= 262_144
        return kernel(t, s, z)

    problem = dataclasses.replace(problem, kernel=capped)
    schedule = budget_consistent_partition(20_000, 2)
    pooled = mc_solve_fredholm(problem, schedule, RandomStream(3))[-1].grid_values
    assert any(name.startswith(_POOL) for name in names)
    monkeypatch.setattr(problems, "_WORKERS", 1)
    serial = mc_solve_fredholm(problem, schedule, RandomStream(3))[-1].grid_values
    assert np.array_equal(pooled, serial)


def _volterra_threads(problem, budget: int):
    """Tables of a three-stage run and, per call, the width of the kernel's nu, tau and thread."""
    calls: list = []
    kernel = problem.kernel

    def recorded(tau, y, nu, v, z):
        calls.append((np.shape(nu)[-1], float(tau), threading.current_thread().name))
        return kernel(tau, y, nu, v, z)

    traced = dataclasses.replace(problem, kernel=recorded, validate=False)
    run = mc_solve_volterra(traced, budget_consistent_partition(budget, 3), RandomStream(1))
    return [run[0].table, run[1].table, run[2].grid_table], calls


def test_volterra_check_times_pool_by_their_work(y_dependent_case, monkeypatch):
    monkeypatch.setattr(problems, "_WORKERS", 2)
    problem = manufactured_case("volt-smooth").problem
    # Sizes 10/104/9886.  The kernel ignores y, so a stage-2 check time
    # computes 104 values and reads 104 draws, below the threshold, and a
    # stage-3 one 9,886 of each, above it.
    pooled, calls = _volterra_threads(problem, 10_000)
    stage2 = [name for width, tau, name in calls if width == 104]
    stage3 = [name for width, tau, name in calls if width == 9886]
    assert len(stage2) == len(stage3) == 65
    assert not any(name.startswith(_POOL) for name in stage2)
    assert all(name.startswith(_POOL) for name in stage3)
    # Sizes 6/47/1947: a stage-2 check time of the y-dependent kernel is a
    # full 1,947 x 47 block, above the threshold.
    ydep, ydep_calls = _volterra_threads(y_dependent_case.problem, 2000)
    stage2 = [name for width, tau, name in ydep_calls if width == 47]
    assert len(stage2) == 9 and all(name.startswith(_POOL) for name in stage2)
    monkeypatch.setattr(problems, "_WORKERS", 1)
    for case_pooled, (serial, _) in (
        (pooled, _volterra_threads(problem, 10_000)),
        (ydep, _volterra_threads(y_dependent_case.problem, 2000)),
    ):
        for a, b in zip(case_pooled, serial):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("mean", [True, False], ids=["means", "block"])
def test_empty_target_set_returns_empty(mean, monkeypatch):
    monkeypatch.setattr(problems, "_WORKERS", 2)
    monkeypatch.setattr(problems, "_PARALLEL_MIN_ENTRIES", 1)
    problem = manufactured_case("fred-smooth").problem
    samples = np.linspace(0.0, 1.0, 50)
    out = _kernel_values(problem, np.empty(0), samples, np.ones(50), mean=mean)
    assert out.shape == ((0,) if mean else (0, 50))


@pytest.mark.parametrize("mean", [True, False], ids=["means", "block"])
def test_nan_in_last_row_task_raises(mean, monkeypatch):
    monkeypatch.setattr(problems, "_WORKERS", 2)
    rows, n = 10, 20_000  # 200,000 entries: two tasks of five rows
    values = np.ones((rows, n))
    values[-1, -1] = np.nan
    names: list = []

    def call(chunk):
        names.append(threading.current_thread().name)
        return values[chunk[:, 0]]

    with pytest.raises(NonFiniteKernelError):
        _kernel_rows(call, np.arange(rows)[:, None], n, mean)
    assert any(name.startswith(_POOL) for name in names)
    values[-1, -1] = 1.0
    assert np.array_equal(_kernel_rows(call, np.arange(rows)[:, None], n, mean),
                          np.ones(rows) if mean else values)


def test_worker_value_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(problems, "_WORKERS", 2)
    rows, n = 10, 20_000

    def call(chunk):
        if threading.current_thread().name.startswith(_POOL) and chunk[-1, 0] == rows - 1:
            raise ValueError("bad kernel argument")
        return np.ones((chunk.shape[0], n))

    with pytest.raises(ValueError, match="bad kernel argument"):
        _kernel_rows(call, np.arange(rows)[:, None], n)


def test_study_replications_run_as_kernel_pool_tasks(monkeypatch):
    monkeypatch.setattr(problems, "_WORKERS", 2)
    local = threading.local()
    run_threads: dict = {}
    calls: list = []
    final_table = inference._final_table

    def recorded_run(problem, schedule, stream, replication=0, **options):
        run_threads[replication] = threading.current_thread().name
        local.replication = replication
        try:
            return final_table(problem, schedule, stream, replication, **options)
        finally:
            local.replication = None

    monkeypatch.setattr(inference, "_final_table", recorded_run)
    problem = manufactured_case("fred-smooth").problem
    kernel = problem.kernel

    def recorded(*args):
        calls.append((getattr(local, "replication", None), threading.current_thread().name))
        return kernel(*args)

    problem = dataclasses.replace(problem, kernel=recorded, validate=False)
    # 65 grid points x ~19,700 final draws: the pool would take this block
    # from a caller that is not a pool thread.
    coverage_study(problem, 2, 20_000, 0.9, RandomStream(2), replications=4, workers=4)
    assert sorted(run_threads) == [0, 1, 2, 3]
    assert all(name.startswith(_POOL) for name in run_threads.values())
    assert {rep for rep, _ in calls} == {None, 0, 1, 2, 3}
    # Every kernel call of a replication runs on its thread; a pool task
    # of a nested block would run with no replication on another thread.
    caller = threading.current_thread().name
    for rep, name in calls:
        assert name == (caller if rep is None else run_threads[rep])


def test_study_inside_a_pool_task_matches_a_direct_call(monkeypatch):
    monkeypatch.setattr(problems, "_WORKERS", 2)
    names: list = []
    problem = _recording(manufactured_case("fred-smooth").problem, names)

    def study(_):
        result = coverage_study(
            problem, 2, 20_000, 0.9, RandomStream(2), replications=3, workers=4
        )
        return result, threading.current_thread().name

    ((pooled, task_thread),) = problems._pool_map(study, [0])
    # The replications ran in turn on the task's thread: the pool never
    # waited on itself.
    assert task_thread.startswith(_POOL)
    assert names and set(names) == {task_thread}
    direct = coverage_study(problem, 2, 20_000, 0.9, RandomStream(2), replications=3, workers=4)
    assert repr(pooled) == repr(direct)


def _pooled_block_sum() -> float:
    rows, n = 10, 20_000  # two row tasks; the row means sum to 10
    out = _kernel_rows(lambda c: np.ones((c.shape[0], n)), np.arange(rows)[:, None], n)
    return float(out.sum())


def _child(queue) -> None:
    queue.put(_pooled_block_sum())


def test_forked_child_builds_its_own_pool(monkeypatch):
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    monkeypatch.setattr(problems, "_WORKERS", 2)
    assert _pooled_block_sum() == 10.0  # the parent's pool exists now
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child, args=(queue,))
    child.start()
    try:  # a child waiting on the parent's pool threads never answers
        assert queue.get(timeout=30) == 10.0
    finally:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_concurrent_callers_share_the_pool(monkeypatch):
    # More pool threads than cores, built fresh, and frequent thread switches.
    monkeypatch.setattr(problems, "_WORKERS", 4)
    monkeypatch.setattr(problems, "_pool", None)
    rows, n = 40, 5_000  # 200,000 entries: four row tasks per block
    labels = np.arange(rows, dtype=float)[:, None]
    failures: list = []

    def caller(k: int) -> None:
        def call(chunk):
            return np.broadcast_to(chunk * (k + 1) + np.arange(n) * 1e-3, (chunk.shape[0], n))

        want = np.mean(call(labels), axis=1)
        for _ in range(5):
            if not np.array_equal(_kernel_rows(call, labels, n), want):
                failures.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if problems._pool is not None:
            problems._pool.shutdown(wait=False)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


_FAULTS = """
import resource
import mcie

case = mcie.manufactured_case("fred-smooth")
schedule = mcie.budget_consistent_partition(100_000, 3)
for seed in (0, 1):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    mcie.mc_solve_fredholm(case.problem, schedule, mcie.RandomStream(seed))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_fresh_process_reuses_kernel_chunk_memory():
    # A replication whose largest blocks are 2 MiB kernel chunks: unless
    # malloc keeps freed chunks, the second run faults in about 200,000
    # fresh pages again.
    src = os.path.dirname(os.path.dirname(problems.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) < 20_000

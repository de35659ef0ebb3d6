"""OpenBLAS on one thread inside mcie: the scope, and outputs that do not
depend on the BLAS thread count."""

import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from mcie import (
    CovarianceEstimate,
    PartitionSchedule,
    RandomStream,
    budget_consistent_partition,
    confidence_band,
    estimate_covariance,
    estimate_covariance_volterra,
    gaussian_sup_quantile,
    limit_covariance,
    manufactured_case,
    mc_solve_fredholm,
    mc_solve_volterra,
    picard_solve,
    picard_step,
    tail_log_asymptote,
)
from mcie import problems

_CALLER = 2  # the caller's BLAS thread count in these tests


@pytest.fixture
def blas_threads():
    """The bundled OpenBLAS's thread count getter, with the count set to 2 for the test."""
    blas = problems._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, put = blas
    before = get()
    put(_CALLER)
    try:
        if get() != _CALLER:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield get
    finally:
        put(before)


def _recording(problem, seen: list, get):
    """The problem with a kernel that records the BLAS thread count at each call."""
    kernel = problem.kernel

    def recorded(*args):
        seen.append(get())
        return kernel(*args)

    recording = dataclasses.replace(problem, kernel=recorded, validate=False)
    seen.clear()  # a Volterra problem calls its kernel once when built, outside any scope
    return recording


def _call_picard_step(seen, get, monkeypatch):
    problem = _recording(manufactured_case("fred-smooth", grid_n=9).problem, seen, get)
    picard_step(problem, picard_step(problem))


def _call_reference_residual(seen, get, monkeypatch):
    case = manufactured_case("fred-smooth", grid_n=9)
    dataclasses.replace(case, problem=_recording(case.problem, seen, get)).reference_residual()


def _call_limit_covariance(seen, get, monkeypatch):
    problem = manufactured_case("fred-smooth", grid_n=9).problem
    det = picard_solve(problem, 2)
    limit_covariance(_recording(problem, seen, get), det[-2])


def _call_estimate_covariance(seen, get, monkeypatch):
    problem = manufactured_case("fred-smooth", grid_n=9).problem
    schedule = budget_consistent_partition(500, 2)
    run = mc_solve_fredholm(problem, schedule, RandomStream(3), factor=False)
    estimate_covariance(_recording(problem, seen, get), run)


def _call_grid_pass(seen, get, monkeypatch):
    # One stage: every kernel call is the grid pass that builds the factor.
    problem = manufactured_case("fred-smooth", grid_n=9).problem
    schedule = PartitionSchedule((500,), 500)
    mc_solve_fredholm(_recording(problem, seen, get), schedule, RandomStream(3))


def _call_estimate_covariance_volterra(seen, get, monkeypatch):
    problem = manufactured_case("volt-smooth", grid_n=5, tau_n=9).problem
    run = mc_solve_volterra(problem, budget_consistent_partition(500, 2), RandomStream(3))
    estimate_covariance_volterra(_recording(problem, seen, get), run)


def _recording_eigh(seen, get, monkeypatch):
    eigh = np.linalg.eigh

    def recorded(*args, **kwargs):
        seen.append(get())
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)


def _call_gaussian_sup_quantile(seen, get, monkeypatch):
    _recording_eigh(seen, get, monkeypatch)
    gaussian_sup_quantile(np.diag([1.0, 2.0, 3.0]), 0.9, RandomStream(0), n_sim=200)


def _call_confidence_band(seen, get, monkeypatch):
    _recording_eigh(seen, get, monkeypatch)
    confidence_band(np.zeros(3), np.diag([1.0, 2.0, 3.0]), 100, 0.9, RandomStream(0))


def _call_tail_log_asymptote(seen, get, monkeypatch):
    _recording_eigh(seen, get, monkeypatch)
    tail_log_asymptote(2.0, np.diag([1.0, 2.0, 3.0]))


def _call_matrix(seen, get, monkeypatch):
    class RecordingRoot(np.ndarray):  # its matrix products record the count
        def __matmul__(self, other):
            seen.append(get())
            return np.asarray(self) @ np.asarray(other)

    root = np.arange(6.0).reshape(3, 2).view(RecordingRoot)
    CovarianceEstimate(root, "given", 0, 0.0, 0.0).matrix


# Each call records the BLAS thread count from inside the scoped function:
# through a recording kernel, a patched np.linalg.eigh or a root's products.
_CALLS = {
    "picard_step": _call_picard_step,
    "reference_residual": _call_reference_residual,
    "limit_covariance": _call_limit_covariance,
    "estimate_covariance": _call_estimate_covariance,
    "mc_solve_fredholm grid pass": _call_grid_pass,
    "estimate_covariance_volterra": _call_estimate_covariance_volterra,
    "gaussian_sup_quantile": _call_gaussian_sup_quantile,
    "confidence_band": _call_confidence_band,
    "tail_log_asymptote": _call_tail_log_asymptote,
    "CovarianceEstimate.matrix": _call_matrix,
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_blas_runs_on_one_thread_inside_and_the_count_is_back_after(
    name, blas_threads, monkeypatch
):
    seen: list = []
    _CALLS[name](seen, blas_threads, monkeypatch)
    assert seen and set(seen) == {1}
    assert blas_threads() == _CALLER


def test_scoped_functions_keep_their_names():
    # bench/spans.py finds the functions it traces by name.
    for fn in (picard_step, limit_covariance, estimate_covariance, gaussian_sup_quantile):
        assert fn.__wrapped__.__name__ == fn.__name__
    assert CovarianceEstimate.matrix.attrname == "matrix"


def test_nested_scopes_restore_the_count(blas_threads):
    inner = problems._one_blas_thread(blas_threads)
    outer = problems._one_blas_thread(lambda: (inner(), blas_threads()))
    assert outer() == (1, 1)
    assert blas_threads() == _CALLER


def test_an_exception_inside_the_scope_restores_the_count(blas_threads):
    seen: list = []

    def failing(*args):
        seen.append(blas_threads())
        raise ValueError("kernel failed")

    problem = dataclasses.replace(
        manufactured_case("fred-smooth", grid_n=9).problem, kernel=failing, validate=False
    )
    with pytest.raises(ValueError, match="kernel failed"):
        picard_step(problem, picard_step(problem))
    assert seen == [1]
    assert blas_threads() == _CALLER


def test_scopes_on_two_threads_restore_the_count(blas_threads):
    # a opens, then b; a closes while b is still inside; then b closes.
    both_open = threading.Barrier(2, timeout=30)
    a_closed = threading.Event()
    seen: dict = {}

    def body(name: str) -> None:
        both_open.wait()
        seen[name] = blas_threads()
        if name == "b":
            assert a_closed.wait(timeout=30)
            seen["b after a closed"] = blas_threads()

    def run(name: str) -> None:
        problems._one_blas_thread(body)(name)
        if name == "a":
            seen["after a"] = blas_threads()
            a_closed.set()

    threads = [threading.Thread(target=run, args=(name,)) for name in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"a": 1, "b": 1, "after a": 1, "b after a closed": 1}
    assert blas_threads() == _CALLER


def test_concurrent_scopes_under_fast_switching(blas_threads):
    # A lost update of the scope count would let one thread restore the
    # caller's count while another is still inside.
    outside: list = []
    scoped = problems._one_blas_thread(
        lambda: problems._one_blas_thread(blas_threads)() == blas_threads() == 1
    )

    def caller() -> None:
        for _ in range(300):
            if not scoped():
                outside.append(threading.current_thread().name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outside == []
    assert blas_threads() == _CALLER


@pytest.mark.parametrize("command", ["band", "solve"])
def test_cli_output_does_not_depend_on_the_blas_thread_count(command):
    src = os.path.dirname(os.path.dirname(problems.__file__))
    argv = [sys.executable, "-m", "mcie.cli", command, "--case", "volt-smooth",
            "--N", "2000", "--m", "2", "--seed", "1"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

"""Problem domains: grids, measures, probing, and registered benchmark cases.

Kernels and forcing terms are plain callables over numpy arrays.  They
must accept broadcastable argument arrays and may return a result of the
broadcast shape or anything that broadcasts to it (a kernel that ignores
an argument can simply drop it); solvers normalise the shape.  The one
exception is a Fredholm forcing term, which must return one value per
point: :class:`FredholmProblem` refuses any other shape on its grid.
Every registered case follows that contract.

Solvers call a kernel on blocks of targets x samples, split by target
rows.  A call holds at most 262,144 entries (2 MiB of float64) unless a
single row is longer, where a ``dim > 1`` entry counts ``dim`` times:
the size of the coordinate product ``t * s``, a kernel's largest
temporary.  That holds whether the call runs on the calling thread or on
the kernel pool, whose ``workers`` threads are the usable CPUs: a
kernel's numpy temporaries then stay near the size of an L2 cache.
Quadrature sums over the grid (:func:`~mcie.deterministic.picard_step`,
the reference residual) and the Fredholm limit covariance's factor are
taken chunk by chunk, so no grid x grid block is formed for them.
The one exception is a Volterra kernel that ignores the target, which
:class:`VolterraProblem` finds once at construction: it is called once
per check time with all the targets, and must return one row for all of
them at every check time after 0.  Target points come as a column, shape
``(rows, 1)``, and sample points as a row, ``(1, n)``; for ``dim > 1``
the coordinates add a trailing axis, ``(rows, 1, dim)`` and
``(1, n, dim)``.  The iterate values ``z`` at the samples come as a row,
``(1, n)``; Volterra kernels also get the check time as a scalar and the
sample times ``nu`` as a ``(1, n)`` row.

For ``dim > 1`` the target and sample points are coordinate-major in
memory (:func:`_pair`): each coordinate ``t[..., k]`` is one contiguous
plane.  numpy lays out ``t * s`` in its inputs' order, so
``np.sum(t * s, axis=-1)`` adds ``dim`` contiguous planes instead of
running one short reduction per entry.  Elementwise arithmetic and
``np.sum`` give the same bits in either order up to ``dim = 7``; a
kernel that contracts the coordinates another way (``np.einsum``, say)
may round differently from ``dim = 3`` on.  Forcing terms and
:func:`probe_lipschitz` get the caller's points as they are.

A kernel (and a Volterra forcing term) may be called concurrently from
up to ``workers`` threads, so it must not keep unsynchronised state.
Fredholm blocks of at least ``_PARALLEL_MIN_ENTRIES`` entries are split
into row tasks; Volterra check times run one task each when the work of
one reaches that size (see :func:`_volterra_kernel_rows`).  Each row is
still reduced over the same contiguous samples in the same order, so
results do not depend on the worker count.  A study with ``workers > 1``
runs its replications as tasks on the same pool.  Calls made on a pool
thread, a replication's included, run serially, so the pool never waits
on itself.

numpy's bundled OpenBLAS keeps a thread pool of its own.  Every mcie
function that calls BLAS or LAPACK sets it to one thread while it runs
(:func:`_one_blas_thread`), so BLAS work never competes with the kernel
pool and results do not depend on the BLAS thread count either.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidSpecError, NonFiniteKernelError, UnknownCaseError, check_int
from .sampling import ROLE_PROBE, ROLE_XI, PartitionSchedule, RandomStream, validate_partition

__all__ = [
    "MetricSpaceGrid",
    "build_grid",
    "gauss_legendre_grid",
    "MeasureSpec",
    "sample_measure",
    "FredholmProblem",
    "VolterraProblem",
    "probe_lipschitz",
    "ManufacturedCase",
    "manufactured_case",
    "list_cases",
]

_WEIGHT_TOL = 1e-12

# Kernel blocks are evaluated in row chunks of at most this many entries
# (2 MiB of float64; a dim > 1 entry counts dim times), on the calling
# thread and on the kernel pool alike, so a kernel's temporaries stay near
# the size of an L2 cache (measured against larger pool tasks;
# BENCH_21.json, moved_timings).
_CHUNK_ENTRIES = 262_144

# The final Fredholm grid pass builds its basis of draw-space directions
# (directions x final-stage draws) only where _BASIS_DIRS directions fit
# in _BASIS_ENTRIES values (8 MiB), for at most 16,384 draws, and gives it
# up once it needs more than _BASIS_DIRS (fred-2d needs 34-36).  A larger
# stage builds none, since a basis given up late costs centring and
# projecting every row up to there, and takes plain row means.  Either way
# the stage record carries no covariance factor and the estimator
# evaluates the kernel again in draw chunks.
_BASIS_ENTRIES = 4 * _CHUNK_ENTRIES
_BASIS_DIRS = 64

# glibc's malloc hands the free top of a heap back to the system whenever
# it grows past twice the largest block freed so far.  In a process whose
# largest blocks are kernel chunks, every chunk then faults in fresh pages
# (BENCH_21.json).  Dropping one untouched block of 8 chunks raises that
# limit for the process.
np.empty(8 * _CHUNK_ENTRIES)

# Blocks smaller than this are evaluated on the calling thread: below it the
# hand-off to the pool costs more than the other cores gain.
_PARALLEL_MIN_ENTRIES = 65_536

# Entries of a kernel block that reading a Volterra iterate at one draw
# weighs, when a check time's work is held against _PARALLEL_MIN_ENTRIES:
# the measured ratio of the time interp_per_column takes per draw, on the
# ascending abscissae of a sorted stage, to the time of one entry of a
# 2 MiB fred-smooth block (BENCH_27.json).
_INTERP_WEIGHT = 8

# Gauss-Legendre nodes of the rescaled time integral in the deterministic
# Volterra step and limiting covariance (fourfold in the reference residual).
_NU_NODES = 32

# Threads of the kernel pool: the CPUs this process may run on.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1

_local = threading.local()
_pool: "ThreadPoolExecutor | None" = None
_pool_lock = threading.Lock()


# After a call that OpenBLAS splits across its threads, one of its workers
# keeps spinning, taking a core from the kernel pool's next pass
# (BENCH_21.json).  The split also moves results at roundoff.  _blas_depth
# counts the scopes of one BLAS thread open in this process, on any of its
# threads; _blas_saved is the count the first of them found.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


def _forget_pool() -> None:
    """A forked child has none of the pool's threads: build a new pool there.

    Its locks start free, whichever thread held them at the fork.
    """
    global _pool, _pool_lock, _blas_lock
    _pool, _pool_lock, _blas_lock = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _openblas() -> "tuple[Callable, Callable] | None":
    """``(get, set)``, the thread-count functions of numpy's bundled OpenBLAS, or None.

    Looked up on first use, so importing mcie loads nothing more.
    """
    import ctypes
    from pathlib import Path

    package = Path(np.__file__).resolve().parent
    for libs in (package.parent / "numpy.libs", package / ".dylibs"):
        for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for name in (
                "scipy_openblas_{}_num_threads64_",
                "openblas_{}_num_threads64_",
                "openblas_{}_num_threads",
            ):
                get = getattr(handle, name.format("get"), None)
                put = getattr(handle, name.format("set"), None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def _blas_scope(step: int) -> None:
    """Open (``step=1``) or close (``step=-1``) a scope of one OpenBLAS thread.

    The first scope to open saves the thread count and sets 1; the last
    to close restores it.  Without a bundled OpenBLAS it does nothing.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        blas = _openblas()
        if blas is None:
            return
        get, put = blas
        if step > 0 and _blas_depth == 0:
            _blas_saved = get()
            put(1)
        _blas_depth += step
        if _blas_depth == 0:
            put(_blas_saved)


def _one_blas_thread(fn: Callable) -> Callable:
    """``fn``, run with numpy's OpenBLAS on one thread.

    Scopes nest and may be open on several threads at once; every other
    thread of the process sees one BLAS thread while any is open.  The
    wrapper keeps ``fn``'s name and signature.
    """

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        _blas_scope(1)
        try:
            return fn(*args, **kwargs)
        finally:
            _blas_scope(-1)

    return scoped


def _enter_pool_thread() -> None:
    """Pool initializer: kernel blocks on this thread are evaluated serially."""
    _local.on_pool = True


def _use_pool(entries: int) -> bool:
    """Whether a block of ``entries`` kernel values goes to the kernel pool."""
    on_pool = getattr(_local, "on_pool", False)
    return _WORKERS > 1 and entries >= _PARALLEL_MIN_ENTRIES and not on_pool


def _pool_map(fn: Callable, items, ahead: "int | None" = None):
    """Yield ``fn(item)`` in order, run on the kernel pool ``ahead`` tasks ahead.

    ``ahead`` defaults to ``_WORKERS``: kernel blocks, covariance chunks
    and check times keep every pool thread busy.  The grid pass that
    builds a covariance factor passes one more, since its caller works on
    each result in turn.  A study passes one less than its ``workers``,
    so at most that many of its runs are in flight.
    The caller must not be a pool thread, or the pool could wait on itself.
    """
    global _pool
    ahead = _WORKERS if ahead is None else ahead
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                _WORKERS, thread_name_prefix="mcie-kernel", initializer=_enter_pool_thread
            )
    pending: deque = deque()
    try:
        for item in items:
            pending.append(_pool.submit(fn, item))
            if len(pending) > ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


@dataclass(frozen=True)
class MetricSpaceGrid:
    """Finite discretisation of the domain with quadrature weights.

    ``points`` has shape ``(n,)`` for a one-dimensional domain and
    ``(n, dim)`` otherwise.  ``weights`` are non-negative and sum to one;
    they double as the quadrature rule for integrals over the domain.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim not in (1, 2):
            raise InvalidSpecError("points must be a 1-d or 2-d array")
        if pts.shape[0] < 2:
            raise InvalidSpecError("a grid needs at least two points")
        if w.shape != (pts.shape[0],):
            raise InvalidSpecError("weights must be one value per point")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise InvalidSpecError("grid points and weights must be finite")
        if np.any(w < 0):
            raise InvalidSpecError(
                f"negative weight at index {int(np.argmin(w))}"
            )
        total = float(np.sum(w))
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidSpecError(
                f"weights sum to {total!r}, expected 1 within {_WEIGHT_TOL}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else self.points.shape[1]

    @property
    def coords(self) -> np.ndarray:
        """Points as a 2-d array of shape (n, dim)."""
        return self.points[:, None] if self.points.ndim == 1 else self.points


def build_grid(resolution: int, dim: int = 1) -> MetricSpaceGrid:
    """Equispaced tensor grid on the unit cube with equal weights.

    Endpoints are included, so each axis carries ``resolution`` points and
    every point gets weight ``resolution**-dim``.
    """
    check_int(resolution, 2, "resolution must be an integer of at least 2")
    check_int(dim, 1, "dim must be a positive integer")
    axis = np.linspace(0.0, 1.0, resolution)
    if dim == 1:
        pts = axis
    else:
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
    n = pts.shape[0]
    return MetricSpaceGrid(pts, np.full(n, 1.0 / n))


def gauss_legendre_grid(n: int) -> MetricSpaceGrid:
    """Gauss-Legendre nodes and weights mapped to [0, 1].

    The weights integrate polynomials of degree up to ``2n - 1`` exactly,
    which the smooth benchmark cases rely on for their reference residual.
    """
    check_int(n, 2, "a Gauss-Legendre grid needs at least 2 nodes")
    return MetricSpaceGrid(*(a.copy() for a in _gauss_legendre01(n)))


@functools.lru_cache(maxsize=8)
def _gauss_legendre01(n: int) -> "tuple[np.ndarray, np.ndarray]":
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1].

    Computed once per node count; the arrays are read-only because every
    caller with the same count shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True)
class MeasureSpec:
    """Sampling description for the integration measure.

    Three kinds are supported: ``uniform-cube`` (Lebesgue on [0, 1]**dim),
    ``discrete`` (weighted atoms), and ``inverse-cdf`` (one-dimensional,
    via a user-supplied quantile function).
    """

    kind: str
    dim: int = 1
    points: "np.ndarray | None" = None
    weights: "np.ndarray | None" = None
    inverse_cdf: "Callable[[np.ndarray], np.ndarray] | None" = None

    def __post_init__(self) -> None:
        if self.kind == "uniform-cube":
            check_int(self.dim, 1, "uniform-cube needs a positive dim")
        elif self.kind == "discrete":
            pts = np.asarray(self.points, dtype=float)
            w = np.asarray(self.weights, dtype=float)
            if pts.shape[0] != w.shape[0] or pts.shape[0] < 1:
                raise InvalidSpecError("discrete measure needs matching atoms and weights")
            if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
                raise InvalidSpecError("discrete atoms and weights must be finite")
            if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > _WEIGHT_TOL:
                raise InvalidSpecError("atom weights must be non-negative and sum to 1")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "dim", 1 if pts.ndim == 1 else pts.shape[1])
        elif self.kind == "inverse-cdf":
            if self.inverse_cdf is None:
                raise InvalidSpecError("inverse-cdf measure needs a quantile function")
            u = np.linspace(0.0, 1.0, 101)
            v = np.asarray(self.inverse_cdf(u), dtype=float)
            if v.shape != u.shape or not np.all(np.isfinite(v)):
                raise InvalidSpecError("quantile function must map [0, 1] to finite values")
            if np.any(np.diff(v) < -1e-12):
                raise InvalidSpecError("quantile function must be non-decreasing")
        else:
            raise InvalidSpecError(f"unknown measure kind {self.kind!r}")

    @classmethod
    def uniform_cube(cls, dim: int = 1) -> "MeasureSpec":
        return cls("uniform-cube", dim=dim)

    @classmethod
    def discrete(cls, points, weights) -> "MeasureSpec":
        return cls("discrete", points=points, weights=weights)

    @classmethod
    def from_inverse_cdf(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "MeasureSpec":
        return cls("inverse-cdf", inverse_cdf=fn)


def sample_measure(
    measure: MeasureSpec, count: int, rng: "np.random.Generator | RandomStream"
) -> np.ndarray:
    """Draw ``count`` independent points from the measure.

    Returns shape ``(count,)`` in one dimension and ``(count, dim)``
    otherwise.  Identical generator state gives identical draws.
    """
    check_int(count, 1, "draw count must be a positive integer")
    if isinstance(rng, RandomStream):
        rng = rng.generator(ROLE_XI, 0, 0)
    if measure.kind == "uniform-cube":
        u = rng.random((count, measure.dim))
        return u[:, 0] if measure.dim == 1 else u
    if measure.kind == "discrete":
        idx = rng.choice(measure.points.shape[0], size=count, p=measure.weights)
        return measure.points[idx]
    out = np.asarray(measure.inverse_cdf(rng.random(count)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise NonFiniteKernelError("quantile function produced non-finite samples")
    return out


def _stage_draws(
    measure: MeasureSpec, schedule: PartitionSchedule, stream: RandomStream, replication: int
) -> "list[np.ndarray]":
    """Spatial draws of each stage of a staged run, from lanes ``(ROLE_XI, replication, k)``.

    Checks the replication index and the schedule first.
    """
    check_int(replication, 0, "replication index must be a non-negative integer")
    report = validate_partition(schedule)
    if not report.ok:
        raise InvalidSpecError("; ".join(report.violations))
    return [
        sample_measure(measure, q, stream.generator(ROLE_XI, replication, k))
        for k, q in enumerate(schedule.sizes, start=1)
    ]


def _as_full(values, shape) -> np.ndarray:
    """Coerce a callable's return value to the expected broadcast shape."""
    arr = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(arr, shape)
    except ValueError as exc:
        raise InvalidSpecError(
            f"callable returned shape {arr.shape}, not broadcastable to {shape}"
        ) from exc


def _one_row(values: np.ndarray) -> bool:
    """Whether a kernel's values over a targets x samples call hold one row for every target."""
    return values.shape[:-1] in ((), (1,))


def _row_step(rows: np.ndarray, n_samples: int) -> int:
    """Target rows per kernel call: at most ``_CHUNK_ENTRIES`` entries, and at least one row.

    A ``dim > 1`` entry counts ``dim`` times, as its coordinate product
    ``t * s`` does.
    """
    planes = rows.shape[-1] if rows.ndim == 3 else 1
    return max(1, _CHUNK_ENTRIES // max(n_samples * planes, 1))


def _row_chunks(
    task: Callable, rows: np.ndarray, n_samples: int, by_workers: bool = False,
    ahead: "int | None" = None,
):
    """Yield ``task(chunk)`` for each row chunk of a targets x samples block, in row order.

    Each ``chunk`` is a slice of ``rows`` (laid out as in
    :func:`_kernel_rows`) whose kernel values hold at most
    ``_CHUNK_ENTRIES`` entries (:func:`_row_step`); rows that fit go as
    one chunk, an empty target set included, on the calling thread.
    Otherwise a block large enough for the kernel pool runs its chunks as
    pool tasks, ``ahead`` of the caller as in :func:`_pool_map`, and
    with ``by_workers`` in at least ``_WORKERS`` chunks when the rows
    allow; without it the chunks, and so each task's input, do not depend
    on the pool.  Smaller blocks run their chunks in turn on the calling
    thread.
    """
    n_rows = rows.shape[0]
    step = _row_step(rows, n_samples)
    pooled = _use_pool(n_rows * n_samples)
    if pooled and by_workers:
        step = min(step, -(-n_rows // _WORKERS))
    if step >= n_rows:
        return iter((task(rows),))

    def run(i0: int):
        return task(rows[i0 : i0 + step])

    starts = range(0, n_rows, step)
    return _pool_map(run, starts, ahead) if pooled else map(run, starts)


def _kernel_rows(
    call: Callable,
    rows: np.ndarray,
    n_samples: int,
    mean: bool = True,
    whole: bool = False,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """A kernel over a targets x samples block, evaluated in row chunks.

    ``call(chunk)`` evaluates the kernel at a slice of ``rows`` (the
    target points, laid out as a column against a row of samples, with a
    trailing coordinate axis for ``dim > 1``) and returns something that
    broadcasts to ``(len(chunk), n_samples)``.  The chunks are those of
    :func:`_row_chunks`, so the kernel's temporaries stay cache-sized;
    ``whole=True`` makes one call with every row instead, for a kernel
    known to ignore the target.  A block large enough for the kernel pool
    runs its chunks as row tasks, at least ``_WORKERS`` of them when the
    rows allow, and the calling thread writes their results into one
    output in row order.
    Returns the row means (``mean=True``, each taken along the contiguous
    sample axis; a call that returns one row for all its targets, as a
    kernel that ignores the target does, has that row averaged once), the
    whole block, or with ``weights`` (one per sample; ``mean`` is then not
    read) the weighted row sums ``block @ weights``.  Those are taken in
    each chunk's task, so the block is never formed, and in the cap's
    chunks whatever the worker count: BLAS's per-row sums can depend on
    how many rows one call holds.  Raises
    :class:`NonFiniteKernelError` if the result is not finite.
    """
    n_rows = rows.shape[0]

    def evaluate(chunk: np.ndarray) -> np.ndarray:
        values = np.asarray(call(chunk), dtype=float)
        if weights is not None:
            return _as_full(values, (chunk.shape[0], n_samples)) @ weights
        if mean and _one_row(values):
            row = np.mean(_as_full(values, (1, n_samples)), axis=1)
            return np.repeat(row, chunk.shape[0])
        block = _as_full(values, (chunk.shape[0], n_samples))
        return np.mean(block, axis=1) if mean else block

    parts = iter((evaluate(rows),)) if whole else _row_chunks(
        evaluate, rows, n_samples, by_workers=weights is None
    )
    out = next(parts)
    if out.shape[0] < n_rows:  # several chunks: one output, filled in row order
        first, out = out, np.empty((n_rows,) + out.shape[1:])
        out[: first.shape[0]] = first
        i0 = first.shape[0]
        for part in parts:
            out[i0 : i0 + part.shape[0]] = part
            i0 += part.shape[0]
    if not np.all(np.isfinite(out)):
        raise NonFiniteKernelError("kernel produced non-finite values")
    return out


def _pair(points_a: np.ndarray, points_b: np.ndarray):
    """Column/row views of two point sets for broadcast kernel calls.

    For ``dim > 1`` both are coordinate-major: each coordinate of the
    ``(rows, 1, dim)`` and ``(1, n, dim)`` views is one contiguous plane.
    """
    a = np.asarray(points_a)
    b = np.asarray(points_b)
    if a.ndim <= 1 and b.ndim <= 1:
        return a[:, None], b[None, :]
    a2 = np.asfortranarray(a if a.ndim == 2 else a[:, None])
    b2 = np.asfortranarray(b if b.ndim == 2 else b[:, None])
    return a2[:, None, :], b2[None, :, :]


def _kernel_values(
    problem: "FredholmProblem",
    targets: np.ndarray,
    samples: np.ndarray,
    z: np.ndarray,
    mean: bool = True,
    weights: "np.ndarray | None" = None,
) -> np.ndarray:
    """K(t_j, s_i, z_i) over targets x samples: row means, the whole block or weighted row sums."""
    a, b = _pair(np.asarray(targets, dtype=float), samples)
    z_row = z[None, :]
    return _kernel_rows(
        lambda rows: problem.kernel(rows, b, z_row), a, b.shape[1], mean, weights=weights
    )


def _volterra_kernel_rows(
    problem: "VolterraProblem", eta: np.ndarray, xi: np.ndarray, z_at: Callable,
    targets: np.ndarray, mean: bool,
):
    """``(tau_a, values)`` for each check time in order, as in :func:`_kernel_rows`.

    ``values`` holds K(tau_a, y, tau_a * eta_i, xi_i, z_i) over targets y
    x draws i, with ``z = z_at(tau_a * eta, a)`` the iterate at the draws
    at check time ``a``.  A kernel that ignores y (the problem's
    ``_ignores_target``) makes one call with all the targets per check
    time, and ``values`` is its one row (one row mean with ``mean``),
    which stands for every target; callers broadcast it.  At tau = 0 the
    values are scaled by 0, so there the first row stands for all; at a
    later check time a row per target raises :class:`InvalidSpecError`.
    Other kernels are called in row chunks.  Check times run as one pool
    task each when the work of one reaches ``_PARALLEL_MIN_ENTRIES``: the
    values its kernel calls compute (one row, or targets x draws) plus
    ``_INTERP_WEIGHT`` per draw for reading the iterate there.
    """
    y_col, xi_row = _pair(targets, xi)
    whole = problem._ignores_target

    def at(a: int):
        tau_a = problem.tau_grid[a]
        u = tau_a * eta
        u_row, z_row = u[None, :], z_at(u, a)[None, :]

        def call(y: np.ndarray) -> np.ndarray:
            values = np.asarray(problem.kernel(tau_a, y, u_row, xi_row, z_row))
            if whole and a > 0 and not _one_row(values):
                raise InvalidSpecError(
                    f"kernel returned a row per target at check time {tau_a:g}, after "
                    "one row for all targets when the problem was built"
                )
            return values

        out = _kernel_rows(call, y_col, eta.shape[0], mean, whole)
        return tau_a, out[:1] if whole else out

    values = eta.shape[0] if whole else y_col.shape[0] * eta.shape[0]
    checks = range(problem.tau_grid.shape[0])
    if _use_pool(values + _INTERP_WEIGHT * eta.shape[0]):
        return _pool_map(at, checks)
    return map(at, checks)


def _volterra_quadrature(problem: "VolterraProblem", nu01: np.ndarray, z_at: Callable):
    """Yield ``(tau_a, block)``: the kernel of the time-rescaled quadrature.

    The draws are the pairs (nu01[g], y_l) of quadrature node and grid
    point, flattened node-major.  ``z_at`` is called once, on the times
    tau_a * nu01 of every check time (tau-major), and gives the iterate
    there at every grid point, shape ``(len(tau) * len(nu01), n)``; each
    check time reads its own rows.  ``block[j, g, l]`` is the kernel at
    grid point j and pair (g, l); a block with one j, from a kernel that
    ignores the target, holds it for every grid point.
    """
    pts = problem.grid.points
    n, k = pts.shape[0], nu01.shape[0]
    n_tau = problem.tau_grid.shape[0]
    xi = np.tile(pts, (k,) + (1,) * (pts.ndim - 1))
    z = z_at((problem.tau_grid[:, None] * nu01).ravel())
    z = _as_full(z, (n_tau * k, n)).reshape(n_tau, k * n)
    blocks = _volterra_kernel_rows(
        problem, np.repeat(nu01, n), xi, lambda u, a: z[a], pts, mean=False
    )
    return ((tau_a, block.reshape(-1, k, n)) for tau_a, block in blocks)


def _volterra_integrals(problem: "VolterraProblem", n_nodes: int, z_at: Callable) -> np.ndarray:
    """tau_a times the integral of the kernel over [0, tau_a] x domain, at every check time.

    The time integral is rescaled to the unit interval and taken with
    ``n_nodes`` Gauss-Legendre nodes, the domain integral with the grid
    weights; ``z_at`` gives the iterate as in :func:`_volterra_quadrature`.
    The result has shape ``(n_tau, n)``, or ``(n_tau, 1)`` when the kernel
    ignores the target, a column that stands for every grid point.
    """
    nu01, wnu = _gauss_legendre01(n_nodes)
    rows = 1 if problem._ignores_target else problem.grid.size
    out = np.empty((problem.tau_grid.shape[0], rows))
    for a, (tau_a, block) in enumerate(_volterra_quadrature(problem, nu01, z_at)):
        out[a] = tau_a * np.einsum("g,jgl,l->j", wnu, block, problem.grid.weights)
    return out


@dataclass(frozen=True)
class FredholmProblem:
    """Second-kind equation x(t) = f(t) + integral of K(t, s, x(s)) d mu(s).

    ``kernel`` must contract in its third argument with modulus ``rho``
    strictly below one.  Construction probes that numerically over the
    grid and a z-range wide enough to hold every iterate; pass
    ``validate=False`` to skip the probe (the range check on ``rho`` and
    the check that ``f`` gives one finite value per grid point always
    run).
    """

    f: Callable
    kernel: Callable
    rho: float
    measure: MeasureSpec
    grid: MetricSpaceGrid
    name: str = ""
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if not (0.0 < self.rho < 1.0) or not math.isfinite(self.rho):
            raise InvalidSpecError("rho must lie strictly between 0 and 1")
        fv = np.asarray(self.f(self.grid.points), dtype=float)
        if fv.shape != (self.grid.size,):
            raise InvalidSpecError(
                f"forcing term returned shape {fv.shape} on the grid, not ({self.grid.size},)"
            )
        if not np.all(np.isfinite(fv)):
            raise NonFiniteKernelError("forcing term is non-finite on the grid")
        if validate:
            est = probe_lipschitz(self, n_probes=512)
            if est > self.rho + 1e-6:
                raise InvalidSpecError(
                    f"probed contraction estimate {est:.6g} exceeds rho={self.rho:g}"
                )

    def solution_bound(self) -> float:
        """A priori sup bound on the fixed point and all iterates."""
        sup_f = float(np.max(np.abs(np.asarray(self.f(self.grid.points), float))))
        return sup_f / (1.0 - self.rho)


@dataclass(frozen=True)
class VolterraProblem:
    """Time-dependent second-kind equation on [0, 1] x domain.

    X(tau, y) = f(tau, y) + integral over nu in [0, tau] and v in the
    domain of K(tau, y, nu, v, X(nu, v)).  ``lip`` bounds the kernel's
    Lipschitz modulus in its last argument (no smallness required).
    ``tau_grid`` lists the check times, sorted, starting at 0 and ending
    at 1.

    Construction calls the kernel once, at ``tau_grid[1]`` with every grid
    point against one draw, to find whether it ignores the target y
    (``_ignores_target``; see :func:`_volterra_kernel_rows`).
    """

    f: Callable
    kernel: Callable
    lip: float
    measure: MeasureSpec
    grid: MetricSpaceGrid
    tau_grid: np.ndarray
    name: str = ""
    validate: InitVar[bool] = True
    _ignores_target: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self, validate: bool) -> None:
        if not (self.lip > 0.0) or not math.isfinite(self.lip):
            raise InvalidSpecError("lip must be a positive finite number")
        tau = np.asarray(self.tau_grid, dtype=float)
        if tau.ndim != 1 or tau.shape[0] < 2:
            raise InvalidSpecError("tau_grid needs at least the two endpoints")
        if tau[0] != 0.0 or tau[-1] != 1.0:
            raise InvalidSpecError("tau_grid must start at 0 and end at 1")
        if np.any(np.diff(tau) <= 0):
            raise InvalidSpecError("tau_grid must be strictly increasing")
        object.__setattr__(self, "tau_grid", tau)
        fv = self._f_product(tau, self.grid.points)
        if not np.all(np.isfinite(fv)):
            raise NonFiniteKernelError("forcing term is non-finite on the grid")
        sup_f = float(np.max(np.abs(fv)))
        # The a priori bound of solution_bound, which the probe and the
        # iteration bounds read, must be finite.
        if self.lip > math.log(sys.float_info.max) or not math.isfinite(
            sup_f * math.exp(self.lip)
        ):
            raise InvalidSpecError(
                f"lip={self.lip:g} is too large: the a priori bound sup|f| exp(lip) = "
                f"{sup_f:g} exp({self.lip:g}) overflows"
            )
        # z = 0 lies in the range the Lipschitz probe covers.
        y_col, v_row = _pair(self.grid.points, self.grid.points[:1])
        values = self.kernel(tau[1], y_col, np.full((1, 1), 0.5 * tau[1]), v_row, np.zeros((1, 1)))
        object.__setattr__(self, "_ignores_target", _one_row(np.asarray(values)))
        if validate:
            est = probe_lipschitz(self, n_probes=512)
            if est > self.lip + 1e-6:
                raise InvalidSpecError(
                    f"probed Lipschitz estimate {est:.6g} exceeds lip={self.lip:g}"
                )

    def _f_product(self, tau: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Forcing term tabulated on tau x points, shape (n_tau, n)."""
        t = np.asarray(tau, dtype=float)[:, None]
        y = points[None, :] if points.ndim == 1 else points[None, :, :]
        return _as_full(self.f(t, y), (t.shape[0], points.shape[0]))

    def solution_bound(self) -> float:
        """A priori sup bound on the fixed point and all iterates."""
        sup_f = float(np.max(np.abs(self._f_product(self.tau_grid, self.grid.points))))
        return sup_f * math.exp(self.lip)


def probe_lipschitz(
    problem: "FredholmProblem | VolterraProblem",
    n_probes: int = 2000,
    z_range: "tuple[float, float] | None" = None,
) -> float:
    """Monte Carlo estimate of the kernel's Lipschitz modulus in z.

    Draws random argument tuples, from a fixed probing lane so the
    estimate is reproducible, and difference quotients over ``z_range``
    (default: symmetric around zero at the problem's solution bound).
    Half the z-pairs are independent, half are close pairs, so both
    secant and near-tangent slopes are probed.  The estimate is a lower
    bound on the true modulus over the probed range; values above the
    declared modulus demonstrate a violation, for instance a kernel that
    is quadratic in z over a wide range.
    """
    check_int(n_probes, 100, "need at least 100 probes for a usable estimate")
    rng = RandomStream(0x50524F42).generator(ROLE_PROBE, 0, 0)
    if z_range is None:
        scale = problem.solution_bound()
        if scale <= 0:
            scale = 1.0
        z_range = (-scale, scale)
    lo, hi = float(z_range[0]), float(z_range[1])
    if not (hi > lo) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidSpecError("z_range must be a finite increasing pair")
    pts = problem.grid.points
    n = pts.shape[0]
    t_idx = rng.integers(0, n, size=n_probes)
    s_idx = rng.integers(0, n, size=n_probes)
    z1 = rng.uniform(lo, hi, size=n_probes)
    z2 = np.empty(n_probes)
    half = n_probes // 2
    z2[:half] = rng.uniform(lo, hi, size=half)
    z2[half:] = z1[half:] + (hi - lo) * 1e-4 * (rng.random(n_probes - half) - 0.5)
    np.clip(z2, lo, hi, out=z2)
    dz = z1 - z2
    keep = np.abs(dz) > 1e-12 * (hi - lo)
    if not np.any(keep):
        raise InvalidSpecError("all probe pairs collapsed; widen z_range")
    if isinstance(problem, FredholmProblem):
        t, s = pts[t_idx], pts[s_idx]
        k1 = _as_full(problem.kernel(t, s, z1), (n_probes,))
        k2 = _as_full(problem.kernel(t, s, z2), (n_probes,))
    else:
        tau = rng.random(n_probes)
        nu = tau * rng.random(n_probes)
        y, v = pts[t_idx], pts[s_idx]
        k1 = _as_full(problem.kernel(tau, y, nu, v, z1), (n_probes,))
        k2 = _as_full(problem.kernel(tau, y, nu, v, z2), (n_probes,))
    if not (np.all(np.isfinite(k1)) and np.all(np.isfinite(k2))):
        raise NonFiniteKernelError("kernel returned a non-finite value while probing")
    ratios = np.abs(k1[keep] - k2[keep]) / np.abs(dz[keep])
    return float(np.max(ratios))


@dataclass(frozen=True)
class ManufacturedCase:
    """A registered problem with a known reference solution.

    The reference is exact by construction (the forcing term is chosen to
    make a closed-form function solve the equation), so it serves as an
    oracle for solver error.  ``reference_residual`` re-checks that claim
    numerically with quadrature refined fourfold; a Fredholm case takes its
    refined grid from ``grid_rule`` (resolution -> grid), which a registered
    case copies from the case table.
    """

    case_id: str
    kind: str
    problem: "FredholmProblem | VolterraProblem"
    reference: Callable
    description: str
    grid_n: int
    tau_n: "int | None" = None
    grid_rule: "Callable | None" = None

    @_one_blas_thread
    def reference_residual(self) -> float:
        """Sup defect of the reference in the equation, refined quadrature.

        The quadrature sums are taken as the solver steps take them, so no
        grid x refined-grid block is formed.
        """
        prob = self.problem
        if self.kind == "fredholm":
            if self.grid_rule is None:
                raise InvalidSpecError(
                    f"case {self.case_id!r} has no grid_rule for its refined residual grid"
                )
            fine = self.grid_rule(4 * self.grid_n)
            t, s = prob.grid.points, fine.points
            z = np.asarray(self.reference(s), dtype=float)
            sums = _kernel_values(prob, t, s, z, weights=fine.weights)
            lhs, rhs = self.reference(t), np.asarray(prob.f(t), dtype=float) + sums
        else:
            tau, v = prob.tau_grid, prob.grid.points
            rhs = prob._f_product(tau, v) + _volterra_integrals(
                prob, 4 * _NU_NODES, lambda u: self.reference(u[:, None], v[None, :])
            )
            lhs = self.reference(tau[:, None], v[None, :])
        return float(np.max(np.abs(np.asarray(lhs, dtype=float) - rhs)))


# Check times of a Volterra case unless the caller asks for another count.
_TAU_N = 65


def _two_atoms(n: int) -> MetricSpaceGrid:
    """volt-exp's grid, the two atoms of its measure: it has no other resolution."""
    if n != 2:
        raise InvalidSpecError(f"case 'volt-exp' has a fixed grid of 2 points, not {n}")
    return MetricSpaceGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5]))


def _lebesgue(grid: MetricSpaceGrid) -> MeasureSpec:
    return MeasureSpec.uniform_cube(grid.dim)


def _atoms(grid: MetricSpaceGrid) -> MeasureSpec:
    return MeasureSpec.discrete(grid.points, grid.weights)


def _volt_exp_reference(tau, y):
    tau, y = np.broadcast_arrays(np.asarray(tau, float), np.asarray(y, float))
    return np.exp(tau)


_C1_VOLT = 0.5 + math.sin(2.0) / 4.0
_C2_VOLT = math.sin(1.0) ** 2 / 2.0


def _volt_smooth_f(tau, y):
    tau = np.asarray(tau, dtype=float)
    shift = 0.4 * (
        _C1_VOLT * 0.5 * np.sin(tau) ** 2
        + _C2_VOLT * (0.5 * tau + 0.25 * np.sin(2.0 * tau))
    )
    return tau + np.asarray(y, dtype=float) - shift


@dataclass(frozen=True)
class _Case:
    """A registered case, as :func:`manufactured_case` builds it.

    ``grid(n)`` is the grid at resolution ``n`` (it raises for one the case
    does not allow), ``measure(grid)`` the sampling measure on that grid,
    and ``modulus`` the Fredholm ``rho`` or the Volterra ``lip``.
    """

    kind: str
    grid_n: int
    grid: Callable
    measure: Callable
    f: Callable
    kernel: Callable
    modulus: float
    reference: Callable
    description: str


# Grid rules call the grid builders through their module-level names, so a
# rebinding of those names (tracing does that) reaches them.
_CASES: "dict[str, _Case]" = {
    "fred-lin-const": _Case(
        "fredholm", 65, lambda n: build_grid(n), _lebesgue,
        lambda t: np.ones(np.shape(t)),
        lambda t, s, z: 0.5 * np.asarray(z, dtype=float),
        0.5,
        lambda t: np.full(np.shape(t), 2.0),
        "linear kernel K = z/2 with constant forcing; solution is the constant 2",
    ),
    "fred-smooth": _Case(
        "fredholm", 65, lambda n: gauss_legendre_grid(n), _lebesgue,
        lambda t: 0.5 * np.pi - 0.4 * np.sinc(np.asarray(t, dtype=float) / np.pi),
        lambda t, s, z: 0.4 * np.cos(np.asarray(t) * np.asarray(s)) * np.sin(z),
        0.4,
        lambda t: np.full(np.shape(t), 0.5 * np.pi),
        "smooth kernel 0.4 cos(ts) sin(z); forcing chosen so the solution is pi/2",
    ),
    "volt-exp": _Case(
        "volterra", 2, _two_atoms, _atoms,
        lambda tau, y: np.ones(np.broadcast_shapes(np.shape(tau), np.shape(y))),
        lambda tau, y, nu, v, z: np.asarray(z, dtype=float),
        1.0,
        _volt_exp_reference,
        "K = z with unit forcing; the solution is exp(tau), its iterates are "
        "Taylor partial sums",
    ),
    "volt-smooth": _Case(
        "volterra", 33, lambda n: gauss_legendre_grid(n), _lebesgue,
        _volt_smooth_f,
        lambda tau, y, nu, v, z: (
            0.4 * np.cos(np.asarray(nu, float)) * np.cos(np.asarray(v, float)) * np.sin(z)
        ),
        0.4,
        lambda tau, y: np.asarray(tau, dtype=float) + np.asarray(y, dtype=float),
        "smooth kernel 0.4 cos(nu) cos(v) sin(z); forcing chosen so the "
        "solution is tau + y",
    ),
}


def manufactured_case(
    case_id: str, grid_n: "int | None" = None, tau_n: "int | None" = None
) -> ManufacturedCase:
    """Build a registered benchmark case, optionally at other resolutions."""
    try:
        case = _CASES[case_id]
    except KeyError:
        known = ", ".join(sorted(_CASES))
        raise UnknownCaseError(f"unknown case {case_id!r}; known cases: {known}") from None
    if tau_n is not None and case.kind != "volterra":
        raise InvalidSpecError(f"case {case_id!r} has no tau axis")
    grid_n = case.grid_n if grid_n is None else grid_n
    grid = case.grid(grid_n)
    spec = (case.f, case.kernel, case.modulus, case.measure(grid), grid)
    if case.kind == "fredholm":
        problem = FredholmProblem(*spec, name=case_id)
    else:
        tau_n = _TAU_N if tau_n is None else tau_n
        check_int(tau_n, 2, "tau_n must be an integer of at least 2")
        problem = VolterraProblem(*spec, np.linspace(0.0, 1.0, tau_n), name=case_id)
    return ManufacturedCase(
        case_id, case.kind, problem, case.reference, case.description, grid_n, tau_n, case.grid
    )


def list_cases() -> "tuple[tuple[str, str, str], ...]":
    """Registered case ids with kind and description."""
    return tuple((cid, _CASES[cid].kind, _CASES[cid].description) for cid in sorted(_CASES))

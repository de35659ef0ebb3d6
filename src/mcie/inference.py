"""Uniform-norm confidence bands and supporting diagnostics.

The last stage of a staged run averages q(m) conditionally independent
kernel evaluations, so the normalised deviation of the final iterate
converges to a centred Gaussian field over the grid.  This module
estimates that field's covariance (either empirically from the final
stage's draws or from the limiting quadrature form), simulates its
sup-norm quantile, and assembles bands, coverage studies, and
convergence-rate studies on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import problems
from .deterministic import (
    FunctionOnGrid,
    TauProductFunction,
    apriori_error_bound,
    interp_at,
    picard_solve,
    volterra_solve,
    volterra_tail_bound,
)
from .errors import InvalidSpecError, check_int
from .mc_fredholm import StageIterate, mc_solve_fredholm
from .mc_volterra import VolterraStageIterate, _iterate_at, mc_solve_volterra
from .problems import (
    _NU_NODES,
    FredholmProblem,
    VolterraProblem,
    _gauss_legendre01,
    _kernel_values,
    _one_blas_thread,
    _pool_map,
    _use_pool,
    _volterra_kernel_rows,
    _volterra_quadrature,
)
from .sampling import ROLE_GAUSS, RandomStream, _make_schedule

__all__ = [
    "CovarianceEstimate",
    "estimate_covariance",
    "estimate_covariance_volterra",
    "limit_covariance",
    "gaussian_sup_quantile",
    "ConfidenceBand",
    "confidence_band",
    "tail_log_asymptote",
    "RateStudyResult",
    "rate_study",
    "CoverageStudyResult",
    "coverage_study",
]

# Eigenvalues at or below this share of the largest are dropped from a
# covariance root; the number kept is the reported rank.
_RANK_RTOL = 1e-12
# Pivoted Cholesky stops once the trace of the remainder it would drop is
# at most this share of the largest eigenvalue of what it has kept, so
# every dropped eigenvalue lies far below the _RANK_RTOL cut.
_PIVOT_RTOL = 1e-14
# Pivots taken at most before a covariance counts as not numerically
# low-rank and is decomposed densely (an estimator chunk is then kept as
# its centred block).  Each pivot costs one covariance column, a pass
# over the n x k feature factor, so the pivots wasted on a full-rank
# factor cost 32 n k multiply-adds against the n k min(n, k) of its dense
# Gram matrix.  The registered cases stop within 2-17 pivots.
_PIVOT_CAP = 32
# A covariance given as a plain matrix may be asymmetric by at most this
# share of its largest absolute entry.
_ASYM_RTOL = 1e-10
# The Volterra estimator roots its draws in serial chunks of at most this
# many factor values (32 MB): one row per check time when the kernel
# ignores the target, one per product point otherwise.  The Fredholm one
# takes chunks of problems._CHUNK_ENTRIES kernel values.  A Volterra chunk
# already makes one pooled kernel call per check time, so its chunks are
# few and serial rather than small and pooled (timings in BENCH_22.json).
# The chunk boundaries set the chunk roots, so changing either cap moves
# estimated covariances at roundoff.
_DRAW_CHUNK_ENTRIES = 4_000_000


@dataclass(frozen=True)
class CovarianceEstimate:
    """A positive-semidefinite covariance over grid points, kept as a root.

    ``root`` has shape (n, rank) and the covariance is ``root @ root.T``.
    Every covariance the library builds (``source`` ``limit`` or
    ``estimated``) is B B^T for a feature factor B and is rooted by greedy
    pivoted Cholesky, B B^T = L L^T + S with L of shape (n, r), stopping
    once the dropped remainder S has trace at most 1e-14 of the largest
    eigenvalue of L L^T; one ``eigh`` of the r x r L^T L finishes the
    root.  Past 32 pivots the covariance is not numerically low-rank and
    one ``eigh`` of the smaller of B^T B and B B^T runs instead.  The
    estimators root each chunk of centred draws this way (a chunk past 32
    pivots joins the stack as its centred block instead), then the stack
    of the chunk roots and chunk-mean shifts, which is also rooted into
    one part whenever it passes 4 times the last such root's width, at
    least 128 columns: one ``eigh`` per low-rank chunk of nonzero spread,
    one per re-rooting and one for the final stack.  Fredholm chunks hold
    at most 2 MiB of kernel values, filled by kernel calls whose
    coordinate products stay within 2 MiB, and are rooted on the kernel
    pool with at most one chunk alive per worker; Volterra chunks hold at
    most 4,000,000 factor values and run in turn, since each already
    makes one pooled kernel call per check time.  When the Volterra
    kernel ignores y, the factor has one row per check time; the root's
    rows are repeated once per grid point at the end, and
    :func:`gaussian_sup_quantile` simulates each repeated row once.
    A plain matrix (``given``) takes one ``eigh`` of itself.  Either way
    eigenvalues at or below 1e-12 times the largest are dropped, so the
    covariance is reproduced up to 1e-12 of its spectral norm plus the
    remainder.  Each root column is signed so that its first entry of at
    least half its largest magnitude is positive, so both routes give the
    same root up to roundoff and the same band.

    ``asymmetry`` is the largest absolute skew entry of a plain matrix
    (at most 1e-10 of its largest entry, or it is rejected); B B^T is
    symmetric by construction and reports 0.  ``min_eigenvalue`` is the
    lowest eigenvalue of the matrix passed to ``eigh``, capped at 0 when
    B^T B stands for B B^T; on the pivoted route it is the lower of that
    of L^T L and the lowest diagonal entry of S (pivoted entries count as
    0).  An estimated covariance reports that of its final root, of the
    stacked factor.  A root over one row per check time reports n_pts
    times its value, capped at 0 (:func:`_per_point`), the scale of the
    covariance its repeated rows stand for.  It should be tiny relative
    to ``scale`` (the trace): a large negative value means the input was
    not PSD (``heavy_clip``), which rejects a plain matrix and, for a
    factor, stays at roundoff.
    ``n_samples`` counts the draws an estimated covariance averages, the
    final stage's q(m) unless the caller replaced them, and is 0 for
    ``limit`` and ``given``.  ``matrix`` forms the dense n x n covariance
    on first use.
    """

    root: np.ndarray
    source: str
    n_samples: int
    asymmetry: float
    min_eigenvalue: float

    @property
    def rank(self) -> int:
        return self.root.shape[1]

    @cached_property
    @_one_blas_thread
    def matrix(self) -> np.ndarray:
        mat = self.root @ self.root.T
        return 0.5 * (mat + mat.T)

    @property
    def variances(self) -> np.ndarray:
        """The diagonal of the covariance."""
        return np.sum(self.root * self.root, axis=1)

    @property
    def scale(self) -> float:
        return float(np.sum(self.variances))

    @property
    def heavy_clip(self) -> bool:
        return self.min_eigenvalue < -1e-10 * max(self.scale, 1e-300)


def _signed(root: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's first entry of at least half its peak is positive."""
    half = 0.5 * np.maximum(root.max(axis=0, initial=0.0), -root.min(axis=0, initial=0.0))
    first = np.argmax((root >= half) | (root <= -half), axis=0)
    np.negative(root, out=root, where=root[first, np.arange(root.shape[1])] < 0.0)
    return root


def _eigen_root(
    gram: np.ndarray, factor: "np.ndarray | None" = None
) -> "tuple[np.ndarray, float]":
    """Truncated root and lowest eigenvalue from one ``eigh`` of a symmetric Gram matrix.

    Without ``factor`` the Gram matrix is the covariance itself and the
    root is V_r sqrt(lambda_r).  With ``factor`` F of shape (n, k) the
    Gram matrix is F^T F = W Lambda W^T and F W_r is a root of F F^T.
    ``eigh`` reads only the lower triangle.
    """
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > _RANK_RTOL * vals[-1]
    if factor is None:
        root = vecs[:, keep] * np.sqrt(vals[keep])
    else:
        root = factor @ vecs[:, keep]
    return _signed(root), float(vals[0])


def _as_estimate(cov: "CovarianceEstimate | np.ndarray") -> CovarianceEstimate:
    """The estimate itself, or a plain matrix checked and decomposed densely.

    A plain matrix must be square and finite, symmetric to ``_ASYM_RTOL``
    of its largest absolute entry and free of ``heavy_clip``; anything
    else raises ``InvalidSpecError``.
    """
    if isinstance(cov, CovarianceEstimate):
        return cov
    mat = np.asarray(cov, dtype=float)
    if (
        mat.ndim != 2
        or mat.shape[0] != mat.shape[1]
        or mat.size == 0
        or not np.all(np.isfinite(mat))
    ):
        raise InvalidSpecError("covariance must be a non-empty square matrix of finite values")
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > _ASYM_RTOL * float(np.max(np.abs(mat))):
        raise InvalidSpecError(f"covariance is not symmetric (skew entry {asym:.3g})")
    root, low = _eigen_root(0.5 * (mat + mat.T))
    est = CovarianceEstimate(root, "given", 0, asym, low)
    if est.heavy_clip:
        raise InvalidSpecError(
            f"covariance is not positive-semidefinite (eigenvalue {est.min_eigenvalue:.3g})"
        )
    return est


def _pivoted_root(factor: np.ndarray, noise: float = 0.0) -> "tuple[np.ndarray, float] | None":
    """Root and lowest eigenvalue of B B^T by pivoted Cholesky, or None past the cap.

    Each step pivots on the largest diagonal entry of the Schur complement
    S = B B^T - L L^T, reading one covariance column B B[p], so B B^T is
    never formed.  The loop stops once the positive part of trace(S) is at
    most ``_PIVOT_RTOL`` times the largest squared column norm of L (a
    lower bound on the largest eigenvalue of L L^T) or at most ``noise``,
    the roundoff left in B by its construction (greedy pivoted Cholesky
    with trace control: Harbrecht, Peters and Schneider, Appl. Numer.
    Math. 2012).  One ``eigh`` of the r x r L^T L then rotates and
    truncates L; the lowest eigenvalue reported is that of L^T L or the
    lowest diagonal entry of S, pivoted entries counting as 0.  Returns
    None when the rule is not met within ``_PIVOT_CAP`` pivots.
    """
    n = factor.shape[0]
    rest = np.einsum("ij,ij->i", factor, factor)
    cols = np.empty((n, min(n, _PIVOT_CAP)))
    top = 0.0
    r = 0
    while np.sum(rest, where=rest > 0.0) > max(_PIVOT_RTOL * top, noise):
        if r == cols.shape[1]:
            return None
        p = int(np.argmax(rest))
        col = (factor @ factor[p] - cols[:, :r] @ cols[p, :r]) / math.sqrt(rest[p])
        cols[:, r] = col
        rest -= col * col
        rest[p] = 0.0
        top = max(top, float(col @ col))
        r += 1
    low = float(np.min(rest))
    if r == 0:
        return np.zeros((n, 0)), low
    piv = cols[:, :r]
    root, low_gram = _eigen_root(piv.T @ piv, piv)
    return root, min(low, low_gram)


def _factor_covariance(
    factor: np.ndarray, source: str, n_samples: int, noise: float = 0.0, pivots: bool = True
) -> CovarianceEstimate:
    """Covariance B B^T of a feature factor B (n x k), rooted by :func:`_pivoted_root`.

    A covariance that needs more than ``_PIVOT_CAP`` pivots is not
    numerically low-rank: the smaller of B^T B and B B^T is decomposed
    instead, and ``pivots=False`` goes there directly.
    """
    rooted = _pivoted_root(factor, noise) if pivots else None
    if rooted is None:
        n, k = factor.shape
        if k >= n:
            rooted = _eigen_root(factor @ factor.T)
        else:  # B B^T has n - k zero eigenvalues
            root, low = _eigen_root(factor.T @ factor, factor)
            rooted = root, min(low, 0.0)
    return CovarianceEstimate(rooted[0], source, n_samples, 0.0, rooted[1])


def _stack(parts) -> "tuple[np.ndarray, np.ndarray, int]":
    """Factor, mean and draw count of the union of (root, mean, count) parts.

    Each root spans its part's draws centred by the part's own mean mu_c;
    with mu the mean of all N draws, [R_1 .. R_C, sqrt(n_c) (mu_c - mu) ..]
    spans them centred by mu (Chan, Golub and LeVeque, 1983).
    """
    roots, means, sizes = zip(*parts)
    total = sum(sizes)
    means = np.stack(means, axis=1)
    mean = means @ sizes / total
    shifts = (means - mean[:, None]) * np.sqrt(sizes)
    return np.concatenate(roots + (shifts,), axis=1), mean, total


def _streamed_covariance(columns, n_cols: int, step: int, pooled: bool) -> CovarianceEstimate:
    """Empirical covariance of feature columns (divided by N), rooted chunk by chunk.

    ``columns(c0, c1)`` returns the (n_rows, c1 - c0) features of draws
    c0 .. c1 - 1, evaluated in chunks of ``step`` draws.  One task per
    chunk evaluates it, centres it in place by its own mean (a read-only
    chunk, such as a kernel's broadcast view, is copied first) and roots
    it; a chunk that reaches ``_PIVOT_CAP`` pivots is not low-rank and
    is kept as its centred block, which is already a factor of its
    covariance.  With ``pooled`` the tasks run on the kernel pool, so a
    chunk is rooted on the core that evaluated it and at most one chunk
    per worker is alive; otherwise they run in turn on the calling
    thread.  The calling thread stacks the (root, mean, count) results in
    chunk order, so the root does not depend on the worker count, and
    whenever the stacked factor (:func:`_stack`) passes 4 times the width
    of the last such root, and at least 4 ``_PIVOT_CAP`` = 128 columns,
    it is rooted into one part, so the stack does not grow with N: a
    low-rank stack stays about 128 columns wide whatever n_rows, and a
    full-rank one is rooted again once per 4 n_rows columns.  The
    final stack, divided in place by sqrt(N), is rooted once more.  A
    stack holding a part wider than ``_PIVOT_CAP`` columns (a centred
    block, or the root of one) is not low-rank and is rooted densely,
    without the pivots that would fail.  Neither E[g g^T] - m m^T nor an
    n_rows x n_rows matrix of the draws is formed.  Fewer than 2 draws
    raise ``InvalidSpecError``.
    """
    if n_cols < 2:
        raise InvalidSpecError("need at least 2 draws to estimate a covariance")

    def root_chunk(c0: int):
        block = columns(c0, min(c0 + step, n_cols))
        mean = np.mean(block, axis=1)
        if not block.flags.writeable:
            block = np.array(block)
        block -= mean[:, None]
        rooted = _pivoted_root(block)
        return (block if rooted is None else rooted[0]), mean, block.shape[1]

    def low_rank() -> bool:
        return all(root.shape[1] <= _PIVOT_CAP for root, _, _ in parts)

    starts = range(0, n_cols, step)
    parts, width, limit = [], 0, 4 * _PIVOT_CAP
    for part in _pool_map(root_chunk, starts) if pooled else map(root_chunk, starts):
        parts.append(part)
        width += part[0].shape[1] + 1
        if width > limit:
            stacked, mean, total = _stack(parts)
            root = _factor_covariance(stacked, "estimated", 0, pivots=low_rank()).root
            parts = [(root, mean, total)]
            width = root.shape[1] + 1
            limit = 4 * max(root.shape[1], _PIVOT_CAP)
    stacked = _stack(parts)[0]  # a fresh array
    stacked /= math.sqrt(n_cols)
    return _factor_covariance(stacked, "estimated", n_cols, pivots=low_rank())


@_one_blas_thread
def estimate_covariance(
    problem: FredholmProblem,
    iterates: "list[StageIterate]",
    samples: "np.ndarray | None" = None,
) -> CovarianceEstimate:
    """Empirical covariance of the final stage's kernel evaluations.

    Evaluates s -> K(t, s, x_(m-1)(s)) at the final stage's q(m) draws,
    the summands its grid pass averaged, with the values of x_(m-1) the
    run stored there (``input_values``; the forcing term for a single
    stage), and forms the empirical covariance (divided by the draw count,
    without a small-sample correction) from roots of chunks of draws.
    ``samples`` replaces the draws; x_(m-1), or the forcing term for a
    single stage, is then evaluated at them.
    """
    if not iterates:
        raise InvalidSpecError("run has no stages")
    if samples is None:
        samples, z = iterates[-1].samples, iterates[-1].input_values
    elif len(iterates) >= 2:
        z = iterates[-2].evaluate(problem, samples)
    else:
        z = np.asarray(problem.f(samples), dtype=float)
        z = np.broadcast_to(z, samples.shape[:1])
    n = samples.shape[0]
    t = problem.grid.points
    n_rows = t.shape[0]

    def columns(c0: int, c1: int) -> np.ndarray:
        return _kernel_values(problem, t, samples[c0:c1], z[c0:c1], mean=False)

    step = max(1, problems._CHUNK_ENTRIES // n_rows)
    return _streamed_covariance(columns, n, step, _use_pool(n_rows * n))


@_one_blas_thread
def estimate_covariance_volterra(
    problem: VolterraProblem,
    iterates: "list[VolterraStageIterate]",
) -> CovarianceEstimate:
    """Empirical covariance over the product of check times and grid points.

    The evaluation map sends each of the final stage's q(m) draws
    (eta, xi) to tau * K(tau, y, tau * eta, xi, X_(m-1)(tau * eta, xi))
    for every product point (tau, y), reading X_(m-1) off the previous
    stage's ``table`` at those draws (the forcing term for a single
    stage); rows follow tau-major order, matching :func:`product_points`.
    Draws are streamed in chunks as in :func:`estimate_covariance`.
    """
    if not iterates:
        raise InvalidSpecError("run has no stages")
    eta, xi = iterates[-1].eta, iterates[-1].xi
    prev_cols = iterates[-2].table if len(iterates) >= 2 else None
    n = xi.shape[0]
    if len(iterates) >= 2 and prev_cols is None:
        raise InvalidSpecError("previous stage carries no table")
    pts = problem.grid.points

    def columns(c0: int, c1: int) -> np.ndarray:
        cols = None if prev_cols is None else prev_cols[:, c0:c1]
        z_at = _iterate_at(problem, xi[c0:c1], cols)
        blocks = _volterra_kernel_rows(problem, eta[c0:c1], xi[c0:c1], z_at, pts, mean=False)
        return _tau_major(problem, blocks, c1 - c0)

    rows = 1 if problem._ignores_target else pts.shape[0]
    step = max(1, _DRAW_CHUNK_ENTRIES // (problem.tau_grid.shape[0] * rows))
    return _per_point(problem, _streamed_covariance(columns, n, step, pooled=False))


def _tau_major(problem: VolterraProblem, blocks, n_cols: int) -> np.ndarray:
    """tau_a * block of each check time's ``(tau_a, block)``, stacked tau-major.

    A kernel that ignores the target gives one row per check time, and
    :func:`_per_point` expands a root of that factor; any other gives one
    row per product point.
    """
    rows = 1 if problem._ignores_target else problem.grid.size
    out = np.empty((problem.tau_grid.shape[0] * rows, n_cols))
    for a, (tau_a, block) in enumerate(blocks):
        out[a * rows : (a + 1) * rows] = tau_a * block.reshape(rows, n_cols)
    return out


def _per_point(problem: VolterraProblem, cov: CovarianceEstimate) -> CovarianceEstimate:
    """``cov`` over product points: a root with one row per check time is repeated per grid point.

    The expanded covariance holds each entry of the compact one in an
    n_pts x n_pts block, so its nonzero eigenvalues are n_pts times the
    compact ones and, with n_pts >= 2, it is singular: its
    ``min_eigenvalue`` is the lower of n_pts times the compact one and 0.
    The relative pivot and rank cuts do not see the scaling.
    """
    if not problem._ignores_target:
        return cov
    n_pts = problem.grid.size
    root = np.repeat(cov.root, n_pts, axis=0)
    low = min(n_pts * cov.min_eigenvalue, 0.0)
    return CovarianceEstimate(root, cov.source, cov.n_samples, cov.asymmetry, low)


def _limit_factor_covariance(g: np.ndarray, w: np.ndarray) -> CovarianceEstimate:
    """Covariance of features g (n x k, overwritten) under quadrature weights w.

    g is centred by its weighted mean and scaled by sqrt(w), giving a
    factor B with covariance B B^T.  Each weighted mean sums k terms, so
    centring leaves roundoff of about k eps in every entry: a remainder
    whose trace is at most (k eps)^2 times the trace of the uncentred
    weighted second moment is taken as zero, and an exactly constant
    feature set has rank 0.
    """
    noise = (g.shape[1] * np.finfo(float).eps) ** 2 * float(np.einsum("ij,ij->j", g, g) @ w)
    g -= (g @ w)[:, None]
    g *= np.sqrt(w)
    return _factor_covariance(g, "limit", 0, noise)


@_one_blas_thread
def limit_covariance(
    problem: "FredholmProblem | VolterraProblem",
    x_prev: "FunctionOnGrid | TauProductFunction",
) -> CovarianceEstimate:
    """Limiting covariance of the final stage, by quadrature.

    ``x_prev`` is the deterministic iterate the last stage consumes
    (iterate m - 1).  For the time-dependent equation the integrand is
    averaged over the rescaled time fraction with the 32 Gauss-Legendre
    nodes of :func:`volterra_step` and the rows run over product points
    in tau-major order.  The kernel features form the factor of
    :func:`_limit_factor_covariance`; see :class:`CovarianceEstimate` for
    the truncation.
    """
    pts, w = problem.grid.points, problem.grid.weights
    if isinstance(problem, FredholmProblem):
        g = _kernel_values(problem, pts, pts, x_prev.values, mean=False)
        return _limit_factor_covariance(np.array(g), w)  # g may be a broadcast view
    tau = problem.tau_grid
    nu01, wnu = _gauss_legendre01(_NU_NODES)
    blocks = _volterra_quadrature(problem, nu01, lambda u: interp_at(tau, x_prev.values, u))
    g = _tau_major(problem, blocks, _NU_NODES * w.shape[0])
    return _per_point(problem, _limit_factor_covariance(g, (wnu[:, None] * w[None, :]).ravel()))


def product_points(problem: VolterraProblem) -> np.ndarray:
    """Product of check times and grid coordinates, tau-major, shape (n, 1 + dim)."""
    tau = problem.tau_grid
    coords = problem.grid.coords
    t = np.repeat(tau, coords.shape[0])[:, None]
    y = np.tile(coords, (tau.shape[0], 1))
    return np.concatenate([t, y], axis=1)


@_one_blas_thread
def gaussian_sup_quantile(
    cov: "CovarianceEstimate | np.ndarray",
    level: float,
    rng: "np.random.Generator | RandomStream",
    n_sim: int = 10000,
) -> float:
    """Quantile of sup |G| for a centred Gaussian with the given covariance.

    Simulates ``n_sim`` draws of G = root @ N(0, I_r) through the
    estimate's truncated root (a plain matrix gets one ``eigh`` and the
    same truncation), taking the sup in row chunks of at most
    ``_CHUNK_ENTRIES`` entries, one alive at a time, so no n_sim x n array
    is formed, and returns the empirical quantile with linear
    interpolation.  A row of the root equal to the row before it gives
    the same field values and is skipped, so a Volterra root whose rows
    repeat per grid point is simulated on one row per check time.  A
    rank-0 (degenerate) field has quantile 0.  A plain matrix must be
    square and finite, symmetric to 1e-10 of its largest absolute entry
    and without ``heavy_clip``, or ``InvalidSpecError`` is raised.
    """
    if not (0.0 < level < 1.0):
        raise InvalidSpecError("level must lie strictly between 0 and 1")
    check_int(n_sim, 100, "n_sim must be an integer of at least 100")
    if isinstance(rng, RandomStream):
        rng = rng.generator(ROLE_GAUSS, 0, 0)
    cov = _as_estimate(cov)
    if cov.rank == 0:
        return 0.0
    # A row equal to the one before it gives the same field values.
    new = np.any(cov.root[1:] != cov.root[:-1], axis=1)
    root = cov.root if new.all() else cov.root[np.concatenate([[True], new])]
    draws = rng.standard_normal((n_sim, cov.rank))
    sups = np.empty(n_sim)
    step = max(1, problems._CHUNK_ENTRIES // root.shape[0])
    for i0 in range(0, n_sim, step):
        field = draws[i0 : i0 + step] @ root.T
        sups[i0 : i0 + step] = np.max(np.abs(field, out=field), axis=1)
        del field
    return float(np.quantile(sups, level))


def _cover_slack(target: np.ndarray) -> float:
    # Quadrature and sampling agree only to roundoff, so a degenerate
    # (zero-variance) band needs an epsilon-scale allowance or coverage
    # checks fail on the last bit.  Negligible against any real halfwidth.
    scale = max(1.0, float(np.max(np.abs(target))))
    return 32.0 * np.finfo(float).eps * scale


def _broadcast_values(values, n: int) -> np.ndarray:
    """``values`` as floats broadcast to ``(n,)``, or ``InvalidSpecError``."""
    values = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(values, (n,))
    except ValueError:
        raise InvalidSpecError(
            f"values of shape {values.shape} do not broadcast to the {n} points"
        ) from None


@dataclass(frozen=True)
class ConfidenceBand:
    """Uniform band: center +- halfwidth simultaneously over all points.

    ``halfwidth`` is the sup quantile divided by the square root of the
    final stage's block size.  ``covers`` optionally widens the band by a
    deterministic bound when the target is the fixed point rather than
    the iterate the run approximates.
    """

    center: np.ndarray
    halfwidth: float
    level: float
    quantile: float
    q_last: int

    def covers(self, values: np.ndarray, widen: float = 0.0) -> bool:
        v = _broadcast_values(values, self.center.shape[0])
        gap = float(np.max(np.abs(self.center - v)))
        return bool(gap <= self.halfwidth + widen + _cover_slack(v))


@_one_blas_thread
def confidence_band(
    center: np.ndarray,
    cov: "CovarianceEstimate | np.ndarray",
    q_last: int,
    level: float,
    rng: "np.random.Generator | RandomStream",
) -> ConfidenceBand:
    """Band around the final iterate from a covariance and the last block size.

    ``center`` must hold one value per row of the covariance, or
    ``InvalidSpecError`` is raised.
    """
    check_int(q_last, 1, "q_last must be a positive integer")
    center = np.asarray(center, dtype=float).ravel()
    cov = _as_estimate(cov)
    if center.shape[0] != cov.root.shape[0]:
        raise InvalidSpecError(
            f"center has {center.shape[0]} values but the covariance has {cov.root.shape[0]} rows"
        )
    u = gaussian_sup_quantile(cov, level, rng)
    return ConfidenceBand(center, u / math.sqrt(q_last), level, u, q_last)


@_one_blas_thread
def tail_log_asymptote(u: float, cov: "CovarianceEstimate | np.ndarray") -> float:
    """Leading log-probability that the Gaussian sup exceeds ``u``.

    Equals -u**2 / (2 * max variance); the max is over the diagonal of
    the truncated covariance.  Raises if the field is degenerate (zero
    maximal variance) or a plain matrix fails the checks of
    :func:`gaussian_sup_quantile`.
    """
    if not (u > 0.0) or not math.isfinite(u):
        raise InvalidSpecError("threshold must be a positive finite number")
    peak = float(np.max(_as_estimate(cov).variances))
    if peak <= 0.0:
        raise InvalidSpecError("tail asymptote undefined for a degenerate field")
    return -(u * u) / (2.0 * peak)


def _final_table(problem, schedule, stream, replication: int = 0):
    """Stage records of one staged run and its final table, flattened."""
    if isinstance(problem, FredholmProblem):
        run = mc_solve_fredholm(problem, schedule, stream, replication=replication)
        return run, run[-1].grid_values.ravel()
    run = mc_solve_volterra(problem, schedule, stream, replication=replication)
    return run, run[-1].grid_table.ravel()


def _det_solve(problem, m: int) -> list:
    """Deterministic iterates 0 .. m: :func:`picard_solve` or :func:`volterra_solve`."""
    return (picard_solve if isinstance(problem, FredholmProblem) else volterra_solve)(problem, m)


def _iteration_bound(problem, det: list) -> float:
    """A priori gap between the last deterministic iterate and the fixed point."""
    delta0, m = det[1].sup_distance(det[0]), len(det) - 1
    if isinstance(problem, FredholmProblem):
        return apriori_error_bound(problem.rho, delta0, m)
    return volterra_tail_bound(problem.lip, delta0, m)


def _table_points(problem) -> np.ndarray:
    """Points of the flattened final table, one row each."""
    return problem.grid.coords if isinstance(problem, FredholmProblem) else product_points(problem)


def _final_tables(problem, stages, budgets, schedule_kind, replications, stream, workers):
    """A study's runs: its schedules, deterministic iterates and final tables.

    The iterates run 0 .. ``stages``, and the tables of each (budget,
    replication) run have shape (budgets, replications, points).  With
    ``workers > 1`` the runs are kernel-pool tasks, at most ``workers`` in
    flight, whose kernel blocks run serially on their own thread; on a
    pool thread, or with one worker, they run in turn on the calling
    thread.  Rows are written in run order, so the result does not depend
    on the worker count.
    """
    check_int(replications, 1, "replications must be a positive integer")
    check_int(workers, 1, "workers must be a positive integer")
    schedules = [_make_schedule(schedule_kind, b, stages, exact=True)[0] for b in budgets]
    det = _det_solve(problem, stages)
    jobs = [(schedule, rep) for schedule in schedules for rep in range(replications)]
    out = np.empty((len(jobs), _table_points(problem).shape[0]))

    def run(job) -> np.ndarray:
        return _final_table(problem, job[0], stream, job[1])[1]

    pooled = workers > 1 and not getattr(problems._local, "on_pool", False)
    for i, table in enumerate(_pool_map(run, jobs, workers - 1) if pooled else map(run, jobs)):
        out[i] = table
    return schedules, det, out.reshape(len(schedules), replications, -1)


@dataclass(frozen=True)
class RateStudyResult:
    """Observed error decay of the final iterate against the budget."""

    budgets: tuple
    median_errors: tuple
    slope: "float | None"
    undefined_reason: "str | None"
    replications: int
    stages: int


def rate_study(
    problem: "FredholmProblem | VolterraProblem",
    stages: int,
    budgets: "list[int]",
    stream: RandomStream,
    replications: int = 30,
    schedule_kind: str = "budget-consistent",
    workers: int = 1,
) -> RateStudyResult:
    """Median sup error against budget, with a log-log slope.

    The target is the deterministic iterate of the same stage count, so
    the study isolates the stochastic error.  The slope is left undefined
    when the errors sit at roundoff (a zero-variance problem), since a
    fit would be fit to noise.  With ``workers > 1`` the replications
    run as kernel-pool tasks, at most ``workers`` in flight; the result
    does not depend on ``workers``.
    """
    if len(budgets) < 2:
        raise InvalidSpecError("need at least 2 budgets for a rate")
    if sorted(set(budgets)) != list(budgets):
        raise InvalidSpecError("budgets must be strictly increasing")
    _, det, tables = _final_tables(
        problem, stages, budgets, schedule_kind, replications, stream, workers
    )
    medians = np.median(np.max(np.abs(tables - det[-1].values.ravel()), axis=2), axis=1)
    slope, reason = None, "median errors at roundoff; the problem has no stochastic error"
    if not np.any(medians < 1e-13):
        slope = float(np.polyfit(np.log(np.asarray(budgets, float)), np.log(medians), 1)[0])
        reason = None
    return RateStudyResult(
        tuple(budgets), tuple(float(e) for e in medians), slope, reason, replications, stages
    )


@dataclass(frozen=True)
class CoverageStudyResult:
    """Replicated band coverage of the deterministic iterate and fixed point."""

    coverage: float
    coverage_reference: "float | None"
    level: float
    halfwidth: float
    quantile: float
    widen: "float | None"
    replications: int
    q_last: int


def coverage_study(
    problem: "FredholmProblem | VolterraProblem",
    stages: int,
    budget: int,
    level: float,
    stream: RandomStream,
    replications: int = 500,
    schedule_kind: str = "budget-consistent",
    workers: int = 1,
    reference: "np.ndarray | None" = None,
) -> CoverageStudyResult:
    """Fraction of replicated runs whose band covers the target.

    The band halfwidth comes from the limiting covariance at the
    deterministic previous iterate (one quantile simulation serves every
    replication).  Coverage against the iterate of the same stage count
    should approach the level; when ``reference`` values for the fixed
    point are supplied a second coverage is reported with the band
    widened by the a priori iteration bound.  ``reference`` must broadcast
    to the points of the flattened final table, or ``InvalidSpecError``
    is raised before any run.  ``workers`` acts as in :func:`rate_study`.
    """
    # level and reference are checked before the runs, not after them.
    if not (0.0 < level < 1.0):
        raise InvalidSpecError("level must lie strictly between 0 and 1")
    if reference is not None:
        n = _table_points(problem).shape[0]
        reference = _broadcast_values(np.ravel(reference), n)
    schedules, det, tables = _final_tables(
        problem, stages, [budget], schedule_kind, replications, stream, workers
    )
    tables = tables[0]
    q_last = schedules[0].sizes[-1]
    flat_target = det[-1].values.ravel()
    cov = limit_covariance(problem, det[-2])
    widen = _iteration_bound(problem, det)
    u = gaussian_sup_quantile(cov, level, stream)
    halfwidth = u / math.sqrt(q_last)
    slack = _cover_slack(flat_target)
    coverage = float(np.mean(np.max(np.abs(tables - flat_target), axis=1) <= halfwidth + slack))
    coverage_reference = None
    if reference is not None:
        gaps = np.max(np.abs(tables - reference), axis=1)
        coverage_reference = float(np.mean(gaps <= halfwidth + widen + slack))
    return CoverageStudyResult(
        coverage,
        coverage_reference,
        level,
        halfwidth,
        u,
        widen if reference is not None else None,
        replications,
        q_last,
    )

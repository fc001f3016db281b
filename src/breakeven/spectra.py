"""Gradient-covariance spectra via Gram matrices and Hessian spectra via
Lanczos.

The covariance of interest is the centered second moment of gradient samples,
K = (1/L) * sum_i (g_i - gbar)(g_i - gbar)^T. Its nonzero spectrum is computed
from the L x L Gram matrix of centered inner products instead of the D x D
matrix, which is exact: both are (1/L) * C C^T vs (1/L) * C^T C for the
centered sample matrix C. Centering against the sample mean introduces exactly
one null direction, so the smallest nonzero eigenvalue is read off as the
second-smallest of the (clamped) Gram spectrum; the full Gram spectrum is kept
on the summary so other readings can be recovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateProjectionError,
    DimensionMismatchError,
    InsufficientCheckpointsError,
    InsufficientDataError,
    InvalidParamsError,
    RankDeficientError,
)
from .linalg import DenseSymmetric, _canonical_signs, jacobi_eigh, lanczos_topk, project_onto_subspace
# ``grad`` is unused here but stays bound: perfbench/tracepoints.py patches
# ``breakeven.spectra.grad`` (ROADMAP item 5a)
from .netmodel import BATCH_STATS, Batch, BnMode, MlpSpec, grad, grouped_grads, hessian_operator
from .rng import derive_seed, make_rng

RANK_TOL = 1e-12
COND_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class GramMatrix:
    """L x L matrix of centered minibatch-gradient inner products, scaled by
    1/L. Symmetric by construction (upper triangle mirrored)."""

    entries: np.ndarray


@dataclass(frozen=True)
class SpectralSummary:
    """Per-checkpoint spectral diagnostics of the gradient covariance."""

    lambda_k1: float
    lambda_k_star: float
    trace_k: float
    cond_ratio: Optional[float]
    gram_eigenvalues: np.ndarray  # full clamped spectrum, descending
    gram_eigenvectors: np.ndarray  # columns pair with gram_eigenvalues; rows in sample order


def sample_minibatch_gradients(
    spec: MlpSpec,
    theta: np.ndarray,
    dataset: Batch,
    n_batches: int,
    batch_size: int,
    seed: int,
    bn_mode: BnMode = BATCH_STATS,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_batches`` independent minibatches (without replacement within
    each batch) and return their gradients as rows plus the sample mean.

    Row i equals ``grad`` on the i-th drawn minibatch; all rows come from one
    ``grouped_grads`` pass over the (n_batches, batch_size) index sets. The
    mean of the sampled gradients stands in for the full-batch gradient when
    forming the Gram matrix; use ``grad`` on the whole dataset when the exact
    full gradient is needed (oracle tests do).
    """
    if n_batches < 2:
        raise InvalidParamsError("need at least 2 gradient samples")
    if batch_size < 1 or batch_size > dataset.size:
        raise InsufficientDataError(
            f"batch size {batch_size} not drawable from {dataset.size} examples"
        )
    rng = make_rng(seed)
    groups = np.stack([rng.choice(dataset.size, size=batch_size, replace=False) for _ in range(n_batches)])
    grads = grouped_grads(spec, theta, dataset, groups, bn_mode)
    return grads, grads.mean(axis=0)


def gram_from_gradients(grads: np.ndarray, gbar: np.ndarray) -> GramMatrix:
    """Gram matrix with entries (1/L) <g_i - gbar, g_j - gbar>."""
    grads = np.asarray(grads, dtype=np.float64)
    gbar = np.asarray(gbar, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] < 2:
        raise InvalidParamsError("need a (L >= 2, D) gradient matrix")
    if gbar.shape != (grads.shape[1],):
        raise DimensionMismatchError("mean gradient length does not match samples")
    centered = grads - gbar
    n = grads.shape[0]
    # overflow here surfaces as NonFiniteError downstream (divergence policy)
    with np.errstate(over="ignore", invalid="ignore"):
        upper = np.triu(centered @ centered.T) / n
    entries = upper + np.triu(upper, 1).T
    return GramMatrix(entries=entries)


def _canonical_sample_order(entries: np.ndarray) -> np.ndarray:
    """Permutation making the Gram matrix independent of sample order.

    Samples are sorted by diagonal entry with the sorted row contents as a
    tie-break (both keys are permutation-invariant), so any reordering of the
    gradient samples maps to the same canonical matrix and the spectra below
    come out bitwise identical.
    """
    diag = np.diag(entries)
    rows = np.sort(entries, axis=1)
    keys = [(diag[i], tuple(rows[i])) for i in range(entries.shape[0])]
    return np.array(sorted(range(entries.shape[0]), key=lambda i: keys[i]), dtype=np.intp)


def k_spectrum(gram: GramMatrix) -> SpectralSummary:
    """Eigen-spectrum of the Gram matrix with the covariance reading applied.

    Eigenvalues are clamped at zero from below (the matrix is PSD up to
    rounding). The largest is the covariance spectral norm; the smallest
    nonzero one is taken as the second-smallest after clamping, discarding
    the single null direction introduced by centering. The conditioning
    ratio is null when the spectral norm is (numerically) zero. Sample order
    is canonicalized first, so summaries do not depend on draw order; the
    eigenvector rows are mapped back to the caller's sample order, so
    ``k_top_eigvecs`` can pair them with the gradient rows as given.
    """
    order = _canonical_sample_order(gram.entries)
    canonical = gram.entries[np.ix_(order, order)]
    pairs = jacobi_eigh(DenseSymmetric.from_array(canonical))
    vectors = pairs.eigenvectors[np.argsort(order)]  # rows back in sample order
    clamped = np.maximum(pairs.eigenvalues, 0.0)  # descending
    lambda_k1 = float(clamped[0])
    lambda_k_star = float(clamped[-2]) if clamped.size >= 2 else float(clamped[-1])
    trace_k = float(np.trace(canonical))
    cond = None if lambda_k1 < COND_RATIO_TOL else lambda_k_star / lambda_k1
    return SpectralSummary(
        lambda_k1=lambda_k1,
        lambda_k_star=lambda_k_star,
        trace_k=trace_k,
        cond_ratio=cond,
        gram_eigenvalues=clamped,
        gram_eigenvectors=vectors,
    )


def k_top_eigvecs(
    grads: np.ndarray, gbar: np.ndarray, ks: SpectralSummary, k: int = 5
) -> np.ndarray:
    """Top-k ambient-space eigenvectors of the covariance, as columns.

    A Gram eigenvector u with eigenvalue lambda > 0 maps to the ambient
    eigenvector normalize(sum_i u_i (g_i - gbar)). The Gram eigenpairs come
    from ``ks = k_spectrum(gram_from_gradients(grads, gbar))``, so the Gram
    matrix is diagonalized once per set of samples.
    """
    n_samples = ks.gram_eigenvectors.shape[0]
    if k > n_samples - 1:
        raise InvalidParamsError(f"k={k} exceeds L-1={n_samples - 1}")
    n_positive = int(np.sum(ks.gram_eigenvalues >= RANK_TOL))
    if n_positive < k:
        raise RankDeficientError(f"only {n_positive} positive eigenvalues, need {k}")
    centered = np.asarray(grads, dtype=np.float64) - np.asarray(gbar, dtype=np.float64)
    ambient = centered.T @ ks.gram_eigenvectors[:, :k]
    ambient /= np.linalg.norm(ambient, axis=0, keepdims=True)
    return _canonical_signs(ambient)


def grad_subspace_ratio(g: np.ndarray, top_vecs: np.ndarray) -> float:
    """Ratio of the gradient norm to the norm of its projection onto the
    given orthonormal columns; always >= 1 when defined."""
    g = np.asarray(g, dtype=np.float64)
    projection, _ = project_onto_subspace(g, top_vecs)
    g_norm = float(np.linalg.norm(g))
    p_norm = float(np.linalg.norm(projection))
    if g_norm == 0.0 or p_norm < 1e-12 * g_norm:
        raise DegenerateProjectionError("projection norm is negligible")
    return g_norm / p_norm


def hessian_spectrum(
    spec: MlpSpec,
    theta: np.ndarray,
    eval_subset: Batch,
    k: int = 5,
    method: str = "pearlmutter",
    max_iters: int = 40,
    seed: int = 0,
    bn_mode: BnMode = BATCH_STATS,
) -> np.ndarray:
    """Top Hessian eigenvalues, descending, via Lanczos over a
    Hessian-vector-product operator evaluated on a subset of the data.

    Returns min(k, dim, max_iters) values.
    """
    if eval_subset.size < 1:
        raise InsufficientDataError("evaluation subset is empty")
    op = hessian_operator(spec, theta, eval_subset, method=method, bn_mode=bn_mode)
    k_eff = min(k, op.dim, max_iters)
    return lanczos_topk(op, k=k_eff, max_iters=max_iters, seed=seed).eigenvalues


def pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Two-pass Pearson correlation; None when either series has zero
    variance (or fewer than two points)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    if denom == 0.0:
        return None
    return float(np.sum(dx * dy) / denom)


@dataclass(frozen=True)
class MSensitivityReport:
    m_values: tuple[int, ...]
    series: dict  # m -> np.ndarray of lambda_k1 per checkpoint
    pearson_r: Optional[float]


def m_sensitivity_report(
    spec: MlpSpec,
    thetas: Sequence[np.ndarray],
    dataset: Batch,
    seed: int,
    m_values: Sequence[int] = (1, 32),
    samples_times_batch: Optional[int] = None,
) -> MSensitivityReport:
    """Covariance spectral norm tracked across checkpoints for different
    minibatch sizes, holding the total example budget L*M constant.

    Reports the Pearson correlation between the two series (null when a
    series is constant); thresholds live with the caller, not here.
    """
    if len(thetas) < 10:
        raise InsufficientCheckpointsError(f"need >= 10 checkpoints, got {len(thetas)}")
    m_values = tuple(int(m) for m in m_values)
    if len(m_values) != 2:
        raise InvalidParamsError("exactly two minibatch sizes are compared")
    budget = samples_times_batch if samples_times_batch is not None else 25 * max(m_values)
    series = {m: np.empty(len(thetas)) for m in m_values}
    for t, theta in enumerate(thetas):
        for m in m_values:
            n_batches = budget // m
            if n_batches < 2 or m > dataset.size:
                raise InsufficientDataError(
                    f"budget {budget} with batch size {m} is not drawable"
                )
            grads, gbar = sample_minibatch_gradients(
                spec, theta, dataset, n_batches, m, seed=derive_seed(seed, t, m)
            )
            series[m][t] = k_spectrum(gram_from_gradients(grads, gbar)).lambda_k1
    r = pearson(series[m_values[0]], series[m_values[1]])
    return MSensitivityReport(m_values=m_values, series=series, pearson_r=r)

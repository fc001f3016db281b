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

C itself is never formed for a wide layer. A dense layer's minibatch
gradient is a sum of outer products a_i δ_iᵀ of its inputs and output
deltas, so its share of the Gram matrix is a sum over blocks of
(A Aᵀ)∘(Δ Δᵀ) on the L·M drawn examples. ``factor_form_layers`` picks the
layers read that way from the layer shapes and (L, M) alone; every other
parameter (narrow layers' weights, all biases, BN γ and β) keeps an
explicit L x P block. Centering happens where each form allows. The
explicit block is centered in place where it is drawn, before any
product. A factored layer's L x L block of raw inner products S is
centered after the product, as J S J with J = I - 11ᵀ/L, which loses
accuracy only when the mean gradient dominates the spread. On the 10-256-256-10 BN benchmark network
(L = 40, M = 8, seeds 0 and 47, every checkpoint) tr(S)/tr(J S J) stayed
at or below 1.5, and λ_K¹, λ_K*, trace K, the conditioning ratio and the
gradient-to-subspace ratio agreed with the all-explicit computation to
within 9e-15 relative.

No D-long covariance eigenvector is formed either: the gradient-to-subspace
ratio reads g's projection onto the top-k eigenvectors from the L inner
products C g and the Gram eigenpairs (``k_top_eigvecs``,
``grad_subspace_ratio``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateProjectionError,
    InsufficientCheckpointsError,
    InsufficientDataError,
    InvalidParamsError,
    RankDeficientError,
)
from .linalg import DenseSymmetric, jacobi_eigh, lanczos_topk
# ``grad`` is unused here but stays bound: perfbench/tracepoints.py patches
# ``breakeven.spectra.grad`` (ROADMAP item 5a)
from .netmodel import Batch, LayerFactors, MlpSpec, grad, grouped_grad_factors, hessian_operator
from .rng import derive_seed, make_rng

RANK_TOL = 1e-12
COND_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Per-checkpoint spectral diagnostics of the gradient covariance."""

    lambda_k1: float
    lambda_k_star: float
    trace_k: float
    cond_ratio: Optional[float]
    gram_eigenvalues: np.ndarray  # full clamped spectrum, descending
    gram_eigenvectors: np.ndarray  # columns pair with gram_eigenvalues; rows in sample order


@dataclass(frozen=True)
class GradientSample:
    """L gradient samples in two forms. ``explicit`` holds their centered
    columns for every parameter outside the factored weights, in θ order
    (all of θ when ``factors`` is empty). Each ``LayerFactors`` holds one
    factored layer's per-example inputs and deltas, L groups of M; the
    group gradients they give are not centered."""

    explicit: np.ndarray  # (L, P)
    factors: tuple[LayerFactors, ...] = ()


def factor_form_layers(spec: MlpSpec, n_batches: int, batch_size: int) -> tuple[int, ...]:
    """The layers whose covariance share is read from per-example factors:
    those whose explicit L x (fan_in * fan_out) weight block would hold more
    numbers than the two N x N inner-product matrices (N = L·M) the factor
    form multiplies instead. At L = 40, M = 8 that is a layer of more than
    5,120 weights: the 256 x 256 layer of a 10-256-256-10 net, and no layer
    of a 2-32-32-2 net."""
    n = n_batches * batch_size
    return tuple(e["layer"] for e in spec.layout() if n_batches * e["fan_in"] * e["fan_out"] > 2 * n * n)


def sample_minibatch_gradients(
    spec: MlpSpec,
    theta: np.ndarray,
    dataset: Batch,
    n_batches: int,
    batch_size: int,
    seed: int,
    bn_stats: Optional[np.ndarray] = None,
) -> tuple[GradientSample, np.ndarray]:
    """Draw ``n_batches`` independent minibatches (without replacement within
    each batch) and return their gradients as a ``GradientSample``, plus the
    sample mean its explicit columns were centered by.

    Everything comes from one ``grouped_grad_factors`` pass over the
    (n_batches, batch_size) index sets, with the layers ``factor_form_layers``
    picks kept as factors, and the explicit block is centered in place, so
    no second block exists. With no factored layer, row i equals ``grad`` on
    the i-th drawn minibatch minus the mean of all rows. The sample mean
    stands in for the full-batch gradient; use ``grad`` on the whole dataset
    when the exact full gradient is needed (oracle tests do).
    """
    if n_batches < 2:
        raise InvalidParamsError("need at least 2 gradient samples")
    if batch_size < 1 or batch_size > dataset.size:
        raise InsufficientDataError(
            f"batch size {batch_size} not drawable from {dataset.size} examples"
        )
    rng = make_rng(seed)
    groups = np.stack([rng.choice(dataset.size, size=batch_size, replace=False) for _ in range(n_batches)])
    factored = factor_form_layers(spec, n_batches, batch_size)
    grads, factors = grouped_grad_factors(spec, theta, dataset, groups, factored, bn_stats)
    # overflow here surfaces as NonFiniteError downstream (divergence policy)
    with np.errstate(over="ignore", invalid="ignore"):
        gbar = grads.mean(axis=0)
        grads -= gbar
    return GradientSample(explicit=grads, factors=factors), gbar


def _flat(a: np.ndarray) -> np.ndarray:
    """(L, M, width) factors as (L·M, width) rows, one per example."""
    return a.reshape(-1, a.shape[-1])


def _factor_gram(f: LayerFactors) -> np.ndarray:
    """L x L inner products of a factored layer's group gradients, centered:
    J S J for the raw block sums S of (A Aᵀ)∘(Δ Δᵀ), unscaled."""
    n_groups, m = f.inputs.shape[:2]
    a, d = _flat(f.inputs), _flat(f.deltas)
    s = ((a @ a.T) * (d @ d.T)).reshape(n_groups, m, n_groups, m).sum(axis=1).sum(axis=-1)
    s -= s.mean(axis=0)
    s -= s.mean(axis=1, keepdims=True)
    return s


def gram_from_gradients(sample: GradientSample) -> np.ndarray:
    """The L x L Gram matrix with entries (1/L) <c_i, c_j> of the centered
    samples c_i = g_i - gbar (``sample_minibatch_gradients`` draws them),
    symmetric by construction (upper triangle mirrored).

    The explicit columns are centered before they are multiplied, never as
    G G^T minus a correction, whose cancellation would swamp the small
    eigenvalues; a sample with no factored layer is read that way alone.
    Each factored layer adds its L x L block, centered after the product
    (``_factor_gram``; the module docstring gives the measured agreement).
    """
    c = np.asarray(sample.explicit, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 2:
        raise InvalidParamsError("need a (L >= 2, D) gradient matrix")
    # overflow here surfaces as NonFiniteError downstream (divergence policy)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = c @ c.T
        for f in sample.factors:
            inner += _factor_gram(f)
        upper = np.triu(inner) / c.shape[0]
    return upper + np.triu(upper, 1).T


def _canonical_sample_order(entries: np.ndarray) -> np.ndarray:
    """Permutation making the Gram matrix independent of sample order.

    Samples are sorted by diagonal entry with the sorted row contents as a
    tie-break (both keys are permutation-invariant), so any reordering of the
    gradient samples maps to the same canonical matrix and the spectra below
    come out bitwise identical.
    """
    rows = np.sort(entries, axis=1)
    # np.lexsort is stable and reads its last key as the primary one
    return np.lexsort(np.vstack([rows.T[::-1], np.diag(entries)]))


def k_spectrum(gram: np.ndarray) -> SpectralSummary:
    """Eigen-spectrum of the Gram matrix with the covariance reading applied.

    Eigenvalues are clamped at zero from below (the matrix is PSD up to
    rounding). The largest is the covariance spectral norm; the smallest
    nonzero one is taken as the second-smallest after clamping, discarding
    the single null direction introduced by centering. The conditioning
    ratio is null when the spectral norm is (numerically) zero. Sample order
    is canonicalized first, so summaries do not depend on draw order; the
    eigenvector rows are mapped back to the caller's sample order, so
    ``k_top_eigvecs`` can pair them with the gradient rows as given. Each
    eigenvector's sign is arbitrary (LAPACK's); no reading depends on it.
    """
    order = _canonical_sample_order(gram)
    canonical = gram[np.ix_(order, order)]
    values, vectors = jacobi_eigh(DenseSymmetric.from_array(canonical))
    vectors = vectors[np.argsort(order)]  # rows back in sample order
    clamped = np.maximum(values, 0.0)  # descending
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


def k_top_eigvecs(ks: SpectralSummary, k: int = 5) -> np.ndarray:
    """Top-k covariance eigenvectors in sample coordinates, as the columns
    of an (L, k) matrix W.

    A Gram eigenvector u with eigenvalue λ > 0 maps to the unit ambient
    eigenvector Cᵀu/√(L·λ) of the centered samples C (L x D), so
    W = U_k/√(L·λ_k) stands for those k vectors, and ``grad_subspace_ratio``
    reads g's projection onto them as Wᵀ(C g) without forming them. The
    Gram eigenpairs come from ``ks = k_spectrum(gram_from_gradients(sample))``,
    so the Gram matrix is diagonalized once per set of samples.
    """
    n_samples = ks.gram_eigenvectors.shape[0]
    if k > n_samples - 1:
        raise InvalidParamsError(f"k={k} exceeds L-1={n_samples - 1}")
    # an eigenvalue counts when it clears RANK_TOL both absolutely and as a
    # fraction of λ_K¹: one below that is rounding noise of the Gram matrix,
    # which W's 1/√(L·λ) would blow up
    n_positive = int(np.sum(ks.gram_eigenvalues >= RANK_TOL * max(ks.gram_eigenvalues[0], 1.0)))
    if n_positive < k:
        raise RankDeficientError(f"only {n_positive} positive eigenvalues, need {k}")
    return ks.gram_eigenvectors[:, :k] / np.sqrt(n_samples * ks.gram_eigenvalues[:k])


def _sample_dots(g: np.ndarray, sample: GradientSample) -> np.ndarray:
    """C g: the inner product of each centered sample with g. The explicit
    rows meet g's explicit columns in one product; a factored layer's group
    gradient Aᵀ Δ meets its block W_g of g as Σ_m (a_m W_g)·δ_m, centered
    over the groups afterwards, since the factors are not."""
    explicit = np.ones(g.shape[0], dtype=bool)
    dots = np.zeros(sample.explicit.shape[0])
    for f in sample.factors:
        explicit[f.cols] = False
        block = g[f.cols].reshape(f.inputs.shape[-1], f.deltas.shape[-1])
        products = (_flat(f.inputs) @ block).reshape(f.deltas.shape)
        per_group = np.einsum("lmj,lmj->l", products, f.deltas)
        dots += per_group - per_group.mean()
    dots += sample.explicit @ g[explicit]
    return dots


def grad_subspace_ratio(g: np.ndarray, sample: GradientSample, w: np.ndarray) -> float:
    """Ratio of the gradient norm to the norm of its projection onto the
    covariance eigenvectors that ``w = k_top_eigvecs(...)`` stands for in
    ``sample``'s coordinates; always >= 1 when defined. A norm that
    overflows raises DegenerateProjectionError, as a negligible projection
    does."""
    g = np.asarray(g, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        g_norm = float(np.linalg.norm(g))
        p_norm = float(np.linalg.norm(w.T @ _sample_dots(g, sample)))
    if not (np.isfinite(g_norm) and np.isfinite(p_norm)):
        raise DegenerateProjectionError("gradient or projection norm is not finite")
    if g_norm == 0.0 or p_norm < 1e-12 * g_norm:
        raise DegenerateProjectionError("projection norm is negligible")
    return g_norm / p_norm


def hessian_spectrum(
    spec: MlpSpec,
    theta: np.ndarray,
    eval_subset: Batch,
    seeds: Sequence[int],
    k: int = 5,
    method: str = "auto",
    max_iters: int = 40,
    bn_stats: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Top Hessian eigenvalues, descending, of each row of a (C, D) stack θ,
    via one lockstep Lanczos run (one seed per row) over a Hessian-vector-
    product operator evaluated on a subset of the data; ``method`` is passed
    to ``hessian_operator``, which resolves "auto".

    Returns a (C, min(k, dim, max_iters)) array, bitwise the values of
    ``lanczos_topk`` on the same operator; one stacked product per matvec.
    """
    op = hessian_operator(spec, theta, eval_subset, method=method, bn_stats=bn_stats)
    return lanczos_topk(op, k=min(k, op.dim, max_iters), max_iters=max_iters, seeds=seeds)


def pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Two-pass Pearson correlation; None when either series has zero
    variance (or fewer than two points), or when the spreads overflow."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
        if denom == 0.0 or not np.isfinite(denom):
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
            sample, _ = sample_minibatch_gradients(
                spec, theta, dataset, n_batches, m, seed=derive_seed(seed, t, m)
            )
            series[m][t] = k_spectrum(gram_from_gradients(sample)).lambda_k1
    r = pearson(series[m_values[0]], series[m_values[1]])
    return MSensitivityReport(m_values=m_values, series=series, pearson_r=r)

"""Dense symmetric eigendecomposition and Lanczos iteration.

Everything operates on float64. The two entry points are ``jacobi_eigh``
(full spectrum of a small dense symmetric matrix through LAPACK's ``eigh``,
used both directly on Gram matrices and as the oracle in tests) and
``lanczos_topk`` (top-k eigenpairs of a symmetric operator given only
matrix-vector products, used for Hessian spectra). Each Lanczos step is the
three-term recurrence followed by one classical Gram-Schmidt pass over the
whole basis; a second pass runs only when the Daniel-Gragg-Kaufman-Stewart
(DGKS) test finds that the first removed most of the vector. ``lanczos_topk``
also runs a stack of operators in lockstep, one matvec call per step for all
of them, so the cells of a sweep share each Hessian-vector product pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidKError,
    NoConvergenceError,
    NonFiniteError,
)
from .rng import make_rng

LANCZOS_BREAKDOWN_TOL = 1e-13


@dataclass(frozen=True)
class DenseSymmetric:
    """Row-major dense symmetric matrix, symmetrized at construction."""

    entries: np.ndarray

    @classmethod
    def from_array(cls, a: np.ndarray) -> "DenseSymmetric":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("matrix has NaN or Inf entries")
        sym = (a + a.T) / 2.0
        return cls(entries=sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class LinearOperator:
    """Symmetric operator given by its dimension and a matvec closure.

    Callers are responsible for the symmetry contract
    <u, apply(v)> == <apply(u), v>; tests check it probabilistically.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with orthonormal eigenvectors as columns.

    Sign convention: in each eigenvector the component of largest absolute
    value is positive (ties broken by lowest index), which makes vectors
    unique up to eigenvalue degeneracy.
    """

    eigenvalues: np.ndarray
    # shape (dim, k), column i pairs with eigenvalues[i]; None from
    # lanczos_topk(..., vectors=False)
    eigenvectors: Optional[np.ndarray]


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Negate, in place, each column whose entry of largest absolute value
    (the lowest index on ties) is negative; returns ``vectors``. That entry
    is the column's first max or first min, so no |vectors| copy is made
    (and for columns contiguous in memory, no copy at all)."""
    cols = np.arange(vectors.shape[1])
    hi, lo = vectors.argmax(axis=0), vectors.argmin(axis=0)
    top, neg_bottom = vectors[hi, cols], -vectors[lo, cols]
    vectors *= np.where((neg_bottom > top) | ((neg_bottom == top) & (lo < hi)), -1.0, 1.0)
    return vectors


def _sorted_pairs(values: np.ndarray, vectors: np.ndarray) -> EigenPairs:
    order = np.argsort(-values, kind="stable")
    return EigenPairs(
        eigenvalues=np.ascontiguousarray(values[order]),
        eigenvectors=_canonical_signs(np.ascontiguousarray(vectors[:, order])),
    )


def jacobi_eigh(a: DenseSymmetric) -> EigenPairs:
    """Full eigendecomposition of a dense symmetric matrix.

    LAPACK-backed (``np.linalg.eigh``); the result is returned in the
    package's convention: eigenvalues descending, eigenvector signs fixed by
    ``_canonical_signs``. The name predates the LAPACK solver and is kept
    until the in-package spans (ROADMAP item 5a) let it be renamed without
    losing per-layer metrics. Raises NoConvergenceError when LAPACK reports
    that the decomposition failed to converge.
    """
    try:
        values, vectors = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh failed on a {a.dim}x{a.dim} matrix: {exc}") from exc
    return _sorted_pairs(values, vectors)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of rows (last axis) of ``a`` and ``b``, by
    the BLAS dot that ``a @ b`` runs on one pair of vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of ``v``, computed as
    ``np.linalg.norm`` computes one vector's: the square root of one BLAS
    dot product, so a row's norm is bitwise that of the row alone. A 1-D
    ``v`` gives a 0-d array."""
    return np.sqrt(_row_dots(v, v))


def _project_out(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass, in place: ``v`` minus its projection
    onto the rows of ``basis`` (orthonormal)."""
    v -= basis.T @ (basis @ v)
    return v


def _fresh_start_vector(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Random unit vector orthogonal to the rows of ``basis``, orthogonalized
    as a Lanczos step is: one classical Gram-Schmidt pass, and a second only
    when the DGKS test finds that the first removed most of the draw. Against
    an empty basis the pass subtracts zero, so the first start vector is the
    normalized draw."""
    for _ in range(64):
        v = rng.standard_normal(basis.shape[1])
        drawn = np.linalg.norm(v)
        norm = np.linalg.norm(_project_out(v, basis))
        if norm < drawn / np.sqrt(2.0):
            norm = np.linalg.norm(_project_out(v, basis))
        if norm > 1e-10:
            return v / norm
    raise NoConvergenceError("could not draw a start vector outside the Krylov span")


def _lanczos_basis(
    op: LinearOperator, m: int, seed: Union[int, Sequence[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m Lanczos vectors of ``lanczos_topk``, as the rows of an (m, dim)
    array, and the diagonal and off-diagonal of the tridiagonal they reduce
    ``op`` to. With one seed per cell of a stacked ``op``, each result gains
    a leading cell axis."""
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    apply = (lambda q: np.asarray(op.apply(q[0]), dtype=np.float64)[None]) if single else op.apply
    n = op.dim
    cells = len(seeds)
    rngs = [make_rng(s) for s in seeds]
    Q = np.empty((cells, m, n))
    alphas = np.empty((cells, m))
    betas = np.zeros((cells, m - 1))

    for c, rng in enumerate(rngs):
        Q[c, 0] = _fresh_start_vector(rng, Q[c, :0])
    for j in range(m):
        u = np.asarray(apply(Q[:, j]), dtype=np.float64)
        if u.shape != (cells, n):
            raise DimensionMismatchError(f"operator returned {u.shape} for a ({cells}, {n}) stack of vectors")
        if not np.all(np.isfinite(u)):
            raise NonFiniteError("operator produced NaN or Inf")
        alphas[:, j] = _row_dots(Q[:, j], u)
        if j == m - 1:
            break
        # a new array: the operator may hand back a vector it still holds
        r = u - alphas[:, j, None] * Q[:, j]
        if j > 0:
            r -= betas[:, j - 1, None] * Q[:, j - 1]
        r3_norm = row_norms(r)
        for c in range(cells):
            _project_out(r[c], Q[c, : j + 1])
        beta = row_norms(r)
        for c in np.flatnonzero(beta < r3_norm / np.sqrt(2.0)):
            beta[c] = row_norms(_project_out(r[c], Q[c, : j + 1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(r, beta[:, None], out=Q[:, j + 1])
        for c in np.flatnonzero(beta < LANCZOS_BREAKDOWN_TOL):
            beta[c] = 0.0
            Q[c, j + 1] = _fresh_start_vector(rngs[c], Q[c, : j + 1])
        betas[:, j] = beta
    return (Q[0], alphas[0], betas[0]) if single else (Q, alphas, betas)


def _ritz_pairs(Q: np.ndarray, alphas: np.ndarray, betas: np.ndarray, k: int, vectors: bool) -> EigenPairs:
    """Top-k Ritz pairs of one Lanczos basis and its tridiagonal; without
    ``vectors`` only the Ritz values, and no D x k block is formed."""
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    ritz = jacobi_eigh(DenseSymmetric.from_array(T))
    if not vectors:
        return EigenPairs(eigenvalues=ritz.eigenvalues[:k], eigenvectors=None)
    ambient = Q.T @ ritz.eigenvectors[:, :k]
    ambient /= np.linalg.norm(ambient, axis=0, keepdims=True)
    return EigenPairs(eigenvalues=ritz.eigenvalues[:k], eigenvectors=_canonical_signs(ambient))


def lanczos_topk(
    op: LinearOperator, k: int, max_iters: int, seed: Union[int, Sequence[int]], vectors: bool = True
) -> Union[EigenPairs, list[EigenPairs]]:
    """Top-k algebraically largest eigenpairs via Lanczos with full
    reorthogonalization.

    Builds an m-step Krylov tridiagonal, m = min(max_iters, dim), from a
    seeded random start vector. Each step forms the three-term residual
    r₃ = u - α_j q_j - β_{j-1} q_{j-1} (u = op(q_j)) and makes one classical
    Gram-Schmidt pass against every previous Lanczos vector; a second pass
    runs only when the first removed most of the residual (the
    Daniel-Gragg-Kaufman-Stewart test ‖r‖ < ‖r₃‖/√2), which keeps the basis
    orthonormal to rounding in float64. On breakdown (residual norm below
    ``LANCZOS_BREAKDOWN_TOL``) the iteration restarts with a fresh random
    vector orthogonal to the converged subspace, drawn under the same pass
    and DGKS test, leaving a zero coupling in the tridiagonal; if the
    space is exhausted the spectrum found so far is exact. The tridiagonal
    is diagonalized densely by LAPACK (``jacobi_eigh``) and Ritz vectors are
    mapped back to the ambient space. With ``vectors=False`` that last
    product is skipped and ``eigenvectors`` is None: the eigenvalues are
    bitwise those of the default call.

    ``seed`` may instead be a sequence, one seed per cell of a stacked
    operator whose ``apply`` maps a (C, dim) stack of vectors to their C
    images in one call. The cells then run in lockstep: each step makes one
    stacked matvec, and every other quantity stays per cell (start vector,
    α, β, DGKS pass, breakdown restart), with each cell's arithmetic
    bitwise that of a run on its own. The result is then a list with one
    EigenPairs per cell.
    """
    n = op.dim
    if k < 1 or k > n or k > max_iters:
        raise InvalidKError(f"k={k} must satisfy 1 <= k <= min(dim={n}, max_iters={max_iters})")
    Q, alphas, betas = _lanczos_basis(op, min(max_iters, n), seed)
    if np.ndim(seed) == 0:
        return _ritz_pairs(Q, alphas, betas, k, vectors)
    return [_ritz_pairs(*cell, k, vectors) for cell in zip(Q, alphas, betas)]


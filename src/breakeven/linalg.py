"""Dense symmetric eigendecomposition and Lanczos iteration.

Everything operates on float64. The two entry points are ``jacobi_eigh``
(full spectrum of a small dense symmetric matrix through LAPACK's ``eigh``,
used both directly on Gram matrices and as the oracle in tests) and
``lanczos_topk`` (top-k eigenpairs of a symmetric operator given only
matrix-vector products, used for Hessian spectra).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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

    @classmethod
    def from_dense(cls, a: DenseSymmetric) -> "LinearOperator":
        entries = a.entries
        return cls(dim=a.dim, apply=lambda v: entries @ v)


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with orthonormal eigenvectors as columns.

    Sign convention: in each eigenvector the component of largest absolute
    value is positive (ties broken by lowest index), which makes vectors
    unique up to eigenvalue degeneracy.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (dim, k), column i pairs with eigenvalues[i]


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    # np.argmax picks the first occurrence of the max, i.e. the lowest index on ties
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


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


def _orthogonalize(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``v`` minus its projection onto the rows of ``basis`` (orthonormal),
    by classical Gram-Schmidt applied twice, which suffices in float64."""
    v = v - basis.T @ (basis @ v)
    return v - basis.T @ (basis @ v)


def _fresh_start_vector(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Random unit vector orthogonal to the rows of ``basis``."""
    for _ in range(64):
        v = _orthogonalize(rng.standard_normal(basis.shape[1]), basis)
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            return v / norm
    raise NoConvergenceError("could not draw a start vector outside the Krylov span")


def lanczos_topk(op: LinearOperator, k: int, max_iters: int, seed: int) -> EigenPairs:
    """Top-k algebraically largest eigenpairs via Lanczos with full
    reorthogonalization.

    Builds an m-step Krylov tridiagonal, m = min(max_iters, dim), from a
    seeded random start vector. The Lanczos vectors are the rows of an
    (m, dim) basis, and one helper (``_orthogonalize``) removes each new
    vector's components along all previous rows, both in the iteration and
    when drawing a restart vector. On breakdown (residual norm below 1e-13)
    the iteration restarts with a fresh random vector orthogonal to the
    converged subspace, leaving a zero coupling in the tridiagonal; if the
    space is exhausted the spectrum found so far is exact. The tridiagonal is
    diagonalized densely by LAPACK (``jacobi_eigh``) and Ritz vectors are
    mapped back to the ambient space.
    """
    n = op.dim
    if k < 1 or k > n or k > max_iters:
        raise InvalidKError(f"k={k} must satisfy 1 <= k <= min(dim={n}, max_iters={max_iters})")
    m = min(max_iters, n)

    rng = make_rng(seed)
    Q = np.zeros((m, n))
    alphas = np.zeros(m)
    betas = np.zeros(m - 1)

    Q[0] = _fresh_start_vector(rng, Q[:0])
    for j in range(m):
        u = np.asarray(op.apply(Q[j]), dtype=np.float64)
        if u.shape != (n,):
            raise DimensionMismatchError(f"operator returned shape {u.shape}, expected ({n},)")
        if not np.all(np.isfinite(u)):
            raise NonFiniteError("operator produced NaN or Inf")
        alphas[j] = Q[j] @ u
        if j == m - 1:
            break
        r = _orthogonalize(u, Q[: j + 1])
        beta = float(np.linalg.norm(r))
        if beta < LANCZOS_BREAKDOWN_TOL:
            Q[j + 1] = _fresh_start_vector(rng, Q[: j + 1])
        else:
            betas[j] = beta
            Q[j + 1] = r / beta

    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    ritz = jacobi_eigh(DenseSymmetric.from_array(T))
    vectors = Q.T @ ritz.eigenvectors[:, :k]
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    return EigenPairs(eigenvalues=ritz.eigenvalues[:k], eigenvectors=_canonical_signs(vectors))


def project_onto_subspace(v: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection of ``v`` onto the span of the basis columns.

    Returns ``(projection, residual)`` with ``projection + residual == v``.
    The basis columns must be mutually orthonormal (within 1e-8); this is a
    caller contract, not re-checked here.
    """
    v = np.asarray(v, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim == 1:
        basis = basis[:, None]
    if basis.ndim != 2 or v.ndim != 1 or basis.shape[0] != v.shape[0]:
        raise DimensionMismatchError(
            f"vector of dim {v.shape} does not match basis of shape {basis.shape}"
        )
    projection = basis @ (basis.T @ v)
    return projection, v - projection

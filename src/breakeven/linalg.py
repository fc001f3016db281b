"""Dense symmetric eigendecomposition and Lanczos iteration.

Everything operates on float64. The two entry points are ``jacobi_eigh``
(full spectrum of a small dense symmetric matrix through LAPACK's ``eigh``,
returned as the pair of descending eigenvalues and their eigenvectors, with
the signs LAPACK gives; used both directly on Gram matrices and as the
oracle in tests) and
``lanczos_topk`` (top-k eigenvalues of a symmetric operator given only
matrix-vector products, used for Hessian spectra). ``lanczos_topk`` runs a
stack of operators in lockstep, one matvec call per step for all of them,
so the cells of a sweep share each Hessian-vector product pass. Each Lanczos
step is the three-term recurrence followed by one classical Gram-Schmidt pass
over the cell's whole basis; a second pass runs only when the
Daniel-Gragg-Kaufman-Stewart (DGKS) test finds that the first removed most
of the vector. Only Ritz values are returned: no dim x k Ritz-vector block is
formed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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


def jacobi_eigh(a: DenseSymmetric) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a dense symmetric matrix.

    LAPACK-backed (``np.linalg.eigh``). Returns ``(eigenvalues,
    eigenvectors)``: the eigenvalues descending (a stable sort, so equal ones
    keep LAPACK's order) and the orthonormal eigenvectors as the columns of a
    (dim, dim) array, column i paired with eigenvalue i. Each vector's sign is
    whatever LAPACK leaves; no caller reads it. The name predates the LAPACK
    solver and is kept until the in-package spans (ROADMAP item 5a) let it be
    renamed without losing per-layer metrics. Raises NoConvergenceError when
    LAPACK reports that the decomposition failed to converge.
    """
    try:
        values, vectors = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh failed on a {a.dim}x{a.dim} matrix: {exc}") from exc
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


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
    op: LinearOperator, m: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m Lanczos vectors of ``lanczos_topk`` for each cell, as a
    (C, m, dim) array, and the (C, m) diagonals and (C, m - 1)
    off-diagonals of the tridiagonals they reduce each cell of ``op`` to."""
    n = op.dim
    cells = len(seeds)
    rngs = [make_rng(s) for s in seeds]
    Q = np.empty((cells, m, n))
    alphas = np.empty((cells, m))
    betas = np.zeros((cells, m - 1))

    for c, rng in enumerate(rngs):
        Q[c, 0] = _fresh_start_vector(rng, Q[c, :0])
    for j in range(m):
        u = np.asarray(op.apply(Q[:, j]), dtype=np.float64)
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
    return Q, alphas, betas


def lanczos_topk(op: LinearOperator, k: int, max_iters: int, seeds: Sequence[int]) -> np.ndarray:
    """Top-k algebraically largest eigenvalues of each cell of a stacked
    symmetric operator, via Lanczos with full reorthogonalization.

    ``op.apply`` maps a (C, dim) stack of vectors to their C images in one
    call; ``seeds`` holds one seed per cell. The cells run in lockstep: each
    step makes one stacked matvec, and every other quantity stays per cell
    (start vector, α, β, DGKS pass, breakdown restart), so each cell's
    arithmetic is bitwise that of a one-cell run. Per cell, the iteration
    builds an m-step Krylov tridiagonal, m = min(max_iters, dim), from a
    seeded random start vector. Each step forms the three-term residual
    r₃ = u - α_j q_j - β_{j-1} q_{j-1} (u = op(q_j)) and makes one classical
    Gram-Schmidt pass against every previous Lanczos vector; a second pass
    runs only when the first removed most of the residual (the
    Daniel-Gragg-Kaufman-Stewart test ‖r‖ < ‖r₃‖/√2), which keeps the basis
    orthonormal to rounding in float64. On breakdown (residual norm below
    ``LANCZOS_BREAKDOWN_TOL``) the iteration restarts with a fresh random
    vector orthogonal to the converged subspace, drawn under the same pass
    and DGKS test, leaving a zero coupling in the tridiagonal; if the
    space is exhausted the spectrum found so far is exact. Each tridiagonal
    is diagonalized densely by LAPACK (``jacobi_eigh``). Returns the (C, k)
    Ritz values, each row descending.
    """
    n = op.dim
    if k < 1 or k > n or k > max_iters:
        raise InvalidKError(f"k={k} must satisfy 1 <= k <= min(dim={n}, max_iters={max_iters})")
    _, alphas, betas = _lanczos_basis(op, min(max_iters, n), seeds)
    return np.stack([
        jacobi_eigh(DenseSymmetric.from_array(np.diag(a) + np.diag(b, 1) + np.diag(b, -1)))[0][:k]
        for a, b in zip(alphas, betas)
    ])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breakeven.errors import (
    DimensionMismatchError,
    InvalidKError,
    NoConvergenceError,
    NonFiniteError,
)
from breakeven.linalg import (
    DenseSymmetric,
    LinearOperator,
    jacobi_eigh,
    lanczos_topk,
    project_onto_subspace,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


class TestJacobi:
    def test_diagonal_case(self):
        ep = jacobi_eigh(DenseSymmetric.from_array(np.diag([1.0, 2.0, 3.0])))
        assert np.array_equal(ep.eigenvalues, [3.0, 2.0, 1.0])
        expected = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(ep.eigenvectors, expected)

    def test_2x2_closed_form(self):
        ep = jacobi_eigh(DenseSymmetric.from_array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(ep.eigenvalues, [3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_and_reconstruction(self, seed):
        a = random_symmetric(8, seed)
        ep = jacobi_eigh(DenseSymmetric.from_array(a))
        fro = np.linalg.norm(a)
        for lam, v in zip(ep.eigenvalues, ep.eigenvectors.T):
            assert np.linalg.norm(a @ v - lam * v) < 1e-10 * max(1.0, fro)
        recon = ep.eigenvectors @ np.diag(ep.eigenvalues) @ ep.eigenvectors.T
        assert np.linalg.norm(recon - a) < 1e-9

    def test_orthonormality_and_sign_convention(self):
        a = random_symmetric(12, 7)
        ep = jacobi_eigh(DenseSymmetric.from_array(a))
        gram = ep.eigenvectors.T @ ep.eigenvectors
        assert np.allclose(np.diag(gram), 1.0, atol=1e-10)
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-8
        for v in ep.eigenvectors.T:
            assert v[np.argmax(np.abs(v))] > 0

    def test_non_finite_rejected(self):
        bad = np.eye(3)
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            DenseSymmetric.from_array(bad)

    def test_zero_matrix(self):
        ep = jacobi_eigh(DenseSymmetric.from_array(np.zeros((4, 4))))
        assert np.array_equal(ep.eigenvalues, np.zeros(4))

    def test_symmetrization_at_construction(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        ds = DenseSymmetric.from_array(a)
        assert np.array_equal(ds.entries, ds.entries.T)
        assert ds.entries[0, 1] == 1.0

    def test_lapack_failure_is_typed(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NoConvergenceError, match="did not converge"):
            jacobi_eigh(DenseSymmetric.from_array(np.eye(3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10**6))
    def test_trace_preservation(self, n, seed):
        a = random_symmetric(n, seed)
        ep = jacobi_eigh(DenseSymmetric.from_array(a))
        tr = np.trace(a)
        assert abs(np.sum(ep.eigenvalues) - tr) < 1e-9 * max(1.0, abs(tr))


class TestLanczos:
    def test_diagonal_dominant(self):
        op = LinearOperator.from_dense(DenseSymmetric.from_array(np.diag([5.0, 3.0, 1.0])))
        ep = lanczos_topk(op, k=1, max_iters=3, seed=0)
        assert abs(ep.eigenvalues[0] - 5.0) < 1e-10
        assert np.allclose(np.abs(ep.eigenvectors[:, 0]), [1.0, 0.0, 0.0], atol=1e-8)
        assert ep.eigenvectors[0, 0] > 0

    def test_identity_breakdown_path(self):
        op = LinearOperator(dim=10, apply=lambda v: v.copy())
        ep = lanczos_topk(op, k=1, max_iters=10, seed=3)
        assert abs(ep.eigenvalues[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_jacobi_top5(self, seed):
        a = random_symmetric(50, 100 + seed)
        dense = DenseSymmetric.from_array(a)
        top = jacobi_eigh(dense).eigenvalues[:5]
        ep = lanczos_topk(LinearOperator.from_dense(dense), k=5, max_iters=50, seed=seed)
        assert np.max(np.abs(ep.eigenvalues - top)) < 1e-8

    def test_ritz_bound_full_iterations(self):
        a = random_symmetric(30, 11)
        dense = DenseSymmetric.from_array(a)
        lam1 = jacobi_eigh(dense).eigenvalues[0]
        ritz1 = lanczos_topk(LinearOperator.from_dense(dense), k=1, max_iters=30, seed=5).eigenvalues[0]
        assert ritz1 <= lam1 + 1e-8
        assert ritz1 >= lam1 - 1e-6

    def test_determinism_bitwise(self):
        a = random_symmetric(20, 13)
        op = LinearOperator.from_dense(DenseSymmetric.from_array(a))
        e1 = lanczos_topk(op, k=3, max_iters=20, seed=99)
        e2 = lanczos_topk(op, k=3, max_iters=20, seed=99)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_invalid_k(self):
        op = LinearOperator(dim=4, apply=lambda v: v)
        with pytest.raises(InvalidKError):
            lanczos_topk(op, k=5, max_iters=10, seed=0)
        with pytest.raises(InvalidKError):
            lanczos_topk(op, k=3, max_iters=2, seed=0)

    def test_degenerate_spectrum_with_restarts(self):
        # two-fold degenerate top eigenvalue; restarts must still find k pairs
        a = np.diag([4.0, 4.0, 1.0, 0.5, 0.1])
        op = LinearOperator.from_dense(DenseSymmetric.from_array(a))
        ep = lanczos_topk(op, k=3, max_iters=5, seed=2)
        assert np.allclose(ep.eigenvalues, [4.0, 4.0, 1.0], atol=1e-9)

    def test_restart_ritz_vectors_orthonormal(self):
        # a rank-2 projector exhausts each Krylov space within a few steps:
        # nine of the twelve Lanczos vectors come from restart draws
        basis, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((12, 2)))
        p = basis @ basis.T
        ep = lanczos_topk(LinearOperator.from_dense(DenseSymmetric.from_array(p)), k=4, max_iters=12, seed=1)
        v = ep.eigenvectors
        assert np.allclose(ep.eigenvalues, [1.0, 1.0, 0.0, 0.0], atol=1e-10)
        assert np.max(np.abs(v.T @ v - np.eye(4))) <= 1e-10
        assert np.max(np.abs(p @ v - v * ep.eigenvalues)) <= 1e-10


class TestProjection:
    def test_in_span(self):
        b = np.array([[1.0], [0.0], [0.0]])
        v = np.array([2.5, 0.0, 0.0])
        proj, res = project_onto_subspace(v, b)
        assert np.allclose(proj, v, atol=1e-12)
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_orthogonal(self):
        b = np.array([[1.0], [0.0]])
        v = np.array([0.0, 3.0])
        proj, res = project_onto_subspace(v, b)
        assert np.allclose(proj, 0.0, atol=1e-12)
        assert np.allclose(res, v, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_pythagoras(self, seed):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((20, 5)))
        v = rng.standard_normal(20)
        proj, res = project_onto_subspace(v, basis)
        assert np.allclose(proj + res, v, atol=1e-12)
        assert abs(np.dot(proj, proj) + np.dot(res, res) - np.dot(v, v)) < 1e-10
        assert np.max(np.abs(basis.T @ res)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project_onto_subspace(np.ones(3), np.eye(4))


def test_operator_symmetry_contract_from_dense():
    a = random_symmetric(16, 21)
    op = LinearOperator.from_dense(DenseSymmetric.from_array(a))
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        lhs = np.dot(u, op.apply(v))
        rhs = np.dot(op.apply(u), v)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

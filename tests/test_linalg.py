import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breakeven import linalg
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
)


def dense_operator(a):
    """A symmetric matrix as a stacked operator: each row of a (C, n) stack
    maps to its product with ``a``."""
    return LinearOperator(dim=a.shape[0], apply=lambda vs: vs @ a)


def lanczos_one(op, k, max_iters, seed):
    """``lanczos_topk`` on a one-cell stack: that cell's k Ritz values."""
    return lanczos_topk(op, k, max_iters, [seed])[0]


def ritz_vectors(Q, alphas, betas, k):
    """The top-k ambient Ritz vectors of one cell's Lanczos basis, as
    columns: Qᵀ times the tridiagonal's top eigenvectors, normalized."""
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    ambient = Q.T @ jacobi_eigh(DenseSymmetric.from_array(t))[1][:, :k]
    return ambient / np.linalg.norm(ambient, axis=0)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


class TestJacobi:
    def test_diagonal_case(self):
        values, vectors = jacobi_eigh(DenseSymmetric.from_array(np.diag([1.0, 2.0, 3.0])))
        assert np.array_equal(values, [3.0, 2.0, 1.0])
        expected = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(vectors, expected)

    def test_2x2_closed_form(self):
        values, _ = jacobi_eigh(DenseSymmetric.from_array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(values, [3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_and_reconstruction(self, seed):
        a = random_symmetric(8, seed)
        values, vectors = jacobi_eigh(DenseSymmetric.from_array(a))
        fro = np.linalg.norm(a)
        for lam, v in zip(values, vectors.T):
            assert np.linalg.norm(a @ v - lam * v) < 1e-10 * max(1.0, fro)
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(recon - a) < 1e-9

    def test_orthonormality(self):
        a = random_symmetric(12, 7)
        _, vectors = jacobi_eigh(DenseSymmetric.from_array(a))
        gram = vectors.T @ vectors
        assert np.allclose(np.diag(gram), 1.0, atol=1e-10)
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-8

    def test_non_finite_rejected(self):
        bad = np.eye(3)
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            DenseSymmetric.from_array(bad)

    def test_zero_matrix(self):
        values, _ = jacobi_eigh(DenseSymmetric.from_array(np.zeros((4, 4))))
        assert np.array_equal(values, np.zeros(4))

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
        values, _ = jacobi_eigh(DenseSymmetric.from_array(a))
        tr = np.trace(a)
        assert abs(np.sum(values) - tr) < 1e-9 * max(1.0, abs(tr))


class TestLanczos:
    def test_diagonal_dominant(self):
        op = dense_operator(np.diag([5.0, 3.0, 1.0]))
        assert abs(lanczos_one(op, k=1, max_iters=3, seed=0)[0] - 5.0) < 1e-10
        Q, alphas, betas = linalg._lanczos_basis(op, 3, [0])
        v = ritz_vectors(Q[0], alphas[0], betas[0], 1)
        assert np.allclose(np.abs(v[:, 0]), [1.0, 0.0, 0.0], atol=1e-8)

    def test_identity_breakdown_path(self):
        op = LinearOperator(dim=10, apply=lambda vs: vs.copy())
        assert abs(lanczos_one(op, k=1, max_iters=10, seed=3)[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_jacobi_top5(self, seed):
        a = random_symmetric(50, 100 + seed)
        dense = DenseSymmetric.from_array(a)
        top = jacobi_eigh(dense)[0][:5]
        ritz = lanczos_one(dense_operator(dense.entries), k=5, max_iters=50, seed=seed)
        assert np.max(np.abs(ritz - top)) < 1e-8

    def test_ritz_bound_full_iterations(self):
        a = random_symmetric(30, 11)
        dense = DenseSymmetric.from_array(a)
        lam1 = jacobi_eigh(dense)[0][0]
        ritz1 = lanczos_one(dense_operator(dense.entries), k=1, max_iters=30, seed=5)[0]
        assert ritz1 <= lam1 + 1e-8
        assert ritz1 >= lam1 - 1e-6

    def test_determinism_bitwise(self):
        a = random_symmetric(20, 13)
        op = dense_operator(a)
        e1 = lanczos_one(op, k=3, max_iters=20, seed=99)
        assert np.array_equal(e1, lanczos_one(op, k=3, max_iters=20, seed=99))
        for a, b in zip(linalg._lanczos_basis(op, 20, [99]), linalg._lanczos_basis(op, 20, [99])):
            assert np.array_equal(a, b)

    def test_invalid_k(self):
        op = LinearOperator(dim=4, apply=lambda vs: vs)
        with pytest.raises(InvalidKError):
            lanczos_one(op, k=5, max_iters=10, seed=0)
        with pytest.raises(InvalidKError):
            lanczos_one(op, k=3, max_iters=2, seed=0)

    def test_degenerate_spectrum_with_restarts(self):
        # two-fold degenerate top eigenvalue; restarts must still find k pairs
        a = np.diag([4.0, 4.0, 1.0, 0.5, 0.1])
        op = dense_operator(a)
        assert np.allclose(lanczos_one(op, k=3, max_iters=5, seed=2), [4.0, 4.0, 1.0], atol=1e-9)

    def test_restart_ritz_vectors_orthonormal(self):
        # a rank-2 projector exhausts each Krylov space within a few steps:
        # nine of the twelve Lanczos vectors come from restart draws
        basis, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((12, 2)))
        p = basis @ basis.T
        values = lanczos_one(dense_operator(p), k=4, max_iters=12, seed=1)
        Q, alphas, betas = linalg._lanczos_basis(dense_operator(p), 12, [1])
        v = ritz_vectors(Q[0], alphas[0], betas[0], 4)
        assert np.allclose(values, [1.0, 1.0, 0.0, 0.0], atol=1e-10)
        assert np.max(np.abs(v.T @ v - np.eye(4))) <= 1e-10
        assert np.max(np.abs(p @ v - v * values)) <= 1e-10


def orthonormality_error(rows):
    return float(np.max(np.abs(rows @ rows.T - np.eye(rows.shape[0]))))


class TestSinglePassReorthogonalization:
    @pytest.fixture
    def passes(self, monkeypatch):
        """Basis sizes of every Gram-Schmidt pass made, start draws included."""
        calls = []
        real = linalg._project_out

        def counted(v, basis):
            calls.append(basis.shape[0])
            return real(v, basis)

        monkeypatch.setattr(linalg, "_project_out", counted)
        return calls

    def test_one_pass_per_step_keeps_basis_orthonormal(self, passes):
        dense = DenseSymmetric.from_array(random_symmetric(80, 21))
        op = dense_operator(dense.entries)
        (Q,), (alphas,), (betas,) = linalg._lanczos_basis(op, 30, [4])
        # one pass draws the start vector, then one per step and no restart
        assert passes == [0] + list(range(1, 30))
        assert np.all(betas > linalg.LANCZOS_BREAKDOWN_TOL)
        assert orthonormality_error(Q) <= 1e-10
        assert orthonormality_error(ritz_vectors(Q, alphas, betas, 5).T) <= 1e-10

    def test_restart_case_basis_and_ritz_vectors_orthonormal(self):
        basis, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((12, 2)))
        op = dense_operator(basis @ basis.T)
        (Q,), (alphas,), (betas,) = linalg._lanczos_basis(op, 12, [1])
        assert np.count_nonzero(betas == 0.0) >= 5  # restarts leave zero couplings
        assert orthonormality_error(Q) <= 1e-10
        assert orthonormality_error(ritz_vectors(Q, alphas, betas, 4).T) <= 1e-10

    def test_dgks_second_pass_restores_orthogonality(self, passes):
        # a large non-symmetric rank-one term puts most of each three-term
        # residual back along old Lanczos vectors, so the first pass removes
        # most of its norm and the DGKS test asks for a second
        rng = np.random.default_rng(7)
        s = random_symmetric(60, 8)
        e, f = rng.standard_normal(60), rng.standard_normal(60)
        op = LinearOperator(dim=60, apply=lambda vs: vs @ s + 1e3 * (vs @ f)[:, None] * e)
        (Q,), _, (betas,) = linalg._lanczos_basis(op, 20, [0])
        assert np.all(betas > linalg.LANCZOS_BREAKDOWN_TOL)
        second = len(passes) - 1 - 19
        assert second >= 10
        assert orthonormality_error(Q) <= 1e-10

    @pytest.mark.parametrize("case", range(5))
    def test_single_pass_agrees_with_dense_eigh(self, case, passes):
        # criterion 05's setting: a full 50-step Krylov space of a 50x50 matrix
        a = np.random.default_rng(500 + case).standard_normal((50, 50))
        dense = DenseSymmetric.from_array((a + a.T) / 2)
        top5 = jacobi_eigh(dense)[0][:5]
        ritz = lanczos_one(dense_operator(dense.entries), k=5, max_iters=50, seed=case)
        assert len(passes) == 1 + 49
        assert np.max(np.abs(ritz - top5)) <= 1e-8


class TestStackedLanczos:
    """Cells run in lockstep over a stacked operator: one matvec call per
    step, everything else per cell."""

    @staticmethod
    def stacked(matrices, calls=None):
        def apply(vs):
            if calls is not None:
                calls.append(vs.shape)
            return np.stack([a @ v for a, v in zip(matrices, vs)])

        return LinearOperator(dim=matrices[0].shape[0], apply=apply)

    def test_each_cell_matches_its_own_run(self):
        matrices = [random_symmetric(40, 300 + c) for c in range(3)]
        seeds = [7, 8, 7]
        calls = []
        values = lanczos_topk(self.stacked(matrices, calls), k=4, max_iters=25, seeds=seeds)
        assert calls == [(3, 40)] * 25
        assert values.shape == (3, 4)
        for a, seed, row in zip(matrices, seeds, values):
            assert np.array_equal(row, lanczos_one(self.stacked([a]), k=4, max_iters=25, seed=seed))

    def test_only_one_cell_breaks_down_and_restarts(self):
        # the rank-2 projector exhausts its Krylov space and restarts; the
        # random matrices beside it never break down
        basis, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((12, 2)))
        matrices = [random_symmetric(12, 40), basis @ basis.T, random_symmetric(12, 41)]
        seeds = [3, 1, 5]
        Q, alphas, betas = linalg._lanczos_basis(self.stacked(matrices), 12, seeds)
        assert Q.shape == (3, 12, 12) and alphas.shape == (3, 12) and betas.shape == (3, 11)
        assert np.count_nonzero(betas[1] == 0.0) >= 5
        assert np.all(betas[[0, 2]] > linalg.LANCZOS_BREAKDOWN_TOL)
        values = lanczos_topk(self.stacked(matrices), k=4, max_iters=12, seeds=seeds)
        for c, (a, seed) in enumerate(zip(matrices, seeds)):
            op = self.stacked([a])
            (q,), _, (be,) = linalg._lanczos_basis(op, 12, [seed])
            assert np.array_equal(Q[c], q) and np.array_equal(betas[c], be)
            assert np.array_equal(values[c], lanczos_one(op, k=4, max_iters=12, seed=seed))
            assert orthonormality_error(Q[c]) <= 1e-10
        assert np.allclose(values[1], [1.0, 1.0, 0.0, 0.0], atol=1e-10)

    def test_dgks_pass_of_one_cell_leaves_the_others_bitwise_alone(self):
        # the non-symmetric rank-one term makes the DGKS test fire in cell 0
        # (as in test_dgks_second_pass_restores_orthogonality); cell 1 never
        # needs a second pass, and its basis is bitwise that of its own run
        rng = np.random.default_rng(7)
        s, e, f = random_symmetric(60, 8), rng.standard_normal(60), rng.standard_normal(60)
        b = random_symmetric(60, 9)
        ops = [lambda v: s @ v + 1e3 * e * (f @ v), lambda v: b @ v]
        stacked = LinearOperator(dim=60, apply=lambda vs: np.stack([op(v) for op, v in zip(ops, vs)]))
        Q, alphas, betas = linalg._lanczos_basis(stacked, 20, [0, 0])
        for c, op in enumerate(ops):
            alone = LinearOperator(dim=60, apply=lambda vs: op(vs[0])[None])
            (q,), (al,), (be,) = linalg._lanczos_basis(alone, 20, [0])
            assert np.array_equal(Q[c], q) and np.array_equal(alphas[c], al) and np.array_equal(betas[c], be)

    def test_wrong_stack_shape_rejected(self):
        op = LinearOperator(dim=5, apply=lambda vs: vs[:1])
        with pytest.raises(DimensionMismatchError):
            lanczos_topk(op, k=1, max_iters=3, seeds=[0, 1])

    @staticmethod
    def poisoned(cells, step, bad, calls):
        """A stack of random symmetric operators whose output at ``step``
        holds ``bad`` in one entry of one row."""
        matrices = [random_symmetric(12, 60 + c) for c in range(cells)]

        def apply(vs):
            u = np.stack([a @ v for a, v in zip(matrices, vs)])
            if len(calls) == step:
                u[cells // 2, 5] = bad
            calls.append(vs.shape)
            return u

        return LinearOperator(dim=12, apply=apply)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("step", [0, 4])
    def test_non_finite_operator_output_raises_at_its_step(self, bad, cells, step):
        calls = []
        with pytest.raises(NonFiniteError):
            lanczos_topk(self.poisoned(cells, step, bad, calls), k=2, max_iters=8, seeds=range(cells))
        # raised where α was read, before another matvec
        assert len(calls) == step + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_where_the_lanczos_vector_is_zero_raises(self, bad, monkeypatch):
        # q_0 = e_0 has a zero at the bad entry: 0·Inf is NaN, not a warning
        monkeypatch.setattr(linalg, "_fresh_start_vector", lambda rng, basis: np.eye(basis.shape[1])[0])
        calls = []
        with pytest.raises(NonFiniteError):
            lanczos_topk(self.poisoned(1, 0, bad, calls), k=2, max_iters=8, seeds=[0])
        assert len(calls) == 1

    def test_row_norms_are_bitwise_vector_norms(self):
        rows = np.random.default_rng(2).standard_normal((4, 1000))
        norms = linalg.row_norms(rows)
        assert all(norms[i] == np.linalg.norm(rows[i]) for i in range(4))
        assert linalg.row_norms(rows[0]) == np.linalg.norm(rows[0])


def test_operator_symmetry_contract_from_dense():
    a = random_symmetric(16, 21)
    op = dense_operator(a)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal((1, 16))
        v = rng.standard_normal((1, 16))
        lhs = np.vdot(u, op.apply(v))
        rhs = np.vdot(op.apply(u), v)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

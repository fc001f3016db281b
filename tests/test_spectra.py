import numpy as np
import pytest

from breakeven import spectra
from breakeven.errors import (
    DegenerateProjectionError,
    InsufficientCheckpointsError,
    InsufficientDataError,
    RankDeficientError,
)
from breakeven.linalg import DenseSymmetric, jacobi_eigh
from breakeven.netmodel import (
    Batch,
    MlpSpec,
    bn_batch_statistics,
    grad,
    grouped_grad_factors,
    init_params,
)
from breakeven.rng import make_rng
from breakeven.spectra import (
    GradientSample,
    grad_subspace_ratio,
    gram_from_gradients,
    hessian_spectrum,
    k_spectrum,
    factor_form_layers,
    k_top_eigvecs,
    m_sensitivity_report,
    pearson,
    sample_minibatch_gradients,
)


def dense_covariance_eigs(grads, gbar):
    centered = grads - gbar
    cov = centered.T @ centered / grads.shape[0]
    return jacobi_eigh(DenseSymmetric.from_array(cov))[0]


def random_grads(L, D, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((L, D))
    return g, g.mean(axis=0)


class TestGram:
    def test_identical_gradients_zero_matrix(self):
        g = np.tile(np.arange(4.0), (3, 1))
        gram = gram_from_gradients(GradientSample(g - g.mean(axis=0)))
        assert np.array_equal(gram, np.zeros((3, 3)))

    def test_antipodal_pair_hand_computation(self):
        v = np.array([1.0, 2.0, -1.0])
        g = np.vstack([v, -v])
        gram = gram_from_gradients(GradientSample(g))
        nsq = float(v @ v)
        expected = np.array([[nsq / 2, -nsq / 2], [-nsq / 2, nsq / 2]])
        assert np.allclose(gram, expected, atol=1e-14)
        eigs = jacobi_eigh(DenseSymmetric.from_array(gram))[0]
        assert np.allclose(eigs, [nsq, 0.0], atol=1e-12)

    def test_exact_symmetry(self):
        g, gbar = random_grads(6, 40, 0)
        gram = gram_from_gradients(GradientSample(g - gbar))
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_spectrum_matches_dense_covariance(self, seed):
        rng = np.random.default_rng(seed)
        L, D = rng.integers(3, 8), rng.integers(10, 41)
        g, gbar = random_grads(int(L), int(D), 100 + seed)
        gram = gram_from_gradients(GradientSample(g - gbar))
        gram_eigs = jacobi_eigh(DenseSymmetric.from_array(gram))[0]
        dense_eigs = dense_covariance_eigs(g, gbar)
        k = min(len(gram_eigs), len(dense_eigs))
        assert np.max(np.abs(gram_eigs[:k][gram_eigs[:k] > 1e-12] - dense_eigs[: np.sum(gram_eigs[:k] > 1e-12)])) < 1e-10

    def test_peak_memory_below_one_gradient_block(self, traced_peak):
        g, gbar = random_grads(40, 65536, 6)  # 21 MB
        centered = g - gbar
        _, peak = traced_peak(lambda: gram_from_gradients(GradientSample(centered)))
        assert peak < 0.25 * g.nbytes

    def test_row_sums_vanish_with_sample_mean(self):
        g, gbar = random_grads(8, 30, 3)
        gram = gram_from_gradients(GradientSample(g - gbar))
        fro = np.linalg.norm(gram)
        assert np.max(np.abs(gram.sum(axis=1))) < 1e-10 * max(fro, 1.0)


class TestKSpectrum:
    def test_zero_gram(self):
        summary = k_spectrum(np.zeros((4, 4)))
        assert summary.lambda_k1 == 0.0
        assert summary.lambda_k_star == 0.0
        assert summary.trace_k == 0.0
        assert summary.cond_ratio is None

    def test_isotropic_nonzero_block(self):
        # eigenvalues {0, 2, 2, 2}
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
        a = q @ np.diag([0.0, 2.0, 2.0, 2.0]) @ q.T
        summary = k_spectrum((a + a.T) / 2)
        assert summary.lambda_k1 == pytest.approx(2.0, abs=1e-10)
        assert summary.lambda_k_star == pytest.approx(2.0, abs=1e-10)
        assert summary.cond_ratio == pytest.approx(1.0, abs=1e-9)
        assert summary.trace_k == pytest.approx(6.0, abs=1e-10)

    def test_trace_identity(self):
        g, gbar = random_grads(7, 25, 9)
        gram = gram_from_gradients(GradientSample(g - gbar))
        summary = k_spectrum(gram)
        assert summary.trace_k == pytest.approx(np.sum(summary.gram_eigenvalues), rel=1e-9)
        # (1/L) sum ||g_i - gbar||^2 equals the trace by construction
        total = np.sum((g - gbar) ** 2) / g.shape[0]
        assert summary.trace_k == pytest.approx(total, rel=1e-12)

    def test_ordering_invariants(self):
        g, gbar = random_grads(9, 30, 5)
        summary = k_spectrum(gram_from_gradients(GradientSample(g - gbar)))
        nonzero = summary.gram_eigenvalues[summary.gram_eigenvalues > 1e-12]
        assert summary.lambda_k_star <= np.mean(nonzero) <= summary.lambda_k1
        assert 0 < summary.cond_ratio <= 1

    def test_permutation_invariance_bitwise(self):
        g, gbar = random_grads(6, 20, 7)
        perm = np.random.default_rng(0).permutation(6)
        a = k_spectrum(gram_from_gradients(GradientSample(g - gbar)))
        b = k_spectrum(gram_from_gradients(GradientSample(g[perm] - gbar)))
        assert np.array_equal(a.gram_eigenvalues, b.gram_eigenvalues)
        assert a.lambda_k1 == b.lambda_k1
        assert a.trace_k == b.trace_k


def top_subspace(centered, k):
    """The ambient top-k covariance eigenvectors Cᵀw that ``k_top_eigvecs``
    stands for, formed here as a D x k block, with the sample and its w."""
    sample = GradientSample(centered)
    w = k_top_eigvecs(k_spectrum(gram_from_gradients(sample)), k=k)
    return centered.T @ w, sample, w


def dense_ratio(centered, g, k):
    """‖g‖ over the norm of its projection onto the top-k eigenvectors of
    the dense D x D covariance, from ``np.linalg.eigh``."""
    _, vectors = np.linalg.eigh(centered.T @ centered / centered.shape[0])
    top = vectors[:, ::-1][:, :k]
    return np.linalg.norm(g) / np.linalg.norm(top.T @ g)


class TestTopEigvecs:
    def test_antipodal_single_direction(self):
        v = np.array([3.0, 4.0, 0.0])
        vecs, _, w = top_subspace(np.vstack([v, -v]), k=1)
        assert w.shape == (2, 1)
        assert np.allclose(np.abs(vecs[:, 0]), np.abs(v) / 5.0, atol=1e-12)

    def test_ambient_eigen_residual_vs_dense(self):
        g, gbar = random_grads(8, 50, 11)
        centered = g - gbar
        vecs, sample, w = top_subspace(centered, k=5)
        assert w.shape == (8, 5)
        cov = centered.T @ centered / g.shape[0]
        eigs = k_spectrum(gram_from_gradients(sample)).gram_eigenvalues[:5]
        for lam, v in zip(eigs, vecs.T):
            assert np.linalg.norm(cov @ v - lam * v) < 1e-8
        assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) < 1e-12

    def test_duplicated_sample_spectrum_consistent(self):
        g, _ = random_grads(5, 30, 13)
        g = np.vstack([g, g[0]])  # duplicate one sample
        gbar = g.mean(axis=0)
        gram = gram_from_gradients(GradientSample(g - gbar))
        gram_eigs = k_spectrum(gram).gram_eigenvalues
        dense = dense_covariance_eigs(g, gbar)
        nz = gram_eigs[gram_eigs > 1e-12]
        assert np.max(np.abs(nz - dense[: nz.size])) < 1e-10

    def test_shuffled_sample_order_gives_same_vectors(self):
        g, gbar = random_grads(10, 40, 17)
        perm = np.random.default_rng(3).permutation(10)
        a, sample_a, w_a = top_subspace(g - gbar, k=4)
        b, sample_b, w_b = top_subspace(g[perm] - gbar, k=4)
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)
        grad_now = np.random.default_rng(4).standard_normal(40)
        ratio_a = grad_subspace_ratio(grad_now, sample_a, w_a)
        assert grad_subspace_ratio(grad_now, sample_b, w_b) == pytest.approx(ratio_a, rel=1e-13)

    def test_gram_eigenvectors_reconstruct_gram(self):
        g, gbar = random_grads(9, 30, 19)
        gram = gram_from_gradients(GradientSample(g - gbar))
        summary = k_spectrum(gram)
        vecs = summary.gram_eigenvectors
        recon = vecs @ np.diag(summary.gram_eigenvalues) @ vecs.T
        assert np.max(np.abs(recon - gram)) < 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(9))) < 1e-12

    def test_g_ratio_stage_peaks_below_one_eigenvector_block(self, traced_peak):
        g, gbar = random_grads(40, 65536, 24)  # 21 MB
        sample = GradientSample(g - gbar)
        ks = k_spectrum(gram_from_gradients(sample))
        grad_now = g[0].copy()
        _, peak = traced_peak(lambda: grad_subspace_ratio(grad_now, sample, k_top_eigvecs(ks, k=5)))
        # the D x 5 block of ambient eigenvectors is never formed
        assert peak < 65536 * 5 * 8

    @pytest.mark.parametrize("factored", [False, True])
    def test_negating_any_eigenvector_column_leaves_readings_bitwise(self, factored, monkeypatch):
        # jacobi_eigh leaves each vector's sign to LAPACK; negating column j of
        # W negates entry j of Wᵀ(C g) exactly, so no reading may move
        if factored:
            spec = MlpSpec(layer_sizes=(3, 16, 12, 2), activation="tanh", seed=3)
            rng = np.random.default_rng(7)
            theta = init_params(spec) + 0.3 * rng.standard_normal(spec.param_dim)
            data = Batch(inputs=rng.standard_normal((40, 3)), labels=rng.integers(0, 2, size=40))
            sample, _ = sample_minibatch_gradients(spec, theta, data, 6, 3, seed=11)
            assert sample.factors
            grad_now = grad(spec, theta, data.subset(np.arange(8)))
        else:
            g, gbar = random_grads(8, 30, 23)
            sample, grad_now = GradientSample(g - gbar), g[0].copy()
        gram = gram_from_gradients(sample)
        n, k = gram.shape[0], gram.shape[0] - 1

        def readings():
            ks = k_spectrum(gram)
            ratio = grad_subspace_ratio(grad_now, sample, k_top_eigvecs(ks, k=k))
            return ks, (ks.lambda_k1, ks.lambda_k_star, ks.trace_k, ks.cond_ratio, ratio)

        ref_ks, ref = readings()
        real = spectra.jacobi_eigh
        for j in range(n):
            def flipped(a, j=j):
                values, vectors = real(a)
                vectors[:, j] = -vectors[:, j]
                return values, vectors

            monkeypatch.setattr(spectra, "jacobi_eigh", flipped)
            ks, got = readings()
            assert got == ref
            assert np.array_equal(ks.gram_eigenvalues, ref_ks.gram_eigenvalues)
            signs = np.where(np.arange(n) == j, -1.0, 1.0)
            assert np.array_equal(ks.gram_eigenvectors * signs, ref_ks.gram_eigenvectors)

    def test_rank_deficient(self):
        v = np.array([1.0, 0.0])
        g = np.vstack([v, -v, v, -v])
        gram = gram_from_gradients(GradientSample(g))
        with pytest.raises(RankDeficientError):
            k_top_eigvecs(k_spectrum(gram), k=2)

    def test_rank_is_relative_to_the_top_eigenvalue(self):
        # Gram eigenvalues a²/2 = 5e19 and b²/2 = 5e-7: the second clears the
        # absolute RANK_TOL but is 1e-26 of the first, so it does not count
        a, b = 1e10, 1e-3
        g = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
        ks = k_spectrum(gram_from_gradients(GradientSample(g)))
        assert ks.gram_eigenvalues[1] > spectra.RANK_TOL
        assert k_top_eigvecs(ks, k=1).shape == (4, 1)
        with pytest.raises(RankDeficientError):
            k_top_eigvecs(ks, k=2)


class TestSubspaceRatio:
    @staticmethod
    def ratio(centered, g, k):
        _, sample, w = top_subspace(centered, k)
        return grad_subspace_ratio(g, sample, w)

    def test_in_span_gives_one(self):
        g, gbar = random_grads(4, 10, 2)
        centered = g - gbar
        in_span = centered.T @ np.array([1.0, -2.0, 0.5, 0.0])
        assert self.ratio(centered, in_span, k=3) == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees_gives_sqrt2(self):
        v = np.array([1.0, 0.0])
        assert self.ratio(np.vstack([v, -v]), np.array([1.0, 1.0]), k=1) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_dense_covariance_eigh(self, k):
        g, gbar = random_grads(7, 20, 4)
        grad_now = np.random.default_rng(5).standard_normal(20)
        expected = dense_ratio(g - gbar, grad_now, k)
        assert self.ratio(g - gbar, grad_now, k) == pytest.approx(expected, rel=1e-10)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(6)
        g, gbar = random_grads(6, 15, 6)
        _, sample, w = top_subspace(g - gbar, k=4)
        for _ in range(20):
            assert grad_subspace_ratio(rng.standard_normal(15), sample, w) >= 1.0

    def test_orthogonal_gradient_degenerate(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(DegenerateProjectionError):
            self.ratio(np.vstack([v, -v]), np.array([0.0, 1.0]), k=1)

    def test_overflowing_norm_degenerate(self):
        # ‖g‖ overflows to inf: the ratio is undefined, not inf/inf or 0
        g, gbar = random_grads(6, 15, 8)
        _, sample, w = top_subspace(g - gbar, k=3)
        with pytest.raises(DegenerateProjectionError):
            grad_subspace_ratio(np.full(15, 1e200), sample, w)


class TestSampleMinibatchGradients:
    def test_full_batch_size_gives_identical_gradients_and_zero_gram(self):
        spec = MlpSpec(layer_sizes=(3, 6, 2), activation="tanh", seed=2)
        theta = init_params(spec)
        rng = np.random.default_rng(3)
        data = Batch(inputs=rng.standard_normal((12, 3)), labels=rng.integers(0, 2, size=12))
        sample, gbar = sample_minibatch_gradients(spec, theta, data, n_batches=4, batch_size=12, seed=0)
        assert np.allclose(sample.explicit, sample.explicit[0], atol=1e-15)
        gram = gram_from_gradients(sample)
        assert np.max(np.abs(gram)) < 1e-20

    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_equals_one_grad_call_per_drawn_batch(self, batch_norm):
        # the reference: one make_rng(seed).choice draw, then one grad call,
        # per minibatch
        spec = MlpSpec(layer_sizes=(3, 6, 2), batch_norm=batch_norm, seed=2)
        theta = init_params(spec)
        rng = np.random.default_rng(4)
        data = Batch(inputs=rng.standard_normal((30, 3)), labels=rng.integers(0, 2, size=30))
        for bn_stats in (None, bn_batch_statistics(spec, theta, data)):
            sample, gbar = sample_minibatch_gradients(spec, theta, data, 7, 5, seed=9, bn_stats=bn_stats)
            draw = make_rng(9)
            expected = np.stack(
                [grad(spec, theta, data.subset(draw.choice(30, size=5, replace=False)), bn_stats) for _ in range(7)]
            )
            assert sample.factors == ()
            assert np.array_equal(sample.explicit, expected - expected.mean(axis=0))
            assert np.array_equal(gbar, expected.mean(axis=0))

    def test_centers_in_place_without_a_second_block(self, traced_peak):
        # the peak of the draw's own grouped_grad_factors call, plus the mean
        # and one more row: a centered copy of the explicit block would not fit
        spec = MlpSpec(layer_sizes=(10, 256, 256, 10), batch_norm=True, seed=1)
        theta = init_params(spec)
        rng = np.random.default_rng(5)
        data = Batch(inputs=rng.standard_normal((64, 10)), labels=rng.integers(0, 10, size=64))

        def draw_only():
            draw = make_rng(3)
            groups = np.stack([draw.choice(64, size=8, replace=False) for _ in range(40)])
            return grouped_grad_factors(spec, theta, data, groups, factor_form_layers(spec, 40, 8))

        (raw, _), grads_peak = traced_peak(draw_only)
        (sample, gbar), peak = traced_peak(lambda: sample_minibatch_gradients(spec, theta, data, 40, 8, seed=3))
        assert np.array_equal(sample.explicit, raw - raw.mean(axis=0))
        assert peak <= grads_peak + 2 * gbar.nbytes

    def test_oversized_batch_rejected(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), seed=0)
        data = Batch(inputs=np.zeros((3, 2)), labels=np.array([0, 1, 0]))
        with pytest.raises(InsufficientDataError):
            sample_minibatch_gradients(spec, init_params(spec), data, 3, 4, seed=0)

    def test_sample_mean_is_unbiased_for_full_gradient(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), activation="tanh", seed=5)
        theta = init_params(spec)
        rng = np.random.default_rng(8)
        data = Batch(inputs=rng.standard_normal((24, 2)), labels=rng.integers(0, 2, size=24))
        exact = grad(spec, theta, data)
        means = np.zeros_like(exact)
        n_seeds = 300
        for s in range(n_seeds):
            _, gbar = sample_minibatch_gradients(spec, theta, data, n_batches=4, batch_size=6, seed=s)
            means += gbar
        means /= n_seeds
        # per-coordinate sampling std of the estimate, within 4 sigma
        spread = np.std(
            [sample_minibatch_gradients(spec, theta, data, 4, 6, seed=1000 + s)[1] for s in range(50)],
            axis=0,
        )
        tol = 4.0 * (spread / np.sqrt(n_seeds) + 1e-12)
        assert np.all(np.abs(means - exact) <= tol)


class TestFactorForm:
    """The factored covariance stage against the explicit per-group block
    from ``grouped_grad_factors`` (no layer factored) on the same draw, read by the explicit path."""

    L, M = 6, 3

    @staticmethod
    def rel(a, b):
        return np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b))

    def case(self, layer_sizes, activation, loss, bn):
        spec = MlpSpec(layer_sizes=layer_sizes, activation=activation, batch_norm=bn != "none",
                       loss=loss, seed=3)
        rng = np.random.default_rng(7)
        theta = init_params(spec) + 0.3 * rng.standard_normal(spec.param_dim)
        n, classes = 40, layer_sizes[-1]
        y = rng.integers(0, classes, size=n) if loss == "softmax_cross_entropy" else rng.standard_normal((n, classes))
        data = Batch(inputs=rng.standard_normal((n, layer_sizes[0])), labels=y)
        mode = bn_batch_statistics(spec, theta, data) if bn == "frozen" else None
        return spec, theta, data, mode

    def oracle(self, spec, theta, data, mode, seed):
        draw = make_rng(seed)
        groups = np.stack([draw.choice(data.size, size=self.M, replace=False) for _ in range(self.L)])
        block = grouped_grad_factors(spec, theta, data, groups, (), mode)[0]
        return GradientSample(block - block.mean(axis=0))

    def test_layer_choice_reads_shapes_only(self):
        # desk: every layer explicit; the wide BN net: its 256 x 256 layer only
        assert factor_form_layers(MlpSpec(layer_sizes=(2, 32, 32, 2)), 40, 8) == ()
        assert factor_form_layers(MlpSpec(layer_sizes=(10, 256, 256, 10), batch_norm=True), 40, 8) == (1,)
        # the test shapes below: L = 6, M = 3 factors a layer of more than 108 weights
        assert factor_form_layers(MlpSpec(layer_sizes=(3, 16, 12, 2)), self.L, self.M) == (1,)
        assert factor_form_layers(MlpSpec(layer_sizes=(12, 10, 4, 30)), self.L, self.M) == (0, 2)

    @pytest.mark.parametrize("layer_sizes", [(3, 16, 12, 2), (12, 10, 4, 30)])
    @pytest.mark.parametrize("bn", ["none", "frozen", "batch_stats"])
    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_readings_equal_the_explicit_block(self, activation, loss, bn, layer_sizes):
        spec, theta, data, mode = self.case(layer_sizes, activation, loss, bn)
        sample, _ = sample_minibatch_gradients(spec, theta, data, self.L, self.M, seed=11, bn_stats=mode)
        assert len(sample.factors) == len(factor_form_layers(spec, self.L, self.M)) > 0
        explicit = self.oracle(spec, theta, data, mode, seed=11)
        gram, gram_ref = gram_from_gradients(sample), gram_from_gradients(explicit)
        assert self.rel(gram, gram_ref) <= 1e-10
        ks, ks_ref = k_spectrum(gram), k_spectrum(gram_ref)
        for field in ("lambda_k1", "lambda_k_star", "trace_k", "cond_ratio"):
            assert abs(getattr(ks, field) - getattr(ks_ref, field)) <= 1e-10 * abs(getattr(ks_ref, field))
        g = grad(spec, theta, data.subset(np.arange(8)), mode)
        ratio = grad_subspace_ratio(g, sample, k_top_eigvecs(ks, k=3))
        ratio_ref = grad_subspace_ratio(g, explicit, k_top_eigvecs(ks_ref, k=3))
        assert abs(ratio - ratio_ref) <= 1e-10 * ratio_ref

    @pytest.mark.parametrize("layer_sizes, n_factored", [((3, 16, 12, 2), 1), ((3, 5, 4, 2), 0)])
    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_g_ratio_equals_dense_covariance_eigh(self, activation, loss, layer_sizes, n_factored):
        # the oracle: eigh of the dense D x D covariance of the drawn groups'
        # grouped_grad_factors rows
        spec, theta, data, mode = self.case(layer_sizes, activation, loss, "none")
        sample, _ = sample_minibatch_gradients(spec, theta, data, self.L, self.M, seed=5, bn_stats=mode)
        assert len(sample.factors) == n_factored
        g = grad(spec, theta, data.subset(np.arange(8)), mode)
        ratio = grad_subspace_ratio(g, sample, k_top_eigvecs(k_spectrum(gram_from_gradients(sample)), k=3))
        expected = dense_ratio(self.oracle(spec, theta, data, mode, seed=5).explicit, g, k=3)
        assert abs(ratio - expected) <= 1e-10 * expected

    def test_rank_deficient_sample_still_raises(self):
        spec, theta, _, _ = self.case((3, 16, 12, 2), "tanh", "mse", "none")
        one = Batch(inputs=np.ones((4, 3)), labels=np.zeros((4, 2)))
        sample, _ = sample_minibatch_gradients(spec, theta, one, self.L, self.M, seed=0)
        assert sample.factors
        with pytest.raises(RankDeficientError):
            k_top_eigvecs(k_spectrum(gram_from_gradients(sample)), k=2)

    def test_covariance_stage_peaks_below_one_gradient_block(self, traced_peak):
        spec = MlpSpec(layer_sizes=(10, 256, 256, 10), batch_norm=True, loss="mse", seed=1)
        theta = init_params(spec)
        rng = np.random.default_rng(5)
        data = Batch(inputs=rng.standard_normal((64, 10)), labels=rng.standard_normal((64, 10)))
        frozen = bn_batch_statistics(spec, theta, data)

        g = grad(spec, theta, data.subset(np.arange(8)), frozen)

        def stage():
            sample, _ = sample_minibatch_gradients(spec, theta, data, 40, 8, seed=3, bn_stats=frozen)
            ks = k_spectrum(gram_from_gradients(sample))
            return grad_subspace_ratio(g, sample, k_top_eigvecs(ks, k=5))

        ratio, peak = traced_peak(stage)
        assert ratio >= 1.0
        assert peak < 40 * spec.param_dim * 8

    def test_g_ratio_stage_peaks_below_one_eigenvector_block(self, traced_peak):
        spec = MlpSpec(layer_sizes=(10, 256, 256, 10), batch_norm=True, loss="mse", seed=1)
        theta = init_params(spec)
        rng = np.random.default_rng(5)
        data = Batch(inputs=rng.standard_normal((64, 10)), labels=rng.standard_normal((64, 10)))
        frozen = bn_batch_statistics(spec, theta, data)
        g = grad(spec, theta, data.subset(np.arange(8)), frozen)
        sample, _ = sample_minibatch_gradients(spec, theta, data, 40, 8, seed=3, bn_stats=frozen)
        assert sample.factors
        ks = k_spectrum(gram_from_gradients(sample))
        ratio, peak = traced_peak(lambda: grad_subspace_ratio(g, sample, k_top_eigvecs(ks, k=5)))
        assert ratio >= 1.0
        # one D x 5 float64 block of ambient eigenvectors would not fit
        assert peak < spec.param_dim * 5 * 8


class TestHessianSpectrum:
    def test_linear_mse_matches_analytic(self):
        spec = MlpSpec(layer_sizes=(2, 1), loss="mse")
        theta = np.array([0.3, -0.7, 0.1])
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 2))
        data = Batch(inputs=x, labels=np.zeros((6, 1)))
        xb = np.hstack([x, np.ones((6, 1))])  # (w1, w2, b) design
        analytic = 2.0 * xb.T @ xb / 6.0
        lam = jacobi_eigh(DenseSymmetric.from_array(analytic))[0]
        hs = hessian_spectrum(spec, theta[None], data, [1], k=3, max_iters=3)
        assert hs.shape == (1, 3)
        assert np.max(np.abs(hs[0] - lam)) < 1e-8

    def test_loss_scaling_scales_eigenvalues(self):
        from breakeven.linalg import LinearOperator, lanczos_topk
        from breakeven.netmodel import hessian_operator

        spec = MlpSpec(layer_sizes=(2, 5, 3), activation="tanh", seed=4)
        theta = init_params(spec)
        rng = np.random.default_rng(1)
        data = Batch(inputs=rng.standard_normal((10, 2)), labels=rng.integers(0, 3, size=10))
        base = hessian_spectrum(spec, theta[None], data, [2], k=3, max_iters=30)[0]
        op = hessian_operator(spec, theta[None], data)
        scaled = LinearOperator(dim=op.dim, apply=lambda v: 3.0 * op.apply(v))
        top = lanczos_topk(scaled, k=3, max_iters=30, seeds=[2])[0]
        assert np.max(np.abs(top - 3.0 * base)) < 1e-8 * max(1.0, top[0])

    def test_pearlmutter_vs_fd_top_eigenvalue(self):
        spec = MlpSpec(layer_sizes=(3, 8, 3), activation="relu", seed=6)
        theta = init_params(spec)
        rng = np.random.default_rng(2)
        data = Batch(inputs=rng.standard_normal((20, 3)), labels=rng.integers(0, 3, size=20))
        a = hessian_spectrum(spec, theta[None], data, [3], k=1, method="auto", max_iters=30)[0]
        b = hessian_spectrum(spec, theta[None], data, [3], k=1, method="fd", max_iters=30)[0]
        assert abs(a[0] - b[0]) < 1e-3 * abs(a[0])

    @pytest.mark.parametrize(
        "layer_sizes, k, max_iters",
        [((2, 5, 3), 5, 30), ((2, 5, 3), 5, 3), ((2, 1), 5, 40)],
    )
    def test_returns_descending_array_of_effective_k(self, layer_sizes, k, max_iters):
        spec = MlpSpec(layer_sizes=layer_sizes, activation="tanh", loss="mse", seed=4)
        theta = init_params(spec)
        rng = np.random.default_rng(5)
        n = 8
        data = Batch(inputs=rng.standard_normal((n, 2)), labels=rng.standard_normal((n, layer_sizes[-1])))
        lam = hessian_spectrum(spec, theta[None], data, [1], k=k, max_iters=max_iters)
        assert isinstance(lam, np.ndarray)
        assert lam.shape == (1, min(k, theta.size, max_iters))
        assert np.all(np.diff(lam) <= 0.0)


    @pytest.mark.parametrize("stacked", [False, True])
    def test_values_are_lanczos_eigenvalues_bitwise(self, stacked):
        # one cell on a shared batch, or two cells with a batch each
        from breakeven.linalg import lanczos_topk
        from breakeven.netmodel import hessian_operator

        spec = MlpSpec(layer_sizes=(3, 8, 3), activation="tanh", seed=6)
        rng = np.random.default_rng(4)
        theta = init_params(spec) + 0.2 * rng.standard_normal((2 if stacked else 1, spec.param_dim))
        shape = (2, 12) if stacked else (12,)
        data = Batch(inputs=rng.standard_normal(shape + (3,)), labels=rng.integers(0, 3, size=shape))
        seeds = [5, 9] if stacked else [5]
        lam = hessian_spectrum(spec, theta, data, seeds, k=4, max_iters=20)
        assert np.array_equal(lam, lanczos_topk(hessian_operator(spec, theta, data), k=4, max_iters=20, seeds=seeds))


class TestPearsonAndMSensitivity:
    def test_pearson_formula(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.0, 4.0, 6.0, 8.0])
        assert pearson(x, y) == pytest.approx(1.0, abs=1e-15)
        assert pearson(x, -y) == pytest.approx(-1.0, abs=1e-15)
        assert pearson(x, np.ones(4)) is None

    def test_pearson_overflowing_spread_gives_null(self):
        # Σ(x − x̄)² overflows: r is not readable, so it is null, not −0.0
        x = np.array([0.0, 1e200, 3e200, -2e200])
        assert pearson(x, np.array([1.0, 2.0, 4.0, 3.0])) is None
        assert pearson(np.array([1.0, 2.0, 4.0, 3.0]), x) is None

    def test_report_constant_series_gives_null(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), activation="tanh", seed=1)
        theta = init_params(spec)
        one = np.array([[0.5, -0.5]])
        data = Batch(inputs=np.repeat(one, 8, axis=0), labels=np.zeros(8, dtype=np.int64))
        thetas = [theta] * 10
        report = m_sensitivity_report(spec, thetas, data, seed=0, m_values=(1, 4), samples_times_batch=8)
        assert report.pearson_r is None

    def test_report_needs_ten_checkpoints(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), seed=1)
        data = Batch(inputs=np.zeros((8, 2)), labels=np.zeros(8, dtype=np.int64))
        with pytest.raises(InsufficientCheckpointsError):
            m_sensitivity_report(spec, [init_params(spec)] * 5, data, seed=0, m_values=(1, 4))

import numpy as np
import pytest

from breakeven import netmodel
from breakeven.errors import (
    BnUnsupportedError,
    DimensionMismatchError,
    InvalidParamsError,
    NoBnLayerError,
    NonFiniteError,
    ZeroDirectionError,
)
from breakeven.linalg import DenseSymmetric, LinearOperator, jacobi_eigh, lanczos_topk
from breakeven.netmodel import (
    MSE,
    Batch,
    MlpSpec,
    bn_batch_statistics,
    bn_gamma_norm,
    forward_loss,
    grad,
    grouped_grad_factors,
    hessian_operator,
    hvp_fd,
    hvp_pearlmutter,
    init_bn_stats,
    init_params,
)


def grouped_grads(spec, theta, batch, groups, bn_stats=None):
    """Reference: one mean-gradient row per group, no layer left as factors."""
    return grouped_grad_factors(spec, theta, batch, groups, (), bn_stats)[0]


def hvp(spec, theta, batch, v):
    """The exact product at (θ, batch), linearized for this one direction."""
    return hvp_pearlmutter(spec, theta, batch, v, netmodel.linearize(spec, theta, batch))


def fd_grad(spec, theta, batch, bn_stats=None):
    g = np.zeros_like(theta)
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        tp = theta.copy()
        tp[j] += h
        tm = theta.copy()
        tm[j] -= h
        lp = forward_loss(spec, tp, batch, bn_stats).mean_loss
        lm = forward_loss(spec, tm, batch, bn_stats).mean_loss
        g[j] = (lp - lm) / (2 * h)
    return g


def max_rel_err(a, b):
    denom = np.maximum.reduce([np.ones_like(a), np.abs(a), np.abs(b)])
    return float(np.max(np.abs(a - b) / denom))


def tiny_identity_net():
    return MlpSpec(layer_sizes=(1, 1), loss=MSE)


# spec/batch matrix reused by gradient and HVP checks
def spec_matrix():
    rng = np.random.default_rng(2024)
    combos = [
        (a, l, b)
        for a in ("relu", "tanh")
        for l in ("softmax_cross_entropy", "mse")
        for b in (False, True)
    ]
    cases = []
    for i, (activation, loss, bn) in enumerate(combos):
        spec = MlpSpec(
            layer_sizes=(3, 6, 5, 4),
            activation=activation,
            batch_norm=bn,
            loss=loss,
            seed=1000 + i,
        )
        x = rng.standard_normal((7, 3))
        if loss == "softmax_cross_entropy":
            labels = rng.integers(0, 4, size=7)
        else:
            labels = rng.standard_normal((7, 4))
        cases.append((spec, Batch(inputs=x, labels=labels)))
    return cases


class TestSpecAndParams:
    def test_layout_and_dim(self):
        spec = MlpSpec(layer_sizes=(2, 3, 2), batch_norm=True)
        # W1(6)+b1(3)+gamma(3)+beta(3) + W2(6)+b2(2)
        assert spec.param_dim == 23

    def test_init_deterministic_bitwise(self):
        spec = MlpSpec(layer_sizes=(4, 8, 3), seed=77)
        assert np.array_equal(init_params(spec), init_params(spec))

    def test_init_gain_defaults(self):
        relu = MlpSpec(layer_sizes=(100, 50, 2), activation="relu", seed=0)
        tanh = MlpSpec(layer_sizes=(100, 50, 2), activation="tanh", seed=0)
        w_relu = init_params(relu)[relu.layout()[0]["w"]]
        w_tanh = init_params(tanh)[tanh.layout()[0]["w"]]
        assert np.std(w_relu) == pytest.approx(np.sqrt(2.0 / 100), rel=0.1)
        assert np.std(w_tanh) == pytest.approx(np.sqrt(1.0 / 100), rel=0.1)

    def test_ce_needs_two_classes(self):
        with pytest.raises(InvalidParamsError):
            MlpSpec(layer_sizes=(3, 4, 1))

    def test_labels_out_of_range(self):
        spec = MlpSpec(layer_sizes=(2, 4, 3))
        with pytest.raises(InvalidParamsError):
            forward_loss(spec, init_params(spec), Batch(inputs=[[0.0, 0.0]], labels=[5]))


class TestForwardLoss:
    def test_zero_params_softmax_gives_log_c(self):
        spec = MlpSpec(layer_sizes=(4, 8, 3), activation="tanh")
        theta = np.zeros(spec.param_dim)
        batch = Batch(inputs=np.ones((5, 4)), labels=np.array([0, 1, 2, 0, 1]))
        res = forward_loss(spec, theta, batch)
        assert np.allclose(res.per_example, np.log(3.0), atol=1e-15)

    def test_identity_net_mse_hand_computation(self):
        res = forward_loss(tiny_identity_net(), np.array([1.0, 0.0]), Batch(inputs=[[1.0]], labels=[[2.0]]))
        assert res.mean_loss == 1.0
        assert res.per_example[0] == 1.0

    def test_mean_matches_kahan_summation(self):
        spec = MlpSpec(layer_sizes=(5, 16, 4), activation="tanh", seed=5)
        rng = np.random.default_rng(5)
        batch = Batch(inputs=rng.standard_normal((64, 5)), labels=rng.integers(0, 4, size=64))
        res = forward_loss(spec, init_params(spec), batch)
        total, comp = 0.0, 0.0
        for v in res.per_example:
            y = v - comp
            t = total + y
            comp = (t - total) - y
            total = t
        kahan_mean = total / len(res.per_example)
        assert res.mean_loss == pytest.approx(kahan_mean, rel=1e-12)

    def test_accuracy_tie_breaks_to_lowest_class(self):
        spec = MlpSpec(layer_sizes=(2, 2), loss=MSE)
        theta = np.zeros(spec.param_dim)  # logits all zero: argmax -> class 0
        batch = Batch(inputs=[[1.0, 1.0], [2.0, 0.5]], labels=np.array([[1.0, 0.0], [0.0, 1.0]]))
        res = forward_loss(spec, theta, batch)
        assert res.accuracy == 0.5

    def test_overflow_raises_nonfinite(self):
        spec = MlpSpec(layer_sizes=(1, 1), loss=MSE)
        theta = np.array([1e200, 1e200])
        with pytest.raises(NonFiniteError):
            forward_loss(spec, theta, Batch(inputs=[[1e200]], labels=[[0.0]]))

    def test_overflowing_mean_raises_nonfinite(self):
        # 1,600 finite per-example losses near 1e305 sum past the float range
        losses = np.linspace(1.2e305, 1.4e305, 1600)
        batch = Batch(inputs=np.sqrt(losses)[:, None], labels=np.zeros((1600, 1)))
        assert np.all(np.isfinite(batch.inputs[:, 0] ** 2))
        with pytest.raises(NonFiniteError):
            forward_loss(tiny_identity_net(), np.array([1.0, 0.0]), batch)

    @staticmethod
    def reference_logits(spec, theta, x, bn_stats):
        """The forward pass written as whole-array expressions, each step a
        fresh array: z = a @ w + b, x̂ = (z − μ)·inv, y = γ·x̂ + β, then the
        activation."""
        acts = {"relu": lambda y: np.maximum(y, 0.0), "tanh": np.tanh, "identity": lambda y: y}
        a = x
        for entry in spec.layout():
            w = theta[..., entry["w"]].reshape(theta.shape[:-1] + (entry["fan_in"], entry["fan_out"]))
            z = a @ w + theta[..., None, entry["b"]]
            if entry["layer"] == spec.n_hidden:
                return z
            y = z
            if "gamma" in entry:
                if bn_stats is None:
                    mu, var = z.mean(axis=-2), z.var(axis=-2)
                else:
                    mu, var = bn_stats[..., entry["mean"]], bn_stats[..., entry["var"]]
                inv = 1.0 / np.sqrt(var[..., None, :] + netmodel.BN_EPS)
                xhat = (z - mu[..., None, :]) * inv
                y = theta[..., None, entry["gamma"]] * xhat + theta[..., None, entry["beta"]]
            a = acts[spec.activation[entry["layer"]]](y)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("bn", ["none", "frozen", "batch_stats"])
    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_in_place_pass_is_bitwise_the_array_formula(self, activation, loss, bn, stacked):
        spec = MlpSpec(layer_sizes=(4, 9, 7, 3), activation=activation, batch_norm=bn != "none",
                       loss=loss, seed=8)
        rng = np.random.default_rng(9)
        lead = (3,) if stacked else ()
        theta = init_params(spec) + 0.3 * rng.standard_normal(lead + (spec.param_dim,))
        x = rng.standard_normal(lead + (10, 4))
        if loss == "softmax_cross_entropy":
            y = rng.integers(0, 3, size=lead + (10,))
        else:
            y = rng.standard_normal(lead + (10, 3))
        stats = None
        if bn == "frozen":
            stats = init_bn_stats(spec) + rng.uniform(0.0, 0.5, lead + (spec.stats_dim,))
        res = forward_loss(spec, theta, Batch(inputs=x, labels=y), stats)
        want = netmodel._per_example_loss(spec, self.reference_logits(spec, theta, x, stats), y)
        assert res.per_example.shape == lead + (10,)
        assert np.array_equal(res.per_example, want)


class TestForwardLossBlocks:
    """Independent rows are evaluated in blocks of B rows; B is set by the
    widest layer, 256 here."""

    CELLS = 3

    @staticmethod
    def block_rows():
        return netmodel.FORWARD_BLOCK_BYTES // (8 * 256)

    @staticmethod
    def case(loss, activation, bn, n):
        spec = MlpSpec(layer_sizes=(4, 256, 9, 3), activation=activation, batch_norm=bn != "none",
                       loss=loss, seed=3)
        rng = np.random.default_rng(n)
        cells = TestForwardLossBlocks.CELLS
        thetas = init_params(spec) + 0.3 * rng.standard_normal((cells, spec.param_dim))
        x = rng.standard_normal((cells, n, 4))
        if loss == "softmax_cross_entropy":
            y = rng.integers(0, 3, size=(cells, n))
        else:
            y = rng.standard_normal((cells, n, 3))
        batch = Batch(inputs=x, labels=y)
        mode = bn_batch_statistics(spec, thetas, batch) if bn == "frozen" else None
        return spec, thetas, batch, mode

    @staticmethod
    def whole_batch(spec, theta, batch, mode):
        logits, _, _ = netmodel._forward(spec, theta, batch.inputs, mode)
        per_example = netmodel._per_example_loss(spec, logits, batch.labels)
        labels = batch.labels
        if not np.issubdtype(labels.dtype, np.integer):
            labels = np.argmax(labels, axis=-1)
        return per_example, (np.argmax(logits, axis=-1) == labels).mean(axis=-1)

    @pytest.mark.parametrize("offset", ["1", "B-1", "B", "B+1", "2B+3"])
    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("bn", ["none", "frozen"])
    def test_blocks_match_one_whole_batch_pass(self, offset, loss, activation, bn):
        b = self.block_rows()
        n = {"1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "2B+3": 2 * b + 3}[offset]
        spec, thetas, batch, mode = self.case(loss, activation, bn, n)
        res = forward_loss(spec, thetas, batch, mode)
        per_example, accuracy = self.whole_batch(spec, thetas, batch, mode)
        assert res.per_example.shape == (self.CELLS, n)
        assert np.max(np.abs(res.per_example - per_example) / np.abs(per_example)) <= 1e-13
        assert np.array_equal(res.accuracy, accuracy)

    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    def test_batch_statistics_stay_one_whole_batch_pass(self, loss):
        spec, thetas, batch, _ = self.case(loss, "relu", "batch_stats", 2 * self.block_rows() + 3)
        res = forward_loss(spec, thetas, batch)
        per_example, accuracy = self.whole_batch(spec, thetas, batch, None)
        assert np.array_equal(res.per_example, per_example)
        assert np.array_equal(res.accuracy, accuracy)

    def test_inputs_checked_once_over_several_blocks(self, monkeypatch):
        spec = MlpSpec(layer_sizes=(3, 4096, 2), seed=0)
        rows = netmodel.FORWARD_BLOCK_BYTES // (8 * 4096)
        batch = Batch(inputs=np.ones((2 * rows + 1, 3)), labels=np.zeros(2 * rows + 1, dtype=int))
        checks, passes = [], []
        real_check, real_forward = netmodel._check_inputs, netmodel._forward
        monkeypatch.setattr(netmodel, "_check_inputs", lambda *a: checks.append(1) or real_check(*a))
        monkeypatch.setattr(netmodel, "_forward", lambda *a, **k: passes.append(1) or real_forward(*a, **k))
        forward_loss(spec, init_params(spec), batch)
        assert len(passes) == 3
        assert len(checks) == 1

    @pytest.mark.parametrize("bn", ["none", "frozen"])
    def test_peak_memory_does_not_grow_with_rows(self, bn, traced_peak):
        spec = MlpSpec(layer_sizes=(10, 256, 256, 10), batch_norm=bn == "frozen", loss="mse", seed=0)
        theta = init_params(spec)
        rng = np.random.default_rng(0)
        stats = init_bn_stats(spec) + rng.uniform(0.0, 0.5, spec.stats_dim) if bn == "frozen" else None
        n = 2 * self.block_rows()
        small = Batch(inputs=rng.standard_normal((n, 10)), labels=rng.standard_normal((n, 10)))
        large = Batch(inputs=rng.standard_normal((4 * n, 10)), labels=rng.standard_normal((4 * n, 10)))
        _, small_peak = traced_peak(lambda: forward_loss(spec, theta, small, stats))
        _, large_peak = traced_peak(lambda: forward_loss(spec, theta, large, stats))
        # only the (n,) losses and the (n,) correct flags grow; one whole-batch
        # pass would hold four times the activations
        assert large_peak <= small_peak + 9 * 3 * n + 4096


    def test_cache_free_pass_drops_each_layer_before_the_next(self, traced_peak):
        # the 80 rows of TestGroupedGrads' yardstick, one block: a pass that
        # kept each layer's cache alive through the next layer's product
        # peaked at 401,408 B, one 80 x 128 activation above this bound
        spec = MlpSpec(layer_sizes=(4, 128, 128, 2), loss="mse", seed=0)
        theta = init_params(spec)
        rng = np.random.default_rng(0)
        batch = Batch(inputs=rng.standard_normal((200, 4)), labels=rng.standard_normal((200, 2)))
        groups = np.stack([rng.choice(200, size=2, replace=False) for _ in range(40)])
        _, peak = traced_peak(lambda: forward_loss(spec, theta, batch.subset(groups.ravel())))
        assert peak <= 401_408 - 80 * 128 * 8


class TestGrad:
    def test_identity_net_closed_form(self):
        g = grad(tiny_identity_net(), np.array([1.0, 0.0]), Batch(inputs=[[1.0]], labels=[[2.0]]))
        assert np.array_equal(g, [-2.0, -2.0])

    def test_dead_relu_path(self):
        spec = MlpSpec(layer_sizes=(2, 4, 3), activation="relu", seed=3)
        theta = init_params(spec)  # biases are zero
        batch = Batch(inputs=np.zeros((4, 2)), labels=np.array([0, 1, 2, 0]))
        g = grad(spec, theta, batch)
        assert np.array_equal(g[spec.layout()[0]["w"]], np.zeros(8))

    @pytest.mark.parametrize("case", range(8))
    def test_matches_finite_differences_across_matrix(self, case):
        spec, batch = spec_matrix()[case]
        theta = init_params(spec)
        assert max_rel_err(grad(spec, theta, batch), fd_grad(spec, theta, batch)) < 1e-5

    def test_frozen_bn_matches_finite_differences(self):
        spec = MlpSpec(layer_sizes=(3, 6, 4), activation="relu", batch_norm=True, seed=11)
        theta = init_params(spec)
        rng = np.random.default_rng(0)
        batch = Batch(inputs=rng.standard_normal((6, 3)), labels=rng.integers(0, 4, size=6))
        frozen = bn_batch_statistics(spec, theta, batch)
        assert max_rel_err(grad(spec, theta, batch, frozen), fd_grad(spec, theta, batch, frozen)) < 1e-5


class TestGroupedGrads:
    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("bn", ["none", "batch_stats", "frozen"])
    def test_each_row_equals_grad_on_its_subset(self, loss, activation, bn):
        spec = MlpSpec(layer_sizes=(4, 9, 7, 3), activation=activation, batch_norm=bn != "none",
                       loss=loss, seed=6)
        theta = init_params(spec)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 4))
        y = rng.integers(0, 3, size=40) if loss == "softmax_cross_entropy" else rng.standard_normal((40, 3))
        batch = Batch(inputs=x, labels=y)
        mode = bn_batch_statistics(spec, theta, batch) if bn == "frozen" else None
        groups = np.stack([rng.choice(40, size=6, replace=False) for _ in range(5)])
        rows = grouped_grads(spec, theta, batch, groups, mode)
        assert rows.shape == (5, spec.param_dim)
        for g in range(5):
            assert np.array_equal(rows[g], grad(spec, theta, batch.subset(groups[g]), mode))

    @pytest.mark.parametrize("bn", ["none", "batch_stats", "frozen"])
    @pytest.mark.parametrize("factored", [(0,), (1,), (0, 2)])
    def test_factors_are_the_unsummed_weight_gradients(self, bn, factored):
        spec = MlpSpec(layer_sizes=(4, 9, 7, 3), activation="tanh", batch_norm=bn != "none", loss="mse", seed=6)
        theta = init_params(spec)
        rng = np.random.default_rng(12)
        batch = Batch(inputs=rng.standard_normal((40, 4)), labels=rng.standard_normal((40, 3)))
        mode = bn_batch_statistics(spec, theta, batch) if bn == "frozen" else None
        groups = np.stack([rng.choice(40, size=6, replace=False) for _ in range(5)])
        block = grouped_grads(spec, theta, batch, groups, mode)
        rows, factors = grouped_grad_factors(spec, theta, batch, groups, factored, mode)
        kept = np.ones(spec.param_dim, dtype=bool)
        for layer, f in zip(factored, factors):
            assert f.cols == spec.layout()[layer]["w"]
            kept[f.cols] = False
            products = (f.inputs.swapaxes(-1, -2) @ f.deltas).reshape(5, -1)
            assert np.allclose(products, block[:, f.cols], rtol=1e-14, atol=1e-17)
        assert len(factors) == len(factored)
        assert np.array_equal(rows, block[:, kept])

    @pytest.mark.parametrize("bn", [False, True])
    def test_peak_memory_is_one_output_block(self, bn, traced_peak):
        # the 128 x 128 layer's weight gradients for 40 groups alone would be
        # over 90% of the output; they must be written in place, not copied in
        spec = MlpSpec(layer_sizes=(4, 128, 128, 2), batch_norm=bn, loss="mse", seed=0)
        theta = init_params(spec)
        rng = np.random.default_rng(0)
        batch = Batch(inputs=rng.standard_normal((200, 4)), labels=rng.standard_normal((200, 2)))
        groups = np.stack([rng.choice(200, size=2, replace=False) for _ in range(40)])
        # a forward pass over the same 80 examples holds the same caches, and
        # the reverse pass's per-layer temporaries are no larger
        _, forward_peak = traced_peak(lambda: forward_loss(spec, theta, batch.subset(groups.ravel())))
        rows, peak = traced_peak(lambda: grouped_grads(spec, theta, batch, groups))
        # a quarter of the output block is headroom
        assert peak <= 1.25 * rows.nbytes + 2 * forward_peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_nonfinite_gradient_raises(self, bad, grouped, monkeypatch):
        spec = MlpSpec(layer_sizes=(2, 3, 2), seed=0)
        batch = Batch(inputs=np.zeros((4, 2)), labels=np.array([0, 1, 0, 1]))
        backward = netmodel._backward

        def poisoned(*args):
            g, factors = backward(*args)
            g[..., spec.param_dim // 2] = bad
            return g, factors

        monkeypatch.setattr(netmodel, "_backward", poisoned)
        with pytest.raises(NonFiniteError):
            if grouped:
                grouped_grads(spec, init_params(spec), batch, np.arange(4).reshape(2, 2))
            else:
                grad(spec, init_params(spec), batch)

    def test_finiteness_check_builds_no_mask(self, monkeypatch, traced_peak):
        spec = MlpSpec(layer_sizes=(4, 128, 128, 2), loss="mse", seed=0)
        theta = init_params(spec)
        rng = np.random.default_rng(0)
        batch = Batch(inputs=rng.standard_normal((200, 4)), labels=rng.standard_normal((200, 2)))
        groups = np.stack([rng.choice(200, size=2, replace=False) for _ in range(40)])
        block = np.ones((40, spec.param_dim))
        monkeypatch.setattr(netmodel, "_backward", lambda *args: (block, ()))
        _, forward_peak = traced_peak(lambda: forward_loss(spec, theta, batch.subset(groups.ravel())))
        rows, peak = traced_peak(lambda: grouped_grads(spec, theta, batch, groups))
        assert rows is block
        # the check holds next to nothing beyond the forward caches; a G x D
        # boolean mask would hold block.nbytes / 8
        assert peak <= 1.25 * forward_peak + block.nbytes / 64

    def test_groups_must_be_a_matrix(self):
        spec = MlpSpec(layer_sizes=(2, 3, 2), seed=0)
        batch = Batch(inputs=np.zeros((4, 2)), labels=np.array([0, 1, 0, 1]))
        with pytest.raises(InvalidParamsError):
            grouped_grads(spec, init_params(spec), batch, np.arange(4))


def per_example(spec, theta, batch, bn_stats=None):
    """One gradient row per example: ``grouped_grads`` with groups of one."""
    return grouped_grads(spec, theta, batch, np.arange(batch.size)[:, None], bn_stats)


class TestPerExampleGrads:
    def test_single_example_equals_grad(self):
        spec = MlpSpec(layer_sizes=(3, 5, 2), activation="tanh", seed=1)
        theta = init_params(spec)
        batch = Batch(inputs=[[0.3, -0.2, 1.0]], labels=np.array([1]))
        peg = per_example(spec, theta, batch)
        assert np.allclose(peg[0], grad(spec, theta, batch), atol=1e-15)

    def test_duplicated_example_identical_rows(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), seed=2)
        theta = init_params(spec)
        batch = Batch(inputs=[[1.0, 2.0], [1.0, 2.0]], labels=np.array([0, 0]))
        peg = per_example(spec, theta, batch)
        assert np.array_equal(peg[0], peg[1])

    def test_mean_consistency(self):
        spec = MlpSpec(layer_sizes=(4, 6, 3), activation="relu", seed=4)
        theta = init_params(spec)
        rng = np.random.default_rng(8)
        batch = Batch(inputs=rng.standard_normal((8, 4)), labels=rng.integers(0, 3, size=8))
        peg = per_example(spec, theta, batch)
        assert np.max(np.abs(peg.mean(axis=0) - grad(spec, theta, batch))) < 1e-12

    def test_frozen_bn_mean_consistency(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), batch_norm=True, seed=0)
        theta = init_params(spec)
        batch = Batch(inputs=[[1.0, 0.0], [0.0, 1.0]], labels=np.array([0, 1]))
        stats = bn_batch_statistics(spec, theta, batch)
        peg = per_example(spec, theta, batch, stats)
        assert np.max(np.abs(peg.mean(axis=0) - grad(spec, theta, batch, stats))) < 1e-12


class TestHvp:
    def test_zero_direction_linearity(self):
        spec, batch = spec_matrix()[0]
        theta = init_params(spec)
        if spec.has_bn:
            pytest.skip("bn case")
        assert np.array_equal(hvp(spec, theta, batch, np.zeros_like(theta)), np.zeros_like(theta))

    def test_identity_net_quadratic_closed_form(self):
        spec = tiny_identity_net()
        batch = Batch(inputs=[[3.0]], labels=[[0.0]])
        hv = hvp(spec, np.array([1.0, 0.0]), batch, np.array([1.0, 0.0]))
        assert np.allclose(hv, [18.0, 6.0], atol=1e-12)

    def test_linearity(self):
        spec = MlpSpec(layer_sizes=(3, 6, 3), activation="tanh", seed=6)
        theta = init_params(spec)
        rng = np.random.default_rng(1)
        batch = Batch(inputs=rng.standard_normal((5, 3)), labels=rng.integers(0, 3, size=5))
        v = rng.standard_normal(theta.size)
        w = rng.standard_normal(theta.size)
        lhs = hvp(spec, theta, batch, 2.0 * v + 0.5 * w)
        rhs = 2.0 * hvp(spec, theta, batch, v) + 0.5 * hvp(spec, theta, batch, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_fd_exact_on_pure_quadratic(self):
        spec = tiny_identity_net()
        batch = Batch(inputs=[[3.0]], labels=[[1.0]])
        theta = np.array([0.5, -0.2])
        v = np.array([0.7, 1.3])
        exact = hvp(spec, theta, batch, v)
        approx = hvp_fd(spec, theta, batch, v)
        assert np.linalg.norm(exact - approx) < 1e-9 * np.linalg.norm(exact)

    def test_fd_scale_invariance(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), activation="tanh", seed=7)
        theta = init_params(spec)
        batch = Batch(inputs=[[1.0, -1.0], [0.5, 0.2]], labels=np.array([0, 1]))
        v = np.arange(1.0, theta.size + 1.0)
        a = hvp_fd(spec, theta, batch, v)
        b = hvp_fd(spec, theta, batch, 2.0 * v)
        assert np.max(np.abs(2.0 * a - b)) < 1e-12 * np.linalg.norm(b)

    def test_fd_zero_direction_rejected(self):
        spec = tiny_identity_net()
        with pytest.raises(ZeroDirectionError):
            hvp_fd(spec, np.array([1.0, 0.0]), Batch(inputs=[[1.0]], labels=[[0.0]]), np.zeros(2))

    @pytest.mark.parametrize("case", [0, 2, 4, 6])  # BN-free cases of the matrix
    def test_pearlmutter_vs_fd_across_matrix(self, case):
        spec, batch = spec_matrix()[case]
        theta = init_params(spec)
        rng = np.random.default_rng(case)
        v = rng.standard_normal(theta.size)
        hp = hvp(spec, theta, batch, v)
        hf = hvp_fd(spec, theta, batch, v)
        assert np.linalg.norm(hp - hf) < 1e-4 * max(1.0, np.linalg.norm(hp))

    def test_pearlmutter_rejects_bn(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), batch_norm=True)
        theta = init_params(spec)
        with pytest.raises(BnUnsupportedError):
            hvp(spec, theta, Batch(inputs=[[1.0, 0.0]], labels=np.array([0])), np.zeros(theta.size))


class TestHessianOperator:
    def test_symmetry_contract(self):
        spec = MlpSpec(layer_sizes=(3, 5, 3), activation="tanh", seed=12)
        theta = init_params(spec)
        rng = np.random.default_rng(3)
        batch = Batch(inputs=rng.standard_normal((6, 3)), labels=rng.integers(0, 3, size=6))
        op = hessian_operator(spec, theta, batch)
        for _ in range(5):
            u = rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim)
            lhs = np.dot(u, op.apply(v))
            rhs = np.dot(op.apply(u), v)
            assert abs(lhs - rhs) < 1e-6 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_lanczos_matches_analytic_tiny_quadratic(self):
        spec = tiny_identity_net()
        theta = np.array([0.4, -0.1])
        xs = np.array([[3.0], [1.0], [-2.0]])
        batch = Batch(inputs=xs, labels=np.zeros((3, 1)))
        # mean loss Hessian over (w, b): 2 * [[mean x^2, mean x], [mean x, 1]]
        h = 2.0 * np.array([[np.mean(xs**2), np.mean(xs)], [np.mean(xs), 1.0]])
        lam1 = jacobi_eigh(DenseSymmetric.from_array(h))[0][0]
        op = hessian_operator(spec, theta[None], batch)
        top = lanczos_topk(op, k=1, max_iters=2, seeds=[0])[0, 0]
        assert abs(top - lam1) < 1e-8

    def test_identical_examples_match_single_example_hessian(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), activation="tanh", seed=8)
        theta = init_params(spec)
        one = Batch(inputs=[[0.5, -1.0]], labels=np.array([1]))
        rep = Batch(inputs=[[0.5, -1.0]] * 4, labels=np.array([1] * 4))
        v = np.linspace(-1, 1, theta.size)
        assert np.allclose(
            hvp(spec, theta, one, v), hvp(spec, theta, rep, v), atol=1e-12
        )

    def test_linear_softmax_hessian_psd(self):
        spec = MlpSpec(layer_sizes=(4, 3), seed=13)  # linear net, CE loss
        theta = init_params(spec)
        rng = np.random.default_rng(5)
        batch = Batch(inputs=rng.standard_normal((10, 4)), labels=rng.integers(0, 3, size=10))
        d = theta.size
        dense = np.column_stack(
            [hvp(spec, theta, batch, np.eye(d)[:, j]) for j in range(d)]
        )
        eigs = jacobi_eigh(DenseSymmetric.from_array(dense))[0]
        assert eigs[-1] >= -1e-8


BN_FREE_CASES = [0, 2, 4, 6]  # relu/tanh x cross-entropy/MSE without BN


class TestLinearizedHvp:
    @pytest.mark.parametrize("case", BN_FREE_CASES)
    def test_operator_matvec_bitwise_equals_one_shot_product(self, case):
        spec, batch = spec_matrix()[case]
        theta = init_params(spec)
        op = hessian_operator(spec, theta, batch)
        rng = np.random.default_rng(case)
        for _ in range(3):
            v = rng.standard_normal(theta.size)
            assert np.array_equal(op.apply(v), hvp(spec, theta, batch, v))

    def test_linearized_once_and_every_matvec_enters_by_module_name(self, monkeypatch):
        spec, batch = spec_matrix()[4]
        theta = init_params(spec)
        forwards, products = [], []
        real_forward, real_hvp = netmodel._forward, netmodel.hvp_pearlmutter
        monkeypatch.setattr(netmodel, "_forward", lambda *a: forwards.append(1) or real_forward(*a))
        op = hessian_operator(spec, theta, batch)
        monkeypatch.setattr(netmodel, "hvp_pearlmutter", lambda *a: products.append(1) or real_hvp(*a))
        for j in range(4):
            op.apply(np.eye(theta.size)[j])
        assert len(forwards) == 1
        assert len(products) == 4

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_layer_deltas_reproduce_the_weight_gradients(self, activation, loss, stacked):
        # each layer's δ is the reverse pass's: Σ a_inᵀ δ over the examples
        # is that layer's weight block of grad
        spec, thetas, stacked_batch, batches, _, _ = TestStackedTheta.stacked_case(loss, activation, "none")
        theta, batch = (thetas, stacked_batch) if stacked else (thetas[0], batches[0])
        lin = netmodel.linearize(spec, theta, batch)
        g = grad(spec, theta, batch)
        assert len(lin.layers) == spec.n_hidden
        for layer in lin.layers:
            want = g[..., layer["entry"]["w"]]
            block = (layer["a_in"].swapaxes(-1, -2) @ layer["delta"]).reshape(want.shape)
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_layers_are_the_reverse_pass_caches(self, activation, monkeypatch):
        # the activation derivative comes from the reverse pass alone, and
        # the linearization keeps the forward caches it was left in
        spec, thetas, stacked, _, _, _ = TestStackedTheta.stacked_case("mse", activation, "none")
        passes, inside, act_d = [], [], []
        real_forward, real_backward, real_act_d = netmodel._forward, netmodel._backward, netmodel._act_d

        def backward(*args):
            inside.append(True)
            try:
                return real_backward(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(netmodel, "_forward", lambda *a: passes.append(real_forward(*a)) or passes[-1])
        monkeypatch.setattr(netmodel, "_backward", backward)
        monkeypatch.setattr(netmodel, "_act_d", lambda *a: act_d.append(bool(inside)) or real_act_d(*a))
        lin = netmodel.linearize(spec, thetas, stacked)
        ((_, caches, last),) = passes
        assert act_d == [True] * spec.n_hidden
        assert len(lin.layers) == len(caches) and all(a is b for a, b in zip(lin.layers, caches))
        assert lin.last is last
        # d1 takes the place of y; neither pre-activation is kept
        assert all("z" not in layer and "y" not in layer for layer in lin.layers)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_public_call_rejects_non_finite_theta_and_direction(self, bad):
        spec, batch = spec_matrix()[0]
        theta = init_params(spec)
        v = np.ones_like(theta)
        broken = theta.copy()
        broken[3] = bad
        with pytest.raises(NonFiniteError):
            hvp(spec, broken, batch, v)
        with pytest.raises(NonFiniteError):
            hessian_operator(spec, broken, batch)
        v[5] = bad
        with pytest.raises(NonFiniteError):
            hvp(spec, theta, batch, v)
        # the linearized matvec does not re-check v; the product is not finite
        with pytest.raises(NonFiniteError):
            hessian_operator(spec, theta, batch).apply(v)

    def test_bn_spec_rejected_under_pearlmutter(self):
        spec, batch = spec_matrix()[1]
        theta = init_params(spec)
        with pytest.raises(BnUnsupportedError):
            hvp(spec, theta, batch, np.ones_like(theta))
        with pytest.raises(BnUnsupportedError):
            netmodel.linearize(spec, theta, batch)

    @pytest.mark.parametrize("case", [0, 1])  # without and with BN
    def test_operator_takes_only_auto_and_fd(self, case):
        spec, batch = spec_matrix()[case]
        theta = init_params(spec)
        for method in ("pearlmutter", "exact", ""):
            with pytest.raises(InvalidParamsError, match="unknown HVP method"):
                hessian_operator(spec, theta, batch, method=method)

    @pytest.mark.parametrize("case", BN_FREE_CASES)
    def test_fd_operator_within_tolerance_of_exact(self, case):
        spec, batch = spec_matrix()[case]
        theta = init_params(spec)
        v = np.random.default_rng(case).standard_normal(theta.size)
        exact = hessian_operator(spec, theta, batch).apply(v)
        approx = hessian_operator(spec, theta, batch, method="fd").apply(v)
        assert np.linalg.norm(exact - approx) < 1e-4 * max(1.0, np.linalg.norm(exact))

    @pytest.mark.parametrize("case", [1, 3, 5, 7, 0])  # frozen BN cases, and one without BN
    def test_fd_exactly_scale_invariant(self, case):
        spec, batch = spec_matrix()[case]
        theta = init_params(spec)
        stats = bn_batch_statistics(spec, theta, batch) if spec.has_bn else None
        v = np.random.default_rng(case).standard_normal(theta.size)
        a = hvp_fd(spec, theta, batch, v, stats)
        # a power-of-two scale leaves the step vector bitwise unchanged
        assert np.array_equal(2.0 * a, hvp_fd(spec, theta, batch, 2.0 * v, stats))
        assert np.max(np.abs(a - hvp_fd(spec, theta, batch, 3.0 * v, stats) / 3.0)) < 1e-12 * np.linalg.norm(a)
        op = hessian_operator(spec, theta, batch, method="auto" if spec.has_bn else "fd", bn_stats=stats)
        assert np.array_equal(op.apply(v), a)


class TestStackedTheta:
    """A (C, D) stack θ: row c of every stacked result is bitwise the call
    on row c alone, with one batch per cell or a batch shared by all."""

    CELLS = 3

    @staticmethod
    def stacked_case(loss, activation, bn):
        spec = MlpSpec(layer_sizes=(4, 9, 7, 3), activation=activation, batch_norm=bn != "none",
                       loss=loss, seed=6)
        rng = np.random.default_rng(17)
        thetas = init_params(spec) + 0.3 * rng.standard_normal((TestStackedTheta.CELLS, spec.param_dim))
        x = rng.standard_normal((TestStackedTheta.CELLS, 10, 4))
        if loss == "softmax_cross_entropy":
            y = rng.integers(0, 3, size=(TestStackedTheta.CELLS, 10))
        else:
            y = rng.standard_normal((TestStackedTheta.CELLS, 10, 3))
        batches = [Batch(inputs=x[c], labels=y[c]) for c in range(TestStackedTheta.CELLS)]
        modes = [None] * TestStackedTheta.CELLS
        stacked_mode = None
        if bn == "frozen":
            modes = [bn_batch_statistics(spec, t, b) for t, b in zip(thetas, batches)]
            stacked_mode = np.stack(modes)
        return spec, thetas, Batch(inputs=x, labels=y), batches, modes, stacked_mode

    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("bn", ["none", "batch_stats", "frozen"])
    def test_grad_and_forward_rows_equal_single_calls(self, loss, activation, bn):
        spec, thetas, stacked, batches, modes, stacked_mode = self.stacked_case(loss, activation, bn)
        g = grad(spec, thetas, stacked, stacked_mode)
        res = forward_loss(spec, thetas, stacked, stacked_mode)
        shared = grad(spec, thetas, batches[0], modes[0]) if bn != "frozen" else None
        assert g.shape == thetas.shape
        for c, (theta, batch, mode) in enumerate(zip(thetas, batches, modes)):
            assert np.array_equal(g[c], grad(spec, theta, batch, mode))
            one = forward_loss(spec, theta, batch, mode)
            assert res.mean_loss[c] == one.mean_loss and res.accuracy[c] == one.accuracy
            assert np.array_equal(res.per_example[c], one.per_example)
            if shared is not None:
                assert np.array_equal(shared[c], grad(spec, theta, batches[0], mode))

    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("bn", ["none", "batch_stats", "frozen"])
    def test_grouped_rows_pair_with_theta_rows(self, loss, activation, bn):
        spec, thetas, _, batches, modes, stacked_mode = self.stacked_case(loss, activation, bn)
        data = batches[0]
        groups = np.stack([np.random.default_rng(c).choice(10, size=4, replace=False) for c in range(self.CELLS)])
        rows = grouped_grads(spec, thetas, data, groups, stacked_mode)
        for c, (theta, mode) in enumerate(zip(thetas, modes)):
            assert np.array_equal(rows[c], grad(spec, theta, data.subset(groups[c]), mode))

    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_linearized_product_rows_equal_single_calls(self, loss, activation):
        spec, thetas, stacked, batches, _, _ = self.stacked_case(loss, activation, "none")
        v = np.random.default_rng(3).standard_normal(thetas.shape)
        products = hvp_pearlmutter(spec, thetas, stacked, v, netmodel.linearize(spec, thetas, stacked))
        op = hessian_operator(spec, thetas, stacked)
        assert np.array_equal(op.apply(v), products)
        for c, (theta, batch) in enumerate(zip(thetas, batches)):
            assert np.array_equal(products[c], hvp(spec, theta, batch, v[c]))

    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mse"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("bn", ["none", "batch_stats", "frozen"])
    def test_fd_product_is_the_difference_of_two_gradients(self, loss, activation, bn):
        # theta +- step run as one two-row stack; the product is bitwise the
        # difference of two separate gradient calls, for one theta and a stack
        spec, thetas, stacked, batches, modes, stacked_mode = self.stacked_case(loss, activation, bn)
        v = np.random.default_rng(5).standard_normal(thetas.shape)
        products = hvp_fd(spec, thetas, stacked, v, stacked_mode)
        for c, (theta, batch, mode) in enumerate(zip(thetas, batches, modes)):
            norm = float(np.linalg.norm(v[c]))
            step = v[c] * (netmodel.FD_EPS / norm)
            want = grad(spec, theta + step, batch, mode)
            want -= grad(spec, theta - step, batch, mode)
            want *= norm / (2.0 * netmodel.FD_EPS)
            assert np.array_equal(hvp_fd(spec, theta, batch, v[c], mode), want)
            assert np.array_equal(products[c], want)

    def test_fd_product_is_one_gradient_call(self, monkeypatch):
        spec, batch = spec_matrix()[1]
        theta = init_params(spec)
        calls = []
        real = netmodel.grad
        monkeypatch.setattr(netmodel, "grad", lambda *a: calls.append(np.shape(a[1])) or real(*a))
        hvp_fd(spec, theta, batch, np.ones_like(theta), bn_batch_statistics(spec, theta, batch))
        assert calls == [(2, spec.param_dim)]

    def test_zero_direction_in_any_row_rejected(self):
        spec, thetas, stacked, _, _, _ = self.stacked_case("mse", "tanh", "none")
        v = np.ones_like(thetas)
        v[1] = 0.0
        with pytest.raises(ZeroDirectionError):
            hvp_fd(spec, thetas, stacked, v)


class TestBnStats:
    """Frozen statistics are one (..., stats_dim) vector: each BN layer's
    means, then its variances, at the layer entry's ``mean``/``var``."""

    @staticmethod
    def case():
        # BN on the first and third hidden layers, none on the second
        spec = MlpSpec(layer_sizes=(3, 5, 4, 6, 2), activation="tanh", batch_norm=(True, False, True), seed=8)
        rng = np.random.default_rng(21)
        thetas = init_params(spec) + 0.3 * rng.standard_normal((2, spec.param_dim))
        return spec, thetas, rng.standard_normal((9, 3))

    @staticmethod
    def layer_moments(spec, theta, x):
        """Each BN layer's batch mean and variance, by a plain loop."""
        moments, a = [], x
        for entry in spec.layout()[:-1]:
            z = a @ theta[entry["w"]].reshape(entry["fan_in"], entry["fan_out"]) + theta[entry["b"]]
            if "gamma" in entry:
                mu, var = z.mean(axis=0), z.var(axis=0)
                moments.append((entry, mu, var))
                z = theta[entry["gamma"]] * (z - mu) / np.sqrt(var + netmodel.BN_EPS) + theta[entry["beta"]]
            a = np.tanh(z)
        return moments

    def test_layout_slices_tile_the_vector(self):
        spec, _, _ = self.case()
        assert spec.stats_dim == 2 * (5 + 6)
        bn = [e for e in spec.layout() if "mean" in e]
        assert [e["layer"] for e in bn] == [0, 2]
        assert [(e["mean"], e["var"]) for e in bn] == [(slice(0, 5), slice(5, 10)), (slice(10, 16), slice(16, 22))]
        assert MlpSpec(layer_sizes=(3, 5, 2)).stats_dim == 0

    def test_slices_hold_each_layers_batch_moments(self):
        spec, thetas, x = self.case()
        batch = Batch(inputs=x, labels=np.zeros(9, dtype=int))
        stacked = bn_batch_statistics(spec, thetas, batch)
        assert stacked.shape == (2, spec.stats_dim)
        for c, theta in enumerate(thetas):
            single = bn_batch_statistics(spec, theta, batch)
            assert single.shape == (spec.stats_dim,)
            assert np.array_equal(stacked[c], single)
            for entry, mu, var in self.layer_moments(spec, theta, x):
                assert np.allclose(single[entry["mean"]], mu, rtol=1e-13, atol=1e-15)
                assert np.allclose(single[entry["var"]], var, rtol=1e-13, atol=1e-15)

    def test_wrong_width_rejected(self):
        spec, thetas, x = self.case()
        batch = Batch(inputs=x, labels=np.zeros(9, dtype=int))
        for bad in (np.zeros(spec.stats_dim - 1), np.zeros((2, spec.stats_dim + 1)), np.float64(0.0)):
            with pytest.raises(DimensionMismatchError):
                forward_loss(spec, thetas[0], batch, bad)
            with pytest.raises(DimensionMismatchError):
                grad(spec, thetas, batch, bad)

    def test_statistics_with_an_axis_theta_lacks_rejected(self):
        # one θ with two statistics rows: no call may pair them up itself
        spec, thetas, x = self.case()
        batch = Batch(inputs=x, labels=np.zeros(9, dtype=int))
        stats = bn_batch_statistics(spec, thetas, batch)
        theta, v = thetas[0], np.ones(spec.param_dim)
        calls = [
            lambda: forward_loss(spec, theta, batch, stats),
            lambda: grad(spec, theta, batch, stats),
            lambda: grouped_grad_factors(spec, theta, batch, np.arange(8).reshape(2, 4), (), stats),
            lambda: hvp_fd(spec, theta, batch, v, stats),
            lambda: hessian_operator(spec, theta, batch, bn_stats=stats),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatchError):
                call()
        # the stack those rows belong to, and one row shared by it, pass
        assert grad(spec, thetas, batch, stats).shape == thetas.shape
        assert hvp_fd(spec, thetas, batch, np.ones_like(thetas), stats[:1]).shape == thetas.shape

    def test_init_is_zero_means_unit_variances(self):
        spec, _, _ = self.case()
        stats = init_bn_stats(spec)
        assert stats.shape == (spec.stats_dim,)
        for entry in spec.layout():
            if "mean" in entry:
                assert np.array_equal(stats[entry["mean"]], np.zeros(entry["fan_out"]))
                assert np.array_equal(stats[entry["var"]], np.ones(entry["fan_out"]))
        assert init_bn_stats(MlpSpec(layer_sizes=(3, 5, 2))).shape == (0,)


class TestBnGammaNorm:
    def test_init_norm_is_sqrt_width(self):
        spec = MlpSpec(layer_sizes=(4, 16, 2), batch_norm=True, seed=0)
        assert bn_gamma_norm(spec, init_params(spec), 0) == pytest.approx(4.0, abs=1e-15)

    def test_zero_gamma(self):
        spec = MlpSpec(layer_sizes=(4, 8, 2), batch_norm=True, seed=0)
        theta = init_params(spec)
        theta[spec.layout()[0]["gamma"]] = 0.0
        assert bn_gamma_norm(spec, theta, 0) == 0.0

    def test_matches_naive_sum(self):
        spec = MlpSpec(layer_sizes=(4, 8, 2), batch_norm=True, seed=0)
        theta = init_params(spec)
        rng = np.random.default_rng(9)
        gam = rng.standard_normal(8)
        theta[spec.layout()[0]["gamma"]] = gam
        naive = np.sqrt(sum(float(g) ** 2 for g in gam))
        assert bn_gamma_norm(spec, theta, 0) == pytest.approx(naive, rel=1e-14)

    def test_no_bn_layer(self):
        spec = MlpSpec(layer_sizes=(4, 8, 2), batch_norm=False, seed=0)
        with pytest.raises(NoBnLayerError):
            bn_gamma_norm(spec, init_params(spec), 0)

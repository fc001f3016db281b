import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from breakeven import spectra, trainer
from breakeven.datasets import make_dataset
from breakeven.errors import (
    InsufficientDataError,
    InvalidConfigError,
    NeedTwoValuesError,
    NonFiniteError,
    NoConvergenceError,
)
from breakeven.netmodel import Batch, MlpSpec, forward_loss, grad, init_params
from breakeven.trainer import (
    LrSchedule,
    MetricRecord,
    RunConfig,
    SpectraParams,
    breakeven_indicators,
    config_hash,
    delta_loss,
    metric_log_lines,
    parse_metric_log,
    run_training,
    sgd_step,
    summarize_run,
    sweep,
    validate_metric_log,
)


def smoke_dataset(n=256, sigma=0.6, seed=1):
    return make_dataset(
        {"kind": "gaussian_blobs", "n": n, "classes": 2, "radius": 1.0, "sigma": sigma},
        seed=seed,
    )


def smoke_config(**over):
    base = dict(
        model=MlpSpec(layer_sizes=(2, 8, 8, 2), activation="relu", seed=3),
        eta=0.05,
        batch_size=32,
        epochs=3,
        eval_every=10,
        spectra=SpectraParams(n_gradient_samples=8, lanczos_iters=15, top_k=3),
        seed=7,
    )
    base.update(over)
    return RunConfig(**base)


class TestSgdStep:
    def test_plain_sgd(self):
        theta = np.array([1.0, 2.0])
        g = np.array([0.5, -1.0])
        new_theta, new_v = sgd_step(theta, g, np.zeros(2), eta=0.1, beta=0.0)
        assert np.array_equal(new_theta, theta - 0.1 * g)
        assert np.array_equal(new_v, g)

    def test_velocity_decay_with_zero_gradient(self):
        v0 = np.array([2.0, -4.0])
        theta, v = sgd_step(np.zeros(2), np.zeros(2), v0, eta=0.05, beta=0.9)
        assert np.allclose(theta, -0.05 * 0.9 * v0, atol=1e-16)
        assert np.allclose(v, 0.9 * v0, atol=1e-16)

    def test_three_step_hand_recursion(self):
        theta = np.array([0.0])
        v = np.array([0.0])
        g = np.array([1.0])
        for _ in range(3):
            theta, v = sgd_step(theta, g, v, eta=0.1, beta=0.5)
        assert theta[0] == pytest.approx(-0.425, abs=1e-15)


class TestDeltaLoss:
    def test_no_step_gives_zero(self):
        spec = MlpSpec(layer_sizes=(2, 4, 2), seed=0)
        theta = init_params(spec)
        batch = Batch(inputs=[[1.0, 0.0], [0.0, 1.0]], labels=np.array([0, 1]))
        assert delta_loss(spec, forward_loss(spec, theta, batch).mean_loss, theta, batch) == 0.0

    def test_1d_quadratic_sign_flips_at_two_over_eta(self):
        # L = lambda theta^2 / 2 realized as a 1->1 identity net with w fixed
        # via input scaling: loss (w x)^2 with x = sqrt(lambda/2), b column dead
        spec = MlpSpec(layer_sizes=(1, 1), loss="mse")
        for lam, eta in ((1.0, 0.5), (30.0, 0.1)):
            x = np.sqrt(lam / 2.0)
            batch = Batch(inputs=[[x]], labels=[[0.0]])
            theta = np.array([1.0, 0.0])
            g = grad(spec, theta, batch)
            g[1] = 0.0  # keep the bias out of the 1-d picture
            after = theta - eta * g
            dl = delta_loss(spec, forward_loss(spec, theta, batch).mean_loss, after, batch)
            expected = eta * lam**2 * 1.0**2 * (1 - eta * lam / 2)
            assert dl == pytest.approx(expected, rel=1e-12)
            assert (dl < 0) == (eta * lam > 2)

    def test_small_step_first_order(self):
        spec = MlpSpec(layer_sizes=(2, 6, 2), activation="tanh", seed=5)
        theta = init_params(spec)
        rng = np.random.default_rng(0)
        batch = Batch(inputs=rng.standard_normal((16, 2)), labels=rng.integers(0, 2, size=16))
        g = grad(spec, theta, batch)
        eta = 1e-4
        dl = delta_loss(spec, forward_loss(spec, theta, batch).mean_loss, theta - eta * g, batch)
        assert dl == pytest.approx(eta * float(g @ g), rel=0.1)

    def test_logged_value_equals_two_forward_difference(self):
        # the record reuses its train_loss as the pre-step loss; that must be
        # bit-identical to evaluating the training set at both parameter points
        ds = smoke_dataset(n=128)
        thetas = {}
        records, _ = run_training(
            smoke_config(epochs=1, eval_every=1), ds, param_sink=lambda s, t: thetas.update({s: t})
        )
        spec, train = smoke_config().model, ds.train()
        assert len(records) >= 2
        for r in records[:-1]:
            before = forward_loss(spec, thetas[r.step], train).mean_loss
            after = forward_loss(spec, thetas[r.step + 1], train).mean_loss
            assert r.delta_loss == before - after


class TestRunTraining:
    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidConfigError):
            smoke_config(epochs=0)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan"), float("inf")])
    def test_accuracy_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(InvalidConfigError, match=r"\[0, 1\]") as exc:
            smoke_config(accuracy_threshold=threshold)
        assert exc.value.field == "accuracy_threshold"
        assert smoke_config(accuracy_threshold=0.0) and smoke_config(accuracy_threshold=1.0)

    def test_model_narrower_than_the_classes_rejected(self):
        ds = make_dataset({"kind": "gaussian_blobs", "n": 128, "classes": 3, "sigma": 0.6}, seed=1)
        with pytest.raises(InvalidConfigError, match="output width 2 < 3") as exc:
            run_training(smoke_config(model=MlpSpec(layer_sizes=(2, 8, 8, 2), loss="mse", seed=3)), ds)
        assert exc.value.field == "model.layer_sizes"

    def test_eigenvector_signs_change_no_record(self, monkeypatch):
        # jacobi_eigh leaves each Gram eigenvector's sign to LAPACK; every
        # covariance reading of a checkpoint, g_ratio included, is blind to it
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=1, eval_every=1)
        want, _ = run_training(cfg, ds)
        assert all(r.g_ratio is not None for r in want)
        real = spectra.jacobi_eigh

        def flipped(a):
            values, vectors = real(a)
            return values, vectors * np.where(np.arange(a.dim) % 2, -1.0, 1.0)

        monkeypatch.setattr(spectra, "jacobi_eigh", flipped)
        got, _ = run_training(cfg, ds)
        assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]

    def test_determinism_field_identical(self):
        ds = smoke_dataset()
        a_records, a_summary = run_training(smoke_config(), ds)
        b_records, b_summary = run_training(smoke_config(), ds)
        assert len(a_records) == len(b_records)
        for ra, rb in zip(a_records, b_records):
            assert ra.to_json_dict() == rb.to_json_dict()
        assert a_summary.to_json_dict() == b_summary.to_json_dict()

    def test_smoke_run_completes_with_finite_records(self):
        ds = smoke_dataset()
        records, summary = run_training(smoke_config(), ds)
        assert not summary.diverged
        assert summary.max_lambda_k1 > 0
        for r in records:
            for name in ("train_loss", "train_acc", "val_acc", "lambda_k1", "trace_k"):
                assert np.isfinite(getattr(r, name))

    def test_beta_zero_matches_reference_loop(self):
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=2, eval_every=10**9)  # no instrumentation
        records, _ = run_training(cfg, ds)
        assert records == [] or len(records) == 1  # step 0 only when eval_every divides

        # reference: plain grad + axpy loop with identical shuffling
        from breakeven.rng import make_rng

        spec = cfg.model
        train = ds.train()
        theta = init_params(spec)
        rng = make_rng(cfg.seed, 1)
        for _ in range(cfg.epochs):
            perm = rng.permutation(train.size)
            for start in range(0, train.size, cfg.batch_size):
                batch = train.subset(perm[start : start + cfg.batch_size])
                theta = theta - cfg.eta * grad(spec, theta, batch, None)

        # instrumented run must produce the same parameters; rerun with a
        # probe checkpoint at the final step to expose them
        theta2 = init_params(spec)
        v = np.zeros_like(theta2)
        rng2 = make_rng(cfg.seed, 1)
        for _ in range(cfg.epochs):
            perm = rng2.permutation(train.size)
            for start in range(0, train.size, cfg.batch_size):
                batch = train.subset(perm[start : start + cfg.batch_size])
                theta2, v = sgd_step(theta2, grad(spec, theta2, batch, None), v, cfg.eta, 0.0)
        assert np.array_equal(theta, theta2)

    def test_every_example_seen_once_per_epoch(self):
        ds = smoke_dataset(n=100)
        n_train = ds.n_train
        from breakeven.rng import make_rng

        cfg = smoke_config()
        rng = make_rng(cfg.seed, 1)
        seen = []
        perm = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            seen.extend(perm[start : start + cfg.batch_size])
        assert sorted(seen) == list(range(n_train))

    def test_step_decay_applies_exactly_once(self):
        ds = smoke_dataset(n=128)
        cfg = smoke_config(
            epochs=4,
            eval_every=2,
            schedule=LrSchedule(kind="step_decay", decay_epoch=2, decay_factor=10.0),
        )
        records, _ = run_training(cfg, ds)
        for r in records:
            expected = cfg.eta / 10.0 if r.epoch >= 2 else cfg.eta
            assert r.lr_current == expected

    def test_divergent_run_preserves_partial_log(self):
        # deep linear net with square loss past the stability edge: the
        # iterates grow geometrically and overflow after a few recorded steps
        ds = smoke_dataset(n=128)
        cfg = smoke_config(
            epochs=10, eval_every=1, batch_size=16, eta=2.0,
            model=MlpSpec(layer_sizes=(2, 8, 8, 2), activation="identity", loss="mse", seed=3),
        )
        records, summary = run_training(cfg, ds)
        assert summary.diverged
        assert len(records) >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_ends_the_run_diverged_under_the_warnings_filter(self):
        # the desk model at eta = 1.5 overflows in the reverse pass within a
        # few steps; that must end the cell as diverged, alone and stacked,
        # not escape as a RuntimeWarning
        ds = make_dataset({"kind": "gaussian_blobs", "n": 2000, "classes": 2, "radius": 1.0,
                           "sigma": 0.8, "val_fraction": 0.2}, seed=1)
        cfg = RunConfig(
            model=MlpSpec(layer_sizes=(2, 32, 32, 2), activation="relu", loss="mse", init_gain=0.6, seed=0),
            eta=1.5, batch_size=32, epochs=2, eval_every=25,
            spectra=SpectraParams(n_gradient_samples=40, gram_batch_size=8, lanczos_iters=30), seed=1,
        )
        _, summary = run_training(cfg, ds)
        assert summary.diverged
        (_, high), _ = run_training([cfg, replace(cfg, eta=1.0)], ds)
        assert high.diverged

    def test_g_ratio_null_when_gradients_span_too_few_directions(self):
        # zero weights behind relu units: only the output bias has a gradient,
        # so the minibatch gradients span one direction, fewer than top-k
        spec = MlpSpec(layer_sizes=(2, 8, 8, 2), activation="relu", init="constant", seed=3)
        cfg = smoke_config(model=spec, epochs=2, eval_every=2)
        records, summary = run_training(cfg, smoke_dataset(n=128))
        assert not summary.diverged and len(records) >= 2
        for r in records:
            assert r.g_ratio is None
            assert len(r.lambda_h_top) == cfg.spectra.top_k
            assert all(np.isfinite(v) for v in r.lambda_h_top)
            assert r.lambda_k1 > 0 and r.trace_k > 0

    def test_step_reuses_checkpoint_gradient_without_bn(self, monkeypatch):
        # without BN the checkpoint's g_now is the step's gradient (the same
        # call on the same batch): one grad call per step, same trajectory
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=2, eval_every=2)
        steps = cfg.epochs * -(-ds.n_train // cfg.batch_size)
        calls = []
        real_grad = trainer.grad
        monkeypatch.setattr(trainer, "grad", lambda *a: calls.append(a) or real_grad(*a))
        reused = {}
        records, _ = run_training(cfg, ds, param_sink=reused.__setitem__)
        assert len(calls) == steps
        assert any(r.g_ratio is not None for r in records)

        real_step_gradient = trainer._step_gradient
        monkeypatch.setattr(trainer, "_step_gradient", lambda spec, theta, batch, g_now=None:
                            real_step_gradient(spec, theta, batch))
        separate = {}
        records_sep, _ = run_training(cfg, ds, param_sink=separate.__setitem__)
        assert [r.to_json_dict() for r in records] == [r.to_json_dict() for r in records_sep]
        assert reused.keys() == separate.keys()
        assert all(np.array_equal(reused[s], separate[s]) for s in reused)

    def test_summary_maxima_match_log_columns(self):
        ds = smoke_dataset()
        records, summary = run_training(smoke_config(), ds)
        assert summary.max_lambda_k1 == max(r.lambda_k1 for r in records)
        assert summary.max_lambda_h1 == max(r.lambda_h_top[0] for r in records)
        assert summary.max_trace_k == max(r.trace_k for r in records)
        steps = [r.step for r in records]
        assert steps == sorted(steps)
        assert summary.max_lambda_k1_step in steps


class TestBnTraining:
    def test_bn_run_records_gamma_norms(self):
        ds = smoke_dataset(n=128)
        spec = MlpSpec(layer_sizes=(2, 8, 8, 2), activation="relu", batch_norm=True, seed=3)
        cfg = smoke_config(model=spec, epochs=2)
        records, summary = run_training(cfg, ds)
        assert not summary.diverged
        for r in records:
            assert r.bn_gamma_norms is not None and len(r.bn_gamma_norms) == 2
            assert all(np.isfinite(v) for v in r.bn_gamma_norms)


    def test_step_gradient_uses_batch_statistics(self, monkeypatch):
        # with BN the checkpoint's g_now is taken at the running statistics,
        # so every step still takes its own batch-statistics gradient
        ds = smoke_dataset(n=128)
        spec = MlpSpec(layer_sizes=(2, 8, 8, 2), activation="relu", batch_norm=True, seed=3)
        cfg = smoke_config(model=spec, epochs=2, eval_every=2)
        steps = cfg.epochs * -(-ds.n_train // cfg.batch_size)
        modes = []
        real_grad = trainer.grad
        monkeypatch.setattr(trainer, "grad", lambda *a: modes.append(a[3]) or real_grad(*a))
        records, _ = run_training(cfg, ds)
        assert sum(m is None for m in modes) == steps
        assert len(modes) == steps + sum(r.g_ratio is not None for r in records)


class TestBreakevenIndicators:
    def _record(self, step, k1, h1, dl):
        return MetricRecord(step=step, epoch=0, lambda_k1=k1, lambda_h_top=[h1], delta_loss=dl)

    def test_monotone_identical_series_r_one(self):
        records = [self._record(i, float(i + 1), float(i + 1), 0.1) for i in range(6)]
        argmax_step, first_neg, r = breakeven_indicators(records)
        assert argmax_step == 5
        assert first_neg is None
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_constant_hessian_series_r_null(self):
        records = [self._record(i, float(i + 1), 2.0, 0.1) for i in range(6)]
        _, _, r = breakeven_indicators(records)
        assert r is None

    def test_pearson_restricted_to_growth_phase(self):
        ks = [1.0, 2.0, 5.0, 4.0, 3.0, 2.0]
        hs = [1.0, 2.0, 5.0, 1.0, 1.0, 1.0]  # correlated only during growth
        records = [self._record(i, ks[i], hs[i], 0.1) for i in range(6)]
        argmax_step, _, r = breakeven_indicators(records)
        assert argmax_step == 2
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_first_negative_delta_loss(self):
        records = [self._record(i, 1.0 + i, 1.0, 0.1 if i < 3 else -0.2) for i in range(6)]
        _, first_neg, _ = breakeven_indicators(records)
        assert first_neg == 3

    def test_insufficient_checkpoints(self):
        with pytest.raises(InsufficientDataError):
            breakeven_indicators([self._record(0, 1.0, 1.0, 0.1)])


class TestSweep:
    def test_needs_two_values(self):
        ds = smoke_dataset(n=128)
        with pytest.raises(NeedTwoValuesError):
            sweep(smoke_config(), ds, "eta", [0.05], seeds=[0])

    def test_repeated_value_gives_tie_and_identical_summaries(self):
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=1, eval_every=1,
                           spectra=SpectraParams(n_gradient_samples=6, lanczos_iters=8, top_k=2))
        report = sweep(cfg, ds, "eta", [0.05, 0.05], seeds=[0, 1])
        assert report.verdicts["variance_reduction_lambda_k1"] == "tie"
        by_value = {}
        for cell in report.cells:
            by_value.setdefault(cell.seed, []).append(cell.summary.to_json_dict())
        for summaries in by_value.values():
            assert summaries[0] == summaries[1]

    def test_failing_cell_isolated(self):
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=1, spectra=SpectraParams(n_gradient_samples=6, lanczos_iters=8, top_k=2))
        # second cell cannot run (batch larger than the training split)
        report = sweep(cfg, ds, "batch_size", [32, 10_000], seeds=[0])
        ok = [c for c in report.cells if c.axis_value == 32]
        bad = [c for c in report.cells if c.axis_value == 10_000]
        assert not ok[0].diverged and ok[0].summary is not None
        assert bad[0].diverged and bad[0].error is not None
        assert bad[0].error_type == "InvalidConfigError" and ok[0].error_type is None

    def test_diverging_cell_isolated(self):
        # linear net with square loss: eta=2 sits past the stability edge and
        # overflows, the small-eta cell trains normally
        ds = smoke_dataset(n=128)
        cfg = smoke_config(
            epochs=10, eval_every=1, batch_size=16,
            model=MlpSpec(layer_sizes=(2, 8, 8, 2), activation="identity", loss="mse", seed=3),
        )
        report = sweep(cfg, ds, "eta", [0.01, 2.0], seeds=[0])
        ok = [c for c in report.cells if c.axis_value == 0.01]
        bad = [c for c in report.cells if c.axis_value == 2.0]
        assert not ok[0].diverged and ok[0].summary is not None
        assert bad[0].diverged

    def test_programming_error_propagates(self, monkeypatch):
        # only package errors are isolated per cell; a bug must not read as a
        # diverged cell
        def broken_step(*args, **kwargs):
            raise TypeError("bug in the update rule")

        monkeypatch.setattr("breakeven.trainer.sgd_step", broken_step)
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=1, spectra=SpectraParams(n_gradient_samples=6, lanczos_iters=8, top_k=2))
        with pytest.raises(TypeError, match="bug in the update rule"):
            sweep(cfg, ds, "eta", [0.01, 0.05], seeds=[0])

    def test_rejected_axis_value_trains_no_cell(self, monkeypatch):
        # the second value is checked before the first value's cells train
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a cell trained")

        monkeypatch.setattr("breakeven.trainer.run_training", spy)
        with pytest.raises(InvalidConfigError, match="eta must be positive"):
            sweep(smoke_config(), smoke_dataset(n=128), "eta", [0.02, -0.1], seeds=[0, 1])
        assert calls == []

    def test_unknown_axis(self):
        ds = smoke_dataset(n=128)
        with pytest.raises(InvalidConfigError):
            sweep(smoke_config(), ds, "width", [1, 2], seeds=[0])


def records_of(records):
    return [r.to_json_dict() for r in records]


class TestStackedTraining:
    """Cells that share a step schedule train as one stack; each cell's log
    is field-identical to its one-cell run."""

    def test_sweep_stacks_cells_that_share_a_schedule(self, monkeypatch):
        stacks = []
        real = trainer.run_training

        def spy(configs, dataset, *rest):
            stacks.append([(c.eta, c.batch_size) for c in configs])
            return real(configs, dataset, *rest)

        monkeypatch.setattr(trainer, "run_training", spy)
        cfg = smoke_config(epochs=1, spectra=SpectraParams(n_gradient_samples=6, lanczos_iters=8, top_k=2))
        sweep(cfg, smoke_dataset(n=128), "eta", [0.05, 0.1], seeds=[0, 1])
        assert stacks == [[(0.05, 32), (0.05, 32), (0.1, 32), (0.1, 32)]]
        stacks.clear()
        sweep(cfg, smoke_dataset(n=128), "batch_size", [16, 32], seeds=[0, 1])
        assert stacks == [[(0.05, 16), (0.05, 16)], [(0.05, 32), (0.05, 32)]]

    def test_seeds_axis_cells_draw_different_batches(self, monkeypatch):
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=2, eval_every=2,
                           spectra=SpectraParams(n_gradient_samples=6, lanczos_iters=8, top_k=2))
        step_batches = []
        real_grad = trainer.grad

        def spy(spec, theta, batch, mode):
            if mode is None:
                step_batches.append(batch.inputs.copy())
            return real_grad(spec, theta, batch, mode)

        monkeypatch.setattr(trainer, "grad", spy)
        report = sweep(cfg, ds, "eta", [0.05, 0.1], seeds=[0, 1, 2])
        monkeypatch.setattr(trainer, "grad", real_grad)
        first = step_batches[0]
        assert first.shape == (6, cfg.batch_size, 2)
        # cells of one seed share their shuffles; different seeds do not
        assert np.array_equal(first[0], first[3])
        assert not np.array_equal(first[0], first[1]) and not np.array_equal(first[1], first[2])
        for cell in report.cells:
            records, summary = run_training(cell.config, ds)
            assert records_of(cell.records) == records_of(records)
            assert cell.summary.to_json_dict() == summary.to_json_dict()

    def test_failing_cells_leave_the_stack_and_the_rest_match_one_cell_runs(self, monkeypatch):
        # four cells in one stack: eta = 2 diverges (as in
        # test_diverging_cell_isolated), and the eta = 0.02 cell meets a
        # package error at step 3; the stacked step replays cell by cell
        ds = smoke_dataset(n=128)
        cfg = smoke_config(
            epochs=10, eval_every=1, batch_size=16,
            model=MlpSpec(layer_sizes=(2, 8, 8, 2), activation="identity", loss="mse", seed=3),
        )
        plan = {c.axis_value: c.config for c in sweep(cfg, ds, "eta", [0.01, 0.02], seeds=[0]).cells}
        poison = {}
        run_training(plan[0.02], ds, param_sink=lambda step, theta: poison.setdefault(step, theta))
        real_forward = trainer.forward_loss

        def forward(spec, theta, batch, mode):
            if np.array_equal(theta, poison[3]):
                raise InvalidConfigError("poisoned checkpoint")
            return real_forward(spec, theta, batch, mode)

        monkeypatch.setattr(trainer, "forward_loss", forward)
        report = sweep(cfg, ds, "eta", [0.01, 0.02, 2.0, 0.03], seeds=[0])
        cells = {c.axis_value: c for c in report.cells}
        assert cells[0.02].error_type == "InvalidConfigError" and cells[0.02].records is None
        with pytest.raises(InvalidConfigError, match="poisoned"):
            run_training(cells[0.02].config, ds)
        assert cells[2.0].diverged and cells[2.0].error is None and cells[2.0].records
        for value in (0.01, 2.0, 0.03):
            records, summary = run_training(cells[value].config, ds)
            assert records_of(cells[value].records) == records_of(records)
            assert cells[value].summary.to_json_dict() == summary.to_json_dict()
        assert not cells[0.01].diverged and not cells[0.03].diverged

    def test_stack_rejects_cells_with_different_schedules(self):
        ds = smoke_dataset(n=128)
        with pytest.raises(InvalidConfigError, match="share"):
            run_training([smoke_config(), smoke_config(batch_size=16)], ds)
        with pytest.raises(InvalidConfigError, match="param_sink"):
            run_training([smoke_config()], ds, param_sink=lambda step, theta: None)


def use_worker(monkeypatch, on):
    """Force the checkpoint's loss passes onto the worker thread (``on``) or
    inline, whatever the machine's CPU count and the run's size."""
    monkeypatch.setattr(trainer, "OVERLAP_MIN_WORK", 0)
    monkeypatch.setattr(trainer, "usable_cpus", lambda: 2 if on else 1)


class TestCheckpointWorker:
    """A checkpoint's full-set loss passes run on one worker thread beside
    the Hessian spectrum and the covariance stage, or inline; the two paths
    give the same logs and end every cell the same way."""

    BN_SPEC = MlpSpec(layer_sizes=(2, 8, 8, 2), activation="relu", batch_norm=True, seed=3)

    def stack_configs(self, spec, hvp_method):
        cfg = smoke_config(
            model=spec, epochs=2, eval_every=3,
            spectra=SpectraParams(n_gradient_samples=6, lanczos_iters=8, top_k=2, hvp_method=hvp_method),
        )
        return [cfg, replace(cfg, eta=0.1, seed=8), replace(cfg, momentum=0.5, seed=9)]

    def logs(self, configs, results):
        return [metric_log_lines(c, records) for c, (records, _) in zip(configs, results)]

    @pytest.mark.parametrize("spec, hvp_method", [
        (BN_SPEC, "fd"),
        (MlpSpec(layer_sizes=(2, 8, 8, 2), activation="tanh", seed=3), "auto"),
    ], ids=["bn-fd", "plain-auto"])
    def test_worker_and_inline_logs_are_byte_identical(self, spec, hvp_method, monkeypatch):
        ds = smoke_dataset(n=128)
        configs = self.stack_configs(spec, hvp_method)
        threads = []
        real_forward = trainer.forward_loss

        def forward(*args):
            threads.append(threading.current_thread())
            return real_forward(*args)

        monkeypatch.setattr(trainer, "forward_loss", forward)
        use_worker(monkeypatch, True)
        overlapped = run_training(configs, ds)
        assert threads and threading.main_thread() not in threads
        threads.clear()
        use_worker(monkeypatch, False)
        inline = run_training(configs, ds)
        assert threads and set(threads) == {threading.main_thread()}
        assert self.logs(configs, overlapped) == self.logs(configs, inline)
        assert [s.diverged for _, s in overlapped] == [s.diverged for _, s in inline] == [False] * 3

    def poisoned_stack(self, monkeypatch, step, which):
        """Three identity-MSE cells, as one stack, where the eta = 0.02 cell's
        delta_loss pass (``which`` "delta") or validation pass ("val") at its
        step-``step`` parameters raises NonFiniteError; returns the configs,
        the dataset and that cell's parameters by checkpoint step."""
        ds = smoke_dataset(n=128)
        cfg = smoke_config(
            epochs=3, eval_every=1, batch_size=16,
            model=MlpSpec(layer_sizes=(2, 8, 8, 2), activation="identity", loss="mse", seed=3),
            spectra=SpectraParams(n_gradient_samples=6, lanczos_iters=8, top_k=2),
        )
        configs = [replace(cfg, eta=eta) for eta in (0.01, 0.02, 0.03)]
        thetas = {}
        run_training(configs[1], ds, param_sink=thetas.__setitem__)
        name = "delta_loss" if which == "delta" else "forward_loss"
        real = getattr(trainer, name)

        def poisoned(*args):
            theta, batch = args[-3:-1]  # both functions take (..., theta, batch, bn_stats)
            if np.array_equal(theta, thetas[step]) and (which == "delta" or batch.size != ds.n_train):
                raise NonFiniteError("poisoned pass")
            return real(*args)

        monkeypatch.setattr(trainer, name, poisoned)
        return configs, ds, thetas

    def assert_ends_as_inline(self, monkeypatch, configs, ds, last_step, delta_null):
        use_worker(monkeypatch, True)
        overlapped = run_training(configs, ds)
        use_worker(monkeypatch, False)
        inline = run_training(configs, ds)
        assert self.logs(configs, overlapped) == self.logs(configs, inline)
        (ok_a, sa), (bad, sb), (ok_c, sc) = overlapped
        assert sb.diverged and not sa.diverged and not sc.diverged
        assert bad[-1].step == last_step and (bad[-1].delta_loss is None) == delta_null
        assert all(r.train_loss is not None for r in bad)
        for cfg, (records, _) in ((configs[0], overlapped[0]), (configs[2], overlapped[2])):
            alone, _ = run_training(cfg, ds)
            assert records_of(records) == records_of(alone)

    def test_stacked_cell_whose_delta_pass_overflows_ends_as_inline(self, monkeypatch):
        # step 3's delta_loss pass is at the step-4 parameters: the cell
        # keeps step 3's record, with delta_loss null, and ends diverged
        configs, ds, _ = self.poisoned_stack(monkeypatch, 4, "delta")
        self.assert_ends_as_inline(monkeypatch, configs, ds, last_step=3, delta_null=True)

    def test_stacked_cell_whose_loss_pass_overflows_ends_as_inline(self, monkeypatch):
        # only the validation pass at step 4 raises: the stacked step replays
        # cell by cell and the cell ends diverged with its log through step 3
        configs, ds, _ = self.poisoned_stack(monkeypatch, 4, "val")
        self.assert_ends_as_inline(monkeypatch, configs, ds, last_step=3, delta_null=False)

    @pytest.mark.parametrize("on", [True, False], ids=["worker", "inline"])
    def test_loss_pass_error_is_raised_ahead_of_the_hessians(self, on, monkeypatch):
        # serially the loss passes run first, so their NonFiniteError ends
        # the cell as diverged and the Hessian's error never shows
        configs, ds, thetas = self.poisoned_stack(monkeypatch, 3, "val")
        real_hessian = trainer.hessian_spectrum

        def hessian(spec, theta, *args, **kwargs):
            if any(np.array_equal(row, thetas[3]) for row in theta):
                raise NoConvergenceError("poisoned Hessian")
            return real_hessian(spec, theta, *args, **kwargs)

        monkeypatch.setattr(trainer, "hessian_spectrum", hessian)
        use_worker(monkeypatch, on)
        records, summary = run_training(configs[1], ds)
        assert summary.diverged and records[-1].step == 2
        (_, s1), (bad, s2), (_, s3) = run_training(configs, ds)
        assert s2.diverged and bad[-1].step == 2 and not s1.diverged and not s3.diverged

    def test_worker_thread_ends_with_the_run(self, monkeypatch):
        ds = smoke_dataset(n=128)
        configs = self.stack_configs(self.BN_SPEC, "fd")
        use_worker(monkeypatch, True)
        before = threading.active_count()
        run_training(configs, ds)
        assert threading.active_count() == before
        real_forward = trainer.forward_loss

        def forward(spec, theta, batch, mode):
            if threading.current_thread() is not threading.main_thread():
                raise TypeError("bug in a loss pass")
            return real_forward(spec, theta, batch, mode)

        monkeypatch.setattr(trainer, "forward_loss", forward)
        with pytest.raises(TypeError, match="bug in a loss pass"):
            run_training(configs, ds)
        assert threading.active_count() == before


class TestSerialization:
    def test_jsonl_roundtrip_and_schema(self):
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=1, eval_every=1)
        records, _ = run_training(cfg, ds)
        text = "\n".join(metric_log_lines(cfg, records)) + "\n"
        validate_metric_log(text)
        meta, parsed = parse_metric_log(text)
        assert meta["schema_version"] == 1
        assert meta["prng_algorithm"] == "pcg64"
        assert meta["config_hash"] == config_hash(cfg.to_dict())
        assert len(parsed) == len(records)
        assert parsed[0].to_json_dict() == records[0].to_json_dict()

    @pytest.mark.parametrize("field, value", [("delta_loss", -np.inf), ("g_ratio", np.nan)])
    def test_non_finite_record_is_refused_naming_the_file(self, field, value):
        cfg = smoke_config(epochs=1, eval_every=1)
        records = [MetricRecord(step=0, epoch=0, **{field: value})]
        with pytest.raises(NonFiniteError, match="logs/cell_00_00.jsonl"):
            metric_log_lines(cfg, records, "logs/cell_00_00.jsonl")

    def test_log_bytes_reproducible(self):
        ds = smoke_dataset(n=128)
        cfg = smoke_config(epochs=1, eval_every=1)
        a, _ = run_training(cfg, ds)
        b, _ = run_training(cfg, ds)
        assert metric_log_lines(cfg, a) == metric_log_lines(cfg, b)

    def test_validate_rejects_non_increasing_steps(self):
        lines = [
            json.dumps({"schema_version": 1, "config": {}, "prng_algorithm": "pcg64", "artifact_version": "x"}),
            json.dumps(MetricRecord(step=5, epoch=0).to_json_dict()),
            json.dumps(MetricRecord(step=5, epoch=0).to_json_dict()),
        ]
        with pytest.raises(InvalidConfigError):
            validate_metric_log("\n".join(lines))


def test_summarize_run_empty_log():
    summary = summarize_run([], diverged=False, accuracy_threshold=0.6)
    assert summary.max_lambda_k1 is None
    assert summary.threshold_epoch is None
    assert summary.alpha_series == []

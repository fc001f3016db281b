"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest -s tests/test_acceptance.py`` to see
them). The desk-scale training criteria share session fixtures so the sweep
runs execute once.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from breakeven.cli import main
from breakeven.datasets import make_dataset
from breakeven.errors import DegenerateProjectionError, RankDeficientError
from breakeven.linalg import DenseSymmetric, LinearOperator, jacobi_eigh, lanczos_topk
from breakeven.netmodel import (
    Batch,
    MlpSpec,
    bn_batch_statistics,
    forward_loss,
    grad,
    hvp_fd,
    hvp_pearlmutter,
    init_params,
    linearize,
)
from breakeven.quadratic import (
    DECREASING,
    INCREASING,
    GrowthSchedule,
    QuadraticModel,
    SgdSetting,
    ensemble_second_moments,
    fit_growth_rate,
    run_growth_dynamics,
    stability_lhs,
)
from breakeven.spectra import (
    GradientSample,
    gram_from_gradients,
    k_spectrum,
    m_sensitivity_report,
    pearson,
)
from breakeven.trainer import (
    RunConfig,
    SpectraParams,
    breakeven_indicators,
    metric_log_lines,
    run_training,
    sweep,
    validate_metric_log,
)

pytestmark = pytest.mark.slow

# ---------------------------------------------------------------------------
# shared desk-scale experiment configuration (criteria 7-11)
#
# gaussian blobs with moderate overlap, square loss on one-hot targets, and
# heavy-ball momentum: the overlap keeps a persistent gradient field so the
# spectral maxima reflect where each learning rate lets the trajectory
# settle, and the square loss avoids the softmax saturation that otherwise
# freezes desk-scale curvature

BLOBS = {"kind": "gaussian_blobs", "n": 2000, "classes": 2, "radius": 1.0, "sigma": 0.8,
         "val_fraction": 0.2}
DATA_SEED = 1
ETA_GRID = [0.01, 0.05, 0.2]
S_GRID = [8, 32, 128]
N_SEEDS = 5
EPOCHS = 100


def desk_config(**over):
    base = dict(
        model=MlpSpec(layer_sizes=(2, 32, 32, 2), activation="relu", loss="mse",
                      init_gain=0.6, seed=0),
        eta=0.05,
        batch_size=32,
        momentum=0.7,
        epochs=EPOCHS,
        eval_every=25,
        spectra=SpectraParams(n_gradient_samples=40, gram_batch_size=8, lanczos_iters=30),
        seed=2024,
    )
    base.update(over)
    return RunConfig(**base)


def seed_mean(report, metric):
    return report.seed_means[metric]


def strictly_decreasing(v):
    return all(a > b for a, b in zip(v, v[1:]))


def strictly_increasing(v):
    return all(a < b for a, b in zip(v, v[1:]))


@pytest.fixture(scope="session")
def blob_dataset():
    return make_dataset(BLOBS, seed=DATA_SEED)


@pytest.fixture(scope="session")
def eta_sweep(blob_dataset):
    t0 = time.time()
    report = sweep(desk_config(), blob_dataset, "eta", ETA_GRID, seeds=list(range(N_SEEDS)))
    report.elapsed = time.time() - t0
    return report


@pytest.fixture(scope="session")
def batch_sweep(blob_dataset):
    t0 = time.time()
    report = sweep(desk_config(), blob_dataset, "batch_size", S_GRID, seeds=list(range(N_SEEDS)))
    report.elapsed = time.time() - t0
    return report


# ---------------------------------------------------------------------------


def test_criterion_01_breakeven_closed_form(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "etas": [0.5, 0.1, 0.02],
        "batch_sizes": [100],
        "alpha": 0.7,
        "psi": 0.4,
        "curvatures": {"kind": "uniform", "low": 0.5, "high": 1.5, "count": 100, "seed": 0},
    }))
    t0 = time.time()
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    elapsed = time.time() - t0
    rows = (tmp_path / "out" / "breakeven_table.csv").read_text().splitlines()[2:]
    checked = 0
    for row in rows:
        eta, s, n, *_ , lam, _flag = row.split(",")
        assert s == n == "100"
        expected = 2.0 / float(eta)
        assert abs(float(lam) - expected) <= 1e-12 * expected
        checked += 1
    assert checked == 3
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - S=N break-even equals 2/eta to 1e-12 rel for "
          f"eta in {{0.5, 0.1, 0.02}} ({elapsed:.2f}s)")


def test_criterion_02_stability_vs_monte_carlo():
    rng = np.random.default_rng(20260809)
    t0 = time.time()
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(30, 101))
        model = QuadraticModel(curvatures=rng.uniform(0.5, 1.5, size=n))
        setting = SgdSetting(eta=float(rng.uniform(0.01, 0.15)), batch_size=int(rng.integers(1, n + 1)))
        lhs = stability_lhs(model, setting)
        sm = ensemble_second_moments(model, setting, psi0=1.0, steps=200, n_traj=10_000,
                                     seed=1000 + case)
        diff = abs(fit_growth_rate(sm) - np.log(lhs))
        worst = max(worst, diff)
        assert diff <= 0.02, f"case {case}: |fitted - log lhs| = {diff:.4f}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2: PASS - 20 randomized cases, worst |fitted-log(LHS)| = "
          f"{worst:.5f} <= 0.02 ({elapsed:.0f}s)")


def test_criterion_03_theorem_orderings():
    t0 = time.time()
    n = 500
    etas = [0.005, 0.01, 0.05, 0.1, 0.2, 0.5]
    sizes = [1, 4, 16, 64, 256, 500]
    for direction, lam0, rho in ((INCREASING, 0.01, 1.01), (DECREASING, 5000.0, 1 / 1.01)):
        lam_eta = []
        flip_eta = []
        for eta in etas:
            schedule = GrowthSchedule(direction=direction, lambda0=lam0, rho=rho, psi0=1.0)
            res = run_growth_dynamics(SgdSetting(eta=eta, batch_size=32), schedule, alpha=0.3, n=n)
            assert res.flipped
            lam_eta.append(res.lambda_max)
            flip_eta.append(res.lambda_at_flip)
        assert all(a >= b for a, b in zip(lam_eta, lam_eta[1:])), f"{direction}: lambda_max vs eta"
        assert all(a >= b for a, b in zip(flip_eta, flip_eta[1:])), f"{direction}: flip vs eta"
        lam_s = []
        flip_s = []
        for s in sizes:
            schedule = GrowthSchedule(direction=direction, lambda0=lam0, rho=rho, psi0=1.0)
            res = run_growth_dynamics(SgdSetting(eta=0.05, batch_size=s), schedule, alpha=0.3, n=n)
            assert res.flipped
            lam_s.append(res.lambda_max)
            flip_s.append(res.lambda_at_flip)
        assert all(a <= b for a, b in zip(lam_s, lam_s[1:])), f"{direction}: lambda_max vs S"
        assert all(a <= b for a, b in zip(flip_s, flip_s[1:])), f"{direction}: flip vs S"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3: PASS - growth-dynamics maxima monotone in eta (6 values) and "
          f"S (6 values), both schedule directions ({elapsed:.1f}s)")


def test_criterion_04_gram_dense_equivalence():
    rng = np.random.default_rng(4)
    t0 = time.time()
    worst_eig = 0.0
    worst_tr = 0.0
    for _ in range(50):
        L = int(rng.integers(3, 11))
        D = int(rng.integers(4, 65))
        grads = rng.standard_normal((L, D))
        gbar = grads.mean(axis=0)
        gram = gram_from_gradients(GradientSample(grads - gbar))
        summary = k_spectrum(gram)
        centered = grads - gbar
        cov = centered.T @ centered / L
        dense = jacobi_eigh(DenseSymmetric.from_array(cov))[0]
        nz = summary.gram_eigenvalues[summary.gram_eigenvalues > 1e-12]
        diff = float(np.max(np.abs(nz - dense[: nz.size]))) if nz.size else 0.0
        worst_eig = max(worst_eig, diff)
        assert diff <= 1e-10
        tr_rel = abs(summary.trace_k - float(np.trace(cov))) / max(abs(float(np.trace(cov))), 1e-300)
        worst_tr = max(worst_tr, tr_rel)
        assert tr_rel <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4: PASS - 50 cases, worst eigenvalue gap {worst_eig:.2e} <= 1e-10, "
          f"worst trace rel err {worst_tr:.2e} <= 1e-9 ({elapsed:.1f}s)")


def test_criterion_05_lanczos_vs_jacobi():
    rng = np.random.default_rng(5)
    t0 = time.time()
    worst = 0.0
    for case in range(25):
        a = rng.standard_normal((50, 50))
        dense = DenseSymmetric.from_array((a + a.T) / 2)
        top5 = jacobi_eigh(dense)[0][:5]
        op = LinearOperator(dim=dense.dim, apply=lambda vs: vs @ dense.entries)
        ritz = lanczos_topk(op, k=5, max_iters=50, seeds=[case])[0]
        diff = float(np.max(np.abs(ritz - top5)))
        worst = max(worst, diff)
        assert diff <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5: PASS - 25 random 50x50 matrices, worst top-5 gap "
          f"{worst:.2e} <= 1e-8 ({elapsed:.1f}s)")


def test_criterion_06_gradient_and_hvp_checks():
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst_grad = 0.0
    worst_hvp = 0.0
    for i, (activation, loss, bn) in enumerate(
        (a, l, b)
        for a in ("relu", "tanh")
        for l in ("softmax_cross_entropy", "mse")
        for b in (False, True)
    ):
        spec = MlpSpec(layer_sizes=(3, 6, 5, 4), activation=activation, batch_norm=bn,
                       loss=loss, seed=600 + i)
        theta = init_params(spec)
        x = rng.standard_normal((7, 3))
        labels = rng.integers(0, 4, size=7) if loss == "softmax_cross_entropy" else rng.standard_normal((7, 4))
        batch = Batch(inputs=x, labels=labels)

        analytic = grad(spec, theta, batch)
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            h = 1e-5 * max(1.0, abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (forward_loss(spec, tp, batch).mean_loss - forward_loss(spec, tm, batch).mean_loss) / (2 * h)
        denom = np.maximum.reduce([np.ones_like(analytic), np.abs(analytic), np.abs(fd)])
        rel = float(np.max(np.abs(analytic - fd) / denom))
        worst_grad = max(worst_grad, rel)
        assert rel < 1e-5, f"{activation}/{loss}/bn={bn}: grad rel err {rel:.2e}"

        if not bn:
            v = rng.standard_normal(theta.size)
            hp = hvp_pearlmutter(spec, theta, batch, v, linearize(spec, theta, batch))
            hf = hvp_fd(spec, theta, batch, v)
            hrel = float(np.linalg.norm(hp - hf) / max(np.linalg.norm(hp), 1e-300))
            worst_hvp = max(worst_hvp, hrel)
            assert hrel < 1e-4, f"{activation}/{loss}: hvp rel err {hrel:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6: PASS - grad vs FD worst rel {worst_grad:.2e} < 1e-5; exact vs FD "
          f"HVP worst rel {worst_hvp:.2e} < 1e-4 ({elapsed:.0f}s)")


def test_criterion_07_variance_reduction_orderings(eta_sweep, batch_sweep):
    k1 = seed_mean(eta_sweep, "max_lambda_k1")
    h1 = seed_mean(eta_sweep, "max_lambda_h1")
    assert strictly_decreasing(k1), f"max lambda_k1 vs eta: {k1}"
    assert strictly_decreasing(h1), f"max lambda_h1 vs eta: {h1}"
    k1_s = seed_mean(batch_sweep, "max_lambda_k1")
    assert strictly_increasing(k1_s), f"max lambda_k1 vs S: {k1_s}"
    elapsed = eta_sweep.elapsed + batch_sweep.elapsed
    assert elapsed < 1200.0
    print(f"\nACCEPTANCE 7: PASS - seed-mean max lambda_k1 {['%.4g' % v for v in k1]} and "
          f"max lambda_h1 {['%.4g' % v for v in h1]} strictly decreasing in eta; "
          f"max lambda_k1 {['%.4g' % v for v in k1_s]} strictly increasing in S "
          f"({elapsed:.0f}s total)")


def test_criterion_08_preconditioning_orderings(eta_sweep, batch_sweep):
    cond_eta = seed_mean(eta_sweep, "max_cond_ratio")
    trace_eta = seed_mean(eta_sweep, "max_trace_k")
    cond_s = seed_mean(batch_sweep, "max_cond_ratio")
    assert strictly_increasing(cond_eta), f"max cond_ratio vs eta: {cond_eta}"
    assert strictly_decreasing(trace_eta), f"max trace_k vs eta: {trace_eta}"
    assert strictly_decreasing(cond_s), f"max cond_ratio vs S: {cond_s}"
    print(f"\nACCEPTANCE 8: PASS - seed-mean max cond_ratio {['%.4g' % v for v in cond_eta]} "
          f"increasing in eta and {['%.4g' % v for v in cond_s]} decreasing in S; "
          f"max trace_k {['%.4g' % v for v in trace_eta]} decreasing in eta")


def test_criterion_09_early_phase_diagnostics(eta_sweep, tmp_path):
    cells = [c for c in eta_sweep.cells if c.axis_value == 0.01 and c.records]
    assert cells, "eta=0.01 runs missing"
    records = cells[0].records
    argmax_step, first_neg, r = breakeven_indicators(records)
    assert first_neg is not None, "no negative delta_loss checkpoint"
    window = 0.2 * max(argmax_step, 1)
    assert abs(first_neg - argmax_step) <= window, (
        f"first negative delta_loss step {first_neg} outside +-20% of argmax {argmax_step}"
    )
    assert r is not None and r >= 0.4, f"lambda_k1/lambda_h1 pearson {r}"
    if r < 0.6:
        # soft band: record the evidence instead of failing the gate
        from breakeven.svg import Panel, Series, render_panel

        panel = Panel(
            title="early-phase correlation (soft failure)",
            x_label="step",
            y_label="spectral norms",
            series=[
                Series("lambda_k1", [rec.step for rec in records], [rec.lambda_k1 for rec in records]),
                Series("lambda_h1", [rec.step for rec in records],
                       [rec.lambda_h_top[0] if rec.lambda_h_top else None for rec in records]),
            ],
        )
        (tmp_path / "criterion9_softfail.svg").write_text(render_panel(panel))
        print(f"\nACCEPTANCE 9: SOFT PASS - pearson r = {r:.3f} in [0.4, 0.6); plot written to "
              f"{tmp_path}/criterion9_softfail.svg; delta_loss step {first_neg} vs argmax {argmax_step}")
    else:
        print(f"\nACCEPTANCE 9: PASS - pearson r = {r:.3f} >= 0.6 up to argmax step {argmax_step}; "
              f"first negative delta_loss at {first_neg} (within +-20%)")


def test_criterion_10_m_sensitivity(blob_dataset):
    t0 = time.time()
    spec = MlpSpec(layer_sizes=(2, 16, 16, 2), activation="relu", loss="mse",
                   init_gain=0.6, seed=77)
    config = RunConfig(
        model=spec, eta=0.02, batch_size=32, momentum=0.7, epochs=24, eval_every=100,
        spectra=SpectraParams(n_gradient_samples=10, lanczos_iters=15), seed=31,
    )
    thetas = []
    run_training(config, blob_dataset, param_sink=lambda step, theta: thetas.append(theta))
    assert len(thetas) >= 10
    from breakeven.trainer import _as_model_batch

    train_batch = _as_model_batch(spec, blob_dataset.train())
    report = m_sensitivity_report(
        spec, thetas, train_batch, seed=99, m_values=(1, 32), samples_times_batch=320,
    )
    elapsed = time.time() - t0
    assert report.pearson_r is not None
    assert report.pearson_r >= 0.8, f"pearson r = {report.pearson_r:.3f}"
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 10: PASS - lambda_k1 series at M=1 vs M=32 (L*M=320 fixed) "
          f"pearson r = {report.pearson_r:.3f} >= 0.8 over {len(thetas)} checkpoints ({elapsed:.0f}s)")


@pytest.fixture(scope="session")
def bn_sweep(blob_dataset):
    t0 = time.time()
    config = desk_config(
        model=MlpSpec(layer_sizes=(2, 32, 32, 2), activation="relu", loss="mse",
                      batch_norm=True, init_gain=0.6, seed=0),
        epochs=30,
        spectra=SpectraParams(n_gradient_samples=25, gram_batch_size=8,
                              lanczos_iters=20, hvp_method="fd"),
    )
    report = sweep(config, blob_dataset, "eta", [0.01, 0.2], seeds=[0, 1, 2])
    report.elapsed = time.time() - t0
    return report


def test_criterion_11_bn_instrumentation(bn_sweep, blob_dataset):
    cond = seed_mean(bn_sweep, "max_cond_ratio")
    assert cond[1] > cond[0], f"BN max cond_ratio low->high eta: {cond}"

    steps_per_epoch = int(np.ceil(blob_dataset.n_train / 32))
    drops = []
    for cell in bn_sweep.cells:
        if cell.axis_value != 0.2 or not cell.records:
            continue
        start = cell.records[0]
        epoch5 = [r for r in cell.records if r.step <= 5 * steps_per_epoch]
        gamma0 = start.bn_gamma_norms[-1]
        gamma5 = epoch5[-1].bn_gamma_norms[-1]
        drops.append(gamma5 - gamma0)
    assert drops and float(np.mean(drops)) < 0.0, f"gamma norm changes over first 5 epochs: {drops}"
    assert bn_sweep.elapsed < 600.0
    print(f"\nACCEPTANCE 11: PASS - BN max cond_ratio {cond[1]:.4g} (eta=0.2) > {cond[0]:.4g} "
          f"(eta=0.01); last-layer gamma norm change over first 5 epochs at eta=0.2: "
          f"{['%.3f' % d for d in drops]} (mean < 0) ({bn_sweep.elapsed:.0f}s)")


def test_criterion_12_reproducibility_and_formats(tmp_path, eta_sweep, bn_sweep):
    t0 = time.time()
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "model": {"layer_sizes": [2, 8, 8, 2], "activation": "relu", "seed": 3},
        "dataset": {"kind": "gaussian_blobs", "n": 160, "classes": 2, "radius": 0.25,
                    "sigma": 0.2, "seed": 1},
        "eta": 0.05, "batch_size": 32, "epochs": 2, "eval_every": 10, "seed": 7,
        "spectra": {"n_gradient_samples": 6, "lanczos_iters": 10, "top_k": 2},
    }))
    for out in ("a", "b"):
        assert main(["train", "--config", str(config), "--out", str(tmp_path / out), "--quiet"]) == 0
    jsonl_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    assert jsonl_a == (tmp_path / "b" / "metrics.jsonl").read_bytes()

    report_cfg = tmp_path / "report.json"
    report_cfg.write_text(json.dumps({
        "logs": [str(tmp_path / "a" / "metrics.jsonl")],
        "panels": [{"y": "lambda_k1", "x": "step"}, {"y": "train_loss", "x": "step", "log_y": True}],
    }))
    for out in ("ra", "rb"):
        assert main(["report", "--config", report_cfg.as_posix(), "--out", str(tmp_path / out), "--quiet"]) == 0
    svg_a = (tmp_path / "ra" / "panel_00_lambda_k1.svg").read_bytes()
    assert svg_a == (tmp_path / "rb" / "panel_00_lambda_k1.svg").read_bytes()

    validate_metric_log(jsonl_a.decode("utf-8"))
    validated = 1
    for report in (eta_sweep, bn_sweep):
        for cell in report.cells:
            if cell.records is not None and cell.config is not None:
                validate_metric_log("\n".join(metric_log_lines(cell.config, cell.records)) + "\n")
                validated += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 12: PASS - byte-identical JSONL and SVG on reruns; schema validation "
          f"passed on {validated} acceptance logs ({elapsed:.0f}s)")

"""Cross-module invariants as property tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from breakeven.netmodel import Batch, MlpSpec, grad, grouped_grads, init_params
from breakeven.quadratic import QuadraticModel, SgdSetting, noise_factor, stability_lhs
from breakeven.spectra import GradientSample, grad_subspace_ratio, gram_from_gradients, k_spectrum, k_top_eigvecs


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_stability_lhs_matches_direct_formula(n, seed, eta):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.1, 3.0, size=n)
    model = QuadraticModel(curvatures=h)
    s = int(rng.integers(1, n + 1))
    lhs = stability_lhs(model, SgdSetting(eta=eta, batch_size=s))
    mean = h.sum() / n
    var = ((h - mean) ** 2).sum() / n
    direct = (1.0 - eta * mean) ** 2 + var * eta * eta * noise_factor(s, n)
    assert lhs == direct


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_subspace_ratio_at_least_one(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(3, 9))
    dim = int(rng.integers(L, 30))
    k = int(rng.integers(1, L - 1))
    grads = rng.standard_normal((L, dim))
    sample = GradientSample(grads - grads.mean(axis=0))
    w = k_top_eigvecs(k_spectrum(gram_from_gradients(sample)), k=k)
    g = rng.standard_normal(dim)
    ratio = grad_subspace_ratio(g, sample, w)
    assert ratio >= 1.0


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_gram_spectrum_bounds(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(3, 9))
    D = int(rng.integers(4, 40))
    grads = rng.standard_normal((L, D))
    gbar = grads.mean(axis=0)
    summary = k_spectrum(gram_from_gradients(GradientSample(grads - gbar)))
    assert summary.trace_k >= summary.lambda_k1 - 1e-12
    assert summary.lambda_k1 >= summary.lambda_k_star >= 0.0
    if summary.cond_ratio is not None:
        assert 0.0 <= summary.cond_ratio <= 1.0 + 1e-12
    # smallest nonzero <= mean nonzero <= largest
    nz = summary.gram_eigenvalues[summary.gram_eigenvalues > 1e-12]
    if nz.size:
        assert summary.lambda_k_star <= np.mean(nz) + 1e-12
        assert np.mean(nz) <= summary.lambda_k1 + 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**4))
def test_per_example_mean_consistency_random_nets(seed):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(
        layer_sizes=(int(rng.integers(2, 5)), int(rng.integers(3, 8)), int(rng.integers(2, 4))),
        activation=str(rng.choice(["relu", "tanh", "identity"])),
        seed=seed,
    )
    theta = init_params(spec)
    n = int(rng.integers(1, 10))
    batch = Batch(
        inputs=rng.standard_normal((n, spec.layer_sizes[0])),
        labels=rng.integers(0, spec.layer_sizes[-1], size=n),
    )
    peg = grouped_grads(spec, theta, batch, np.arange(n)[:, None])
    assert np.max(np.abs(peg.mean(axis=0) - grad(spec, theta, batch))) < 1e-12

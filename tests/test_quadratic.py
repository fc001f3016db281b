import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from breakeven import quadratic
from breakeven.errors import DegenerateOffsetError, InvalidParamsError
from breakeven.quadratic import (
    BREAKEVEN,
    DECREASING,
    INCREASING,
    STABLE,
    UNSTABLE,
    GrowthResult,
    GrowthSchedule,
    QuadraticModel,
    SgdSetting,
    breakeven_curvature_closed_form,
    ensemble_second_moments,
    fit_growth_rate,
    phase_diagram,
    run_growth_dynamics,
    stability_lhs,
    stability_lhs_scalar,
)
from breakeven.rng import make_rng


def uniform_model(n, seed, lo=0.5, hi=1.5):
    rng = np.random.default_rng(seed)
    return QuadraticModel(curvatures=rng.uniform(lo, hi, size=n))


class TestStabilityLhs:
    def test_full_batch_breakeven_at_two_over_eta(self):
        # lambda_h == 2/eta with S == N sits exactly on the boundary
        model = QuadraticModel(curvatures=np.full(50, 20.0))
        lhs = stability_lhs(model, SgdSetting(eta=0.1, batch_size=50))
        assert lhs == 1.0

    def test_full_batch_noise_term_vanishes_for_any_spread(self):
        model = QuadraticModel(curvatures=np.array([10.0, 30.0, 20.0, 20.0]))
        lhs = stability_lhs(model, SgdSetting(eta=0.1, batch_size=4))
        assert lhs == (1.0 - 0.1 * 20.0) ** 2

    def test_eta_zero_is_exactly_one_and_small_eta_below_one(self):
        model = uniform_model(40, 3)
        assert stability_lhs(model, SgdSetting(eta=0.0, batch_size=8)) == 1.0
        assert stability_lhs(model, SgdSetting(eta=1e-6, batch_size=8)) < 1.0

    def test_matches_monte_carlo_multiplier(self):
        rng = np.random.default_rng(11)
        model = QuadraticModel(curvatures=rng.uniform(0.5, 1.5, size=100))
        setting = SgdSetting(eta=0.05, batch_size=10)
        lhs = stability_lhs(model, setting)
        sm = ensemble_second_moments(model, setting, psi0=1.0, steps=200, n_traj=4000, seed=17)
        assert abs(fit_growth_rate(sm) - np.log(lhs)) < 0.02

    def test_population_variance_used(self):
        h = np.array([1.0, 2.0, 3.0, 4.0])
        model = QuadraticModel(curvatures=h)
        assert model.s_squared == pytest.approx(np.var(h), abs=0.0)

    def test_rejects_nonpositive_mean_curvature(self):
        with pytest.raises(InvalidParamsError):
            QuadraticModel(curvatures=np.array([1.0, -3.0]))


@dataclass(frozen=True)
class SimulationResult:
    trajectory: np.ndarray  # psi values, trajectory[0] == psi0
    diverged: bool


def simulate_sgd(model, setting, psi0, steps, seed, divergence_threshold=1e12):
    """One SGD trajectory of the quadratic, the recursion that
    ``ensemble_second_moments`` runs for a whole ensemble, with each batch
    drawn without replacement by ``rng.choice``; truncated as diverged once
    |psi| exceeds the threshold."""
    n, s, h = model.n, setting.batch_size, model.curvatures
    rng = make_rng(seed)
    psi = float(psi0)
    out = [psi]
    for _ in range(steps):
        hbar = model.lambda_h if s == n else float(np.mean(h[rng.choice(n, size=s, replace=False)]))
        psi = psi - setting.eta * hbar * psi
        out.append(psi)
        if abs(psi) > divergence_threshold:
            return SimulationResult(trajectory=np.array(out), diverged=True)
    return SimulationResult(trajectory=np.array(out), diverged=False)


class TestSimulateSgd:
    def test_eta_zero_constant_trajectory(self):
        model = uniform_model(20, 0)
        res = simulate_sgd(model, SgdSetting(eta=0.0, batch_size=5), psi0=2.0, steps=10, seed=0)
        assert np.array_equal(res.trajectory, np.full(11, 2.0))
        assert not res.diverged

    def test_full_batch_matches_geometric_recursion(self):
        model = QuadraticModel(curvatures=np.array([1.0, 2.0, 3.0]))
        setting = SgdSetting(eta=0.2, batch_size=3)
        res = simulate_sgd(model, setting, psi0=2.0, steps=50, seed=1)
        expected = 2.0 * (1.0 - 0.2 * 2.0) ** np.arange(51)
        rel = np.abs(res.trajectory - expected) / np.abs(expected)
        assert np.max(rel) < 1e-12

    def test_full_batch_geometric_with_offset_minimum(self):
        # psi is measured from the minimum: a minimum at 0.5 and a start at
        # 2.0 is the deviation 1.5, and the iterates are 0.5 + psi_t
        model = QuadraticModel(curvatures=np.array([1.0, 2.0, 3.0]))
        setting = SgdSetting(eta=0.2, batch_size=3)
        res = simulate_sgd(model, setting, psi0=2.0 - 0.5, steps=15, seed=1)
        expected = 0.5 + 1.5 * (1.0 - 0.2 * 2.0) ** np.arange(16)
        rel = np.abs(0.5 + res.trajectory - expected) / np.abs(expected - 0.5)
        assert np.max(rel) < 1e-12

    def test_divergence_truncates(self):
        model = QuadraticModel(curvatures=np.full(10, 100.0))
        res = simulate_sgd(
            model, SgdSetting(eta=1.0, batch_size=10), psi0=1.0, steps=1000, seed=0,
            divergence_threshold=1e6,
        )
        assert res.diverged
        assert len(res.trajectory) < 1001
        assert abs(res.trajectory[-1]) > 1e6

    def test_determinism(self):
        model = uniform_model(30, 9)
        setting = SgdSetting(eta=0.1, batch_size=4)
        a = simulate_sgd(model, setting, psi0=1.0, steps=100, seed=21)
        b = simulate_sgd(model, setting, psi0=1.0, steps=100, seed=21)
        assert np.array_equal(a.trajectory, b.trajectory)


def ensemble_reference(model, setting, psi0, steps, n_traj, rng):
    # one step at a time, in the documented draw order: Floyd's algorithm on
    # k = min(s, n - s) examples, one rng.integers(0, j + 1, size=n_traj)
    # per j = n - k, ..., n - 1, a pick a trajectory already holds taking j;
    # the batch is the picks, or their complement when k < s
    n, s, h = model.n, setting.batch_size, model.curvatures
    k = min(s, n - s)
    dev = np.full(n_traj, float(psi0))
    out = [float(np.mean(dev * dev))]
    for _ in range(steps):
        picks = [[] for _ in range(n_traj)]
        for j in range(n - k, n):
            for held, t in zip(picks, rng.integers(0, j + 1, size=n_traj)):
                held.append(j if t in held else int(t))
        sums = np.array([sum(h[i] for i in held) for held in picks])
        hbar = (float(np.sum(h)) - sums) / s if k < s else sums / s
        dev = dev * (1.0 - setting.eta * hbar)
        out.append(float(np.mean(dev * dev)))
    return np.array(out)


class TestBatchSums:
    @pytest.mark.parametrize("s", range(1, 7))
    def test_draws_every_subset_uniformly(self, s):
        # curvature 2**i marks example i, so a row's sum is the bit set of its
        # picks; s > 3 draws the complement, s = 3 is n/2, s = 6 draws nothing
        n, rows = 6, 30_000
        k = min(s, n - s)
        sums = quadratic._batch_sums(make_rng(s), 2.0 ** np.arange(n), k, rows)
        picks = sums.astype(np.int64)
        assert np.array_equal(picks, sums)
        batches = picks if k == s else (2**n - 1) - picks
        assert all(bin(b).count("1") == s for b in np.unique(batches))
        subsets = [sum(2**i for i in c) for c in itertools.combinations(range(n), s)]
        counts = np.array([np.count_nonzero(batches == b) for b in subsets])
        assert counts.sum() == rows
        p = 1.0 / len(subsets)
        assert np.all(np.abs(counts / rows - p) <= 5 * np.sqrt(p * (1 - p) / rows))


class TestEnsembleSecondMoments:
    @pytest.mark.parametrize(
        "n, batch_size, n_traj, steps",
        [(50, 5, 100, 200), (30, 1, 40, 60), (100, 99, 30, 50), (40, 40, 20, 30), (60, 12, 600, 9)],
    )
    def test_matches_per_step_floyd_reference(self, n, batch_size, n_traj, steps, monkeypatch):
        # one step per block, so the draws are made step by step as in the reference
        monkeypatch.setattr(quadratic, "ENSEMBLE_BLOCK_BYTES", 1)
        model = uniform_model(n, n)
        setting = SgdSetting(eta=0.1, batch_size=batch_size)
        got = ensemble_second_moments(model, setting, 1.5, steps, n_traj, seed=7)
        want = ensemble_reference(model, setting, 1.5, steps, n_traj, make_rng(7))
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("n_traj, n, steps", [(100, 50, 200), (1500, 30, 20)])
    def test_peak_memory_does_not_grow_with_steps(self, traced_peak, n_traj, n, steps):
        # (100, 50) draws 107 steps per block, so the short run holds one full
        # block and the long run 18; (1500, 30) draws 8 steps per block
        model = uniform_model(n, 2)
        setting = SgdSetting(eta=0.05, batch_size=n // 3)

        def peak(k):
            return traced_peak(lambda: ensemble_second_moments(model, setting, 1.0, k, n_traj, seed=4))[1]

        short, long = peak(steps), peak(10 * steps)
        out_growth = 8 * 9 * steps
        assert long <= short + out_growth + 4096
        assert long < 3 * max(quadratic.ENSEMBLE_BLOCK_BYTES, 8 * n_traj * n) + 8 * (10 * steps + 1)

    def test_batch_larger_than_population_rejected(self):
        with pytest.raises(InvalidParamsError):
            ensemble_second_moments(uniform_model(10, 0), SgdSetting(eta=0.1, batch_size=11), 1.0, 5, 4, seed=0)


class TestBreakevenClosedForm:
    @pytest.mark.parametrize("eta", [0.5, 0.1, 0.02])
    def test_full_batch_degenerates_to_two_over_eta(self, eta):
        res = breakeven_curvature_closed_form(eta, batch_size=64, n=64, alpha=0.7, psi=0.3)
        assert res.value == pytest.approx(2.0 / eta, rel=1e-15)
        assert not res.no_stable_curvature

    def test_alpha_zero_gives_two_over_eta_for_all_batch_sizes(self):
        for s in (1, 7, 50):
            res = breakeven_curvature_closed_form(0.1, batch_size=s, n=100, alpha=0.0, psi=1.0)
            assert res.value == pytest.approx(20.0, rel=1e-15)

    def test_matches_bisection_root(self):
        eta, s, n, alpha, psi = 0.02, 1, 101, 0.5, 1.0

        def lhs_minus_one(lam):
            s2 = alpha * lam / (psi * psi)
            return stability_lhs_scalar(lam, s2, eta, s, n) - 1.0

        lo, hi = 1e-6, 4.0 / eta
        assert lhs_minus_one(lo) < 0 < lhs_minus_one(hi)
        while hi - lo > 1e-10:
            mid = (lo + hi) / 2
            if lhs_minus_one(mid) < 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        res = breakeven_curvature_closed_form(eta, s, n, alpha, psi)
        assert res.value == pytest.approx(root, abs=1e-8)

    def test_degenerate_offset(self):
        with pytest.raises(DegenerateOffsetError):
            breakeven_curvature_closed_form(0.1, 1, 10, 0.5, 0.0)

    def test_negative_result_flagged(self):
        res = breakeven_curvature_closed_form(0.5, batch_size=1, n=101, alpha=10.0, psi=0.1)
        assert res.value <= 0.0
        assert res.no_stable_curvature


class TestGrowthDynamics:
    def test_full_batch_flip_near_two_over_eta(self):
        setting = SgdSetting(eta=0.1, batch_size=1000)
        schedule = GrowthSchedule(direction=INCREASING, lambda0=0.5, rho=1.001, psi0=1.0)
        res = run_growth_dynamics(setting, schedule, alpha=0.0, n=1000)
        assert res.flipped
        assert res.lambda_at_flip == pytest.approx(2.0 / 0.1, rel=5e-3)
        assert res.lambda_max == res.lambda_at_flip

    def test_conjecture_one_in_model_eta_ordering(self):
        schedule = GrowthSchedule(direction=INCREASING, lambda0=0.1, rho=1.01, psi0=1.0)
        res_hi = run_growth_dynamics(SgdSetting(eta=0.1, batch_size=32), schedule, alpha=0.5, n=1000)
        res_lo = run_growth_dynamics(SgdSetting(eta=0.01, batch_size=32), schedule, alpha=0.5, n=1000)
        assert res_hi.lambda_max < res_lo.lambda_max

    def test_batch_size_ordering(self):
        schedule = GrowthSchedule(direction=INCREASING, lambda0=0.1, rho=1.01, psi0=1.0)
        res_small = run_growth_dynamics(SgdSetting(eta=0.05, batch_size=8), schedule, alpha=0.5, n=1000)
        res_large = run_growth_dynamics(SgdSetting(eta=0.05, batch_size=64), schedule, alpha=0.5, n=1000)
        assert res_small.lambda_max < res_large.lambda_max

    def test_decreasing_direction_first_stable_ordering(self):
        schedule = GrowthSchedule(direction=DECREASING, lambda0=500.0, rho=1 / 1.01, psi0=1.0)
        res_hi = run_growth_dynamics(SgdSetting(eta=0.1, batch_size=32), schedule, alpha=0.5, n=1000)
        res_lo = run_growth_dynamics(SgdSetting(eta=0.01, batch_size=32), schedule, alpha=0.5, n=1000)
        assert res_hi.flipped and res_lo.flipped
        assert res_hi.lambda_at_flip < res_lo.lambda_at_flip

    def test_no_flip_reported_not_fatal(self):
        setting = SgdSetting(eta=0.001, batch_size=100)
        schedule = GrowthSchedule(direction=INCREASING, lambda0=0.001, rho=1.0001, psi0=1.0)
        res = run_growth_dynamics(setting, schedule, alpha=0.0, n=100, max_steps=10)
        assert not res.flipped
        assert res.lambda_at_flip is None
        assert res.step_of_breakeven is None

    def test_direction_mismatch_rejected(self):
        setting = SgdSetting(eta=0.1, batch_size=10)
        schedule = GrowthSchedule(direction=INCREASING, lambda0=1000.0, rho=1.01, psi0=1.0)
        with pytest.raises(InvalidParamsError):
            run_growth_dynamics(setting, schedule, alpha=0.0, n=10)

    def test_nonpositive_max_steps_rejected(self):
        schedule = GrowthSchedule(direction=INCREASING, lambda0=0.1, rho=1.01, psi0=1.0)
        with pytest.raises(InvalidParamsError):
            run_growth_dynamics(SgdSetting(eta=0.1, batch_size=10), schedule, alpha=0.0, n=10, max_steps=0)

    def test_offset_underflow_rejected(self):
        for psi0 in (0.0, 1e-200):
            with pytest.raises(InvalidParamsError):
                GrowthSchedule(direction=INCREASING, lambda0=1.0, rho=2.0, psi0=psi0)
        # eta = 0 never flips, and psi^2 reaches zero near step 538
        schedule = GrowthSchedule(direction=INCREASING, lambda0=1.0, rho=2.0, psi0=1.0)
        with pytest.raises(InvalidParamsError):
            run_growth_dynamics(SgdSetting(eta=0.0, batch_size=10), schedule, alpha=0.0, n=10, max_steps=1000)


def growth_reference(setting, schedule, alpha, n, max_steps):
    # the scalar recursion, one schedule step at a time
    def stable(lam, psi):
        s2 = alpha * lam / (psi * psi)
        return stability_lhs_scalar(lam, s2, setting.eta, setting.batch_size, n) <= 1.0

    lam, psi = schedule.lambda0, schedule.psi0
    start_stable = stable(lam, psi)
    r = max(schedule.rho, 1.0 / schedule.rho)
    lam_max = lam
    for step in range(1, max_steps + 1):
        psi = psi / r if start_stable else psi * r
        lam = lam * schedule.rho
        lam_max = max(lam_max, lam)
        if stable(lam, psi) != start_stable:
            return GrowthResult(lam_max, lam, psi, step, True)
    return GrowthResult(lam_max, None, psi, None, False)


GROWTH_CASES = {
    # name: (eta, batch_size, n, alpha, schedule)
    "increasing": (0.05, 8, 300, 0.5, GrowthSchedule(INCREASING, 0.05, 1.001, 1.0)),
    "decreasing": (0.1, 32, 1000, 0.5, GrowthSchedule(DECREASING, 500.0, 1 / 1.003, 1.0)),
    "full_batch": (0.1, 100, 100, 0.0, GrowthSchedule(INCREASING, 0.5, 1.0001, 1.0)),
    "flip_at_step_1": (0.1, 100, 100, 0.0, GrowthSchedule(INCREASING, 19.9, 1.01, 1.0)),
}


@pytest.mark.parametrize("case", sorted(GROWTH_CASES))
def test_growth_matches_scalar_recursion_across_chunk_boundaries(case, monkeypatch):
    eta, batch_size, n, alpha, schedule = GROWTH_CASES[case]
    setting = SgdSetting(eta=eta, batch_size=batch_size)
    flip = growth_reference(setting, schedule, alpha, n, 10**6).step_of_breakeven
    # chunks ending just before, at and just after the flip, and odd sizes
    for chunk in sorted({1, 7, max(1, flip - 1), flip, flip + 1, 8192}):
        monkeypatch.setattr(quadratic, "GROWTH_CHUNK", chunk)
        # no flip within a max_steps that is not a multiple of the chunk,
        # then a flip on the last allowed step, then the default cap
        for max_steps in sorted({max(1, flip - 1), flip, 3 * chunk + 2, 10**6}):
            got = run_growth_dynamics(setting, schedule, alpha, n, max_steps)
            want = growth_reference(setting, schedule, alpha, n, max_steps)
            assert repr(got) == repr(want), (chunk, max_steps)


def test_growth_predicate_squares_as_the_scalar_recursion_does():
    # at step 1 of this schedule x * x puts lhs one ulp above 1, where the
    # scalar recursion's (1 - eta * lambda) ** 2 (the C library's pow) gives
    # exactly 1, so the schedule is still stable there
    eta, batch_size, n, alpha = 0.7513745572012553, 8, 300, 0.44430445306441163
    setting = SgdSetting(eta=eta, batch_size=batch_size)
    schedule = GrowthSchedule(INCREASING, 2.6048370914084327, 1.001, 1.0)
    lam, psi = schedule.lambda0 * schedule.rho, schedule.psi0 / schedule.rho
    s2 = alpha * lam / (psi * psi)
    x = 1.0 - eta * lam
    assert x * x + s2 * eta * eta * quadratic.noise_factor(batch_size, n) > 1.0
    assert stability_lhs_scalar(lam, s2, eta, batch_size, n) == 1.0
    got = run_growth_dynamics(setting, schedule, alpha, n)
    assert got.step_of_breakeven > 1
    assert repr(got) == repr(growth_reference(setting, schedule, alpha, n, 10**6))


class TestPhaseDiagram:
    def test_full_batch_row_reduces_to_eta_lambda_curve(self):
        model = QuadraticModel(curvatures=np.array([19.0, 21.0, 20.0, 20.0]))
        etas = np.array([0.05, 0.1, 0.2])  # eta * 20 = 1, 2, 4
        rows = phase_diagram(etas, np.array([4]), model)
        assert rows[0] == [STABLE, BREAKEVEN, UNSTABLE]

    def test_eta_zero_cell_is_breakeven(self):
        model = uniform_model(10, 2)
        rows = phase_diagram(np.array([0.0]), np.array([2, 10]), model)
        assert all(row == [BREAKEVEN] for row in rows)

    def test_single_transition_along_eta(self):
        model = uniform_model(60, 4)
        etas = np.linspace(0.0, 4.0, 200)
        for s in (1, 5, 30, 60):
            row = phase_diagram(etas, np.array([s]), model)[0]
            labels = [c for c in row if c != BREAKEVEN]
            flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
            assert flips <= 1
            if UNSTABLE in labels and STABLE in labels:
                assert labels.index(UNSTABLE) > max(i for i, c in enumerate(labels) if c == STABLE)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParamsError):
            phase_diagram(np.array([]), np.array([1]), uniform_model(5, 0))


def test_theorem_orderings_over_grids():
    # lambda_max monotone non-increasing in eta, non-decreasing in S, both directions
    n = 500
    etas = [0.005, 0.02, 0.05, 0.1, 0.2, 0.5]
    sizes = [1, 4, 16, 64, 256, 500]
    for direction, lam0, rho in ((INCREASING, 0.01, 1.01), (DECREASING, 5000.0, 1 / 1.01)):
        schedule_for = lambda: GrowthSchedule(direction=direction, lambda0=lam0, rho=rho, psi0=1.0)
        lam_eta = [
            run_growth_dynamics(SgdSetting(eta=e, batch_size=32), schedule_for(), alpha=0.3, n=n).lambda_max
            for e in etas
        ]
        assert all(a >= b for a, b in zip(lam_eta, lam_eta[1:]))
        lam_s = [
            run_growth_dynamics(SgdSetting(eta=0.05, batch_size=s), schedule_for(), alpha=0.3, n=n).lambda_max
            for s in sizes
        ]
        assert all(a <= b for a, b in zip(lam_s, lam_s[1:]))

"""Exact SGD stability analysis on a one-dimensional quadratic model.

The model is a per-example quadratic loss along a single direction, with
psi measured from the minimum: ``L(psi) = (1/(2N)) * sum_i H_i * psi^2``, so
the per-example gradient is ``H_i * psi``, the full-batch curvature is
``mean(H_i)`` and the curvature spread is the population variance of H_i.
Minibatches are drawn without replacement, which makes the one-step
second-moment multiplier of the recursion exactly

    (1 - eta * lambda)^2 + s^2 * eta^2 * (N - S) / (S * (N - 1)).

SGD along this direction is stable iff that expression is <= 1; the first
point where it equals 1 is the break-even point. With the coupling
``s^2 = alpha * lambda / psi^2`` the break-even curvature has the closed
form ``(2 - (alpha/psi^2) * eta * (N-S)/(S*(N-1))) / eta``, degenerating to
``2/eta`` for full-batch gradient descent.

``ensemble_second_moments`` checks the multiplier by Monte Carlo. It draws
every batch exactly uniformly by Floyd's algorithm on min(S, N - S)
examples (the batch, or its complement), at a cost of
O(steps * trajectories * min(S, N - S)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateOffsetError, InvalidParamsError
from .rng import make_rng

STABLE = "stable"
BREAKEVEN = "breakeven"
UNSTABLE = "unstable"

PHASE_DIAGRAM_BAND = 1e-9
INCREASING = "increasing_from_stable"
DECREASING = "decreasing_from_unstable"

# bytes an ensemble block may hold while it draws its batches (at least one
# step's worth): per trajectory-step, the n-byte membership mask of the Floyd
# draw and about 48 bytes of picks, indices and sums. Blocks this large keep
# each numpy call long enough that two threads' calls rarely wait on the GIL
ENSEMBLE_BLOCK_BYTES = 1024 * 1024
# schedule steps the growth dynamics evaluate per vectorized chunk
GROWTH_CHUNK = 8192
# schedule steps a growth run takes before it gives up without a flip
GROWTH_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class QuadraticModel:
    """Per-example curvatures of the quadratic, whose minimum sits at psi = 0."""

    curvatures: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.curvatures, dtype=np.float64)
        object.__setattr__(self, "curvatures", h)
        if h.ndim != 1 or h.size < 2:
            raise InvalidParamsError("need at least 2 per-example curvatures")
        if not np.all(np.isfinite(h)):
            raise InvalidParamsError("curvatures must be finite")
        if float(np.mean(h)) <= 0.0:
            raise InvalidParamsError("mean curvature must be positive")

    @property
    def n(self) -> int:
        return self.curvatures.size

    @property
    def lambda_h(self) -> float:
        return float(np.mean(self.curvatures))

    @property
    def s_squared(self) -> float:
        # population variance (divide by N): exactly what the finite-population
        # correction in the stability condition is derived with
        return float(np.var(self.curvatures))


@dataclass(frozen=True)
class SgdSetting:
    eta: float
    batch_size: int

    def __post_init__(self):
        # eta == 0 is admitted as the degenerate boundary (constant trajectory,
        # multiplier exactly 1); training configs require strictly positive rates
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise InvalidParamsError("learning rate must be >= 0 and finite")
        if self.batch_size < 1:
            raise InvalidParamsError("batch size must be >= 1")


def noise_factor(batch_size: int, n: int) -> float:
    """Finite-population variance factor (N-S)/(S*(N-1)) of a without-
    replacement sample mean."""
    if not 1 <= batch_size <= n:
        raise InvalidParamsError(f"batch size {batch_size} outside [1, {n}]")
    if batch_size == n:
        return 0.0
    return (n - batch_size) / (batch_size * (n - 1))


def stability_lhs_scalar(lambda_h: float, s_squared: float, eta: float, batch_size: int, n: int) -> float:
    """One-step second-moment multiplier of the SGD recursion.

    Accepts eta == 0 (multiplier exactly 1) so phase-diagram grids can
    include the boundary.
    """
    return (1.0 - eta * lambda_h) ** 2 + s_squared * eta * eta * noise_factor(batch_size, n)


def stability_lhs(model: QuadraticModel, setting: SgdSetting) -> float:
    """Stability condition left-hand side; stable iff <= 1, break-even at 1."""
    return stability_lhs_scalar(model.lambda_h, model.s_squared, setting.eta, setting.batch_size, model.n)


def _batch_sums(rng: np.random.Generator, h: np.ndarray, k: int, rows: int) -> np.ndarray:
    """Sum of ``h`` over k distinct examples for each of ``rows`` rows, the
    k examples drawn uniformly without replacement by Floyd's algorithm: for
    j = n - k, ..., n - 1, one ``rng.integers(0, j + 1, size=rows)`` draw,
    and a row whose pick it already holds takes j instead. Each call draws
    for every row at once, so the number of rows is part of the draw order.
    """
    n = h.size
    taken = np.zeros(rows * n, dtype=bool)  # row r holds example i iff taken[r * n + i]
    base = np.arange(0, rows * n, n)
    sums = np.zeros(rows)
    for j in range(n - k, n):
        pick = rng.integers(0, j + 1, size=rows)
        pick = np.where(taken[base + pick], j, pick)
        taken[base + pick] = True
        sums += h[pick]
    return sums


def ensemble_second_moments(
    model: QuadraticModel,
    setting: SgdSetting,
    psi0: float,
    steps: int,
    n_traj: int,
    seed: int,
) -> np.ndarray:
    """Mean of psi^2 over an ensemble at every step.

    Each trajectory draws its batch without replacement at every step, an
    exactly uniform draw by Floyd's algorithm (``_batch_sums``) on
    k = min(batch_size, n - batch_size) examples: the batch itself when it
    is the smaller side, else its complement, whose curvature sum is
    subtracted from ``h.sum()``; a full batch draws nothing. The draws of a
    block of steps (all its trajectory-steps as rows, as many as
    ``ENSEMBLE_BLOCK_BYTES`` allows, at least one step's worth) are made
    together, so the block's row count is part of the draw order. The cost
    is O(steps * n_traj * k) plus a per-call numpy overhead for each of the
    k Floyd steps of each block. The deviations then advance as running
    products down the step axis.
    """
    for name, count in (("steps", steps), ("n_traj", n_traj)):
        if count < 1:
            raise InvalidParamsError(f"{name} must be >= 1", name)
    n = model.n
    s = setting.batch_size
    if s > n:
        raise InvalidParamsError(f"batch size {s} exceeds example count {n}")
    rng = make_rng(seed)
    h = model.curvatures
    k = min(s, n - s)
    total = float(np.sum(h))
    dev = np.full(n_traj, float(psi0))
    out = np.empty(steps + 1)
    out[0] = float(np.mean(dev * dev))
    block = max(1, ENSEMBLE_BLOCK_BYTES // ((n + 48) * n_traj))
    for t0 in range(0, steps, block):
        b = min(block, steps - t0)
        sums = _batch_sums(rng, h, k, b * n_traj).reshape(b, n_traj)
        factors = 1.0 - setting.eta * ((total - sums if k < s else sums) / s)
        factors[0] *= dev
        np.multiply.accumulate(factors, axis=0, out=factors)
        out[t0 + 1 : t0 + b + 1] = np.mean(factors * factors, axis=-1)
        dev = factors[-1].copy()
        # freed before the next block is drawn, so at most one block is held
        del sums, factors
    return out


def fit_growth_rate(second_moments: np.ndarray) -> float:
    """Least-squares slope of log(mean square) against the step index."""
    y = np.log(np.asarray(second_moments, dtype=np.float64))
    if not np.all(np.isfinite(y)):
        raise InvalidParamsError("second moments must be positive and finite")
    x = np.arange(y.size, dtype=np.float64)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class BreakevenCurvature:
    value: float
    # the formula can yield a non-positive curvature, meaning no stable
    # positive curvature exists for these hyperparameters; flagged, not an error
    no_stable_curvature: bool


def breakeven_curvature_closed_form(
    eta: float, batch_size: int, n: int, alpha: float, psi: float
) -> BreakevenCurvature:
    """Curvature at which the stability multiplier equals 1, under the
    coupling s^2 = alpha * lambda / psi^2. Degenerates to 2/eta when
    batch_size == n or alpha == 0."""
    if eta <= 0.0:
        raise InvalidParamsError("learning rate must be positive")
    if psi == 0.0:
        raise DegenerateOffsetError("offset psi must be nonzero")
    value = (2.0 - (alpha / (psi * psi)) * eta * noise_factor(batch_size, n)) / eta
    return BreakevenCurvature(value=value, no_stable_curvature=value <= 0.0)


@dataclass(frozen=True)
class GrowthSchedule:
    """Multiplicative curvature growth/decay with a matched offset rule.

    Each step multiplies the curvature by ``rho`` (> 1 when increasing from a
    stable start, < 1 when decreasing from an unstable one). The offset moves
    by the step magnitude ``r = max(rho, 1/rho)``: towards the minimum
    (psi / r) while stable, away from it (psi * r) while unstable.
    """

    direction: str = INCREASING
    lambda0: float = 0.01
    rho: float = 1.01
    psi0: float = 1.0

    def __post_init__(self):
        if self.direction not in (INCREASING, DECREASING):
            raise InvalidParamsError(f"unknown direction {self.direction!r}", "direction")
        if self.lambda0 <= 0.0:
            raise InvalidParamsError("initial curvature must be positive", "lambda0")
        if self.psi0 * self.psi0 == 0.0:
            # the coupled noise alpha * lambda / psi^2 divides by the square
            raise InvalidParamsError("initial offset must be nonzero, with a nonzero square", "psi0")
        if self.rho == 1.0 or self.rho <= 0.0:
            raise InvalidParamsError("rho must be positive and != 1", "rho")
        if self.direction == INCREASING and self.rho < 1.0:
            raise InvalidParamsError("increasing schedule needs rho > 1", "rho")
        if self.direction == DECREASING and self.rho > 1.0:
            raise InvalidParamsError("decreasing schedule needs rho < 1", "rho")


@dataclass(frozen=True)
class GrowthResult:
    lambda_max: float
    lambda_at_flip: Optional[float]
    psi_at_stop: float
    step_of_breakeven: Optional[int]
    flipped: bool


def run_growth_dynamics(
    setting: SgdSetting,
    schedule: GrowthSchedule,
    alpha: float,
    n: int,
    max_steps: int = GROWTH_MAX_STEPS,
) -> GrowthResult:
    """Iterate the curvature/offset schedule until the stability predicate
    flips (stable -> unstable for increasing schedules, the reverse for
    decreasing ones). Stability is evaluated with the coupled noise
    s^2 = alpha * lambda / psi^2. If max_steps is exhausted without a flip
    the result reports flipped=False rather than raising.

    Until the flip the state never changes, so lambda and psi are running
    products (psi / r while stable, psi * r while unstable). They are
    evaluated ``GROWTH_CHUNK`` steps at a time with ``accumulate``, which
    rounds exactly as the step-by-step recursion does, and the predicate is
    evaluated over the chunk in the operation order of
    ``stability_lhs_scalar``, so the flip step and every reported value are
    those of the step-by-step recursion."""
    if max_steps < 1:
        raise InvalidParamsError("max_steps must be >= 1", "max_steps")
    eta = setting.eta
    lam = schedule.lambda0
    psi = schedule.psi0
    start_stable = stability_lhs_scalar(lam, alpha * lam / (psi * psi), eta, setting.batch_size, n) <= 1.0
    if schedule.direction == INCREASING and not start_stable:
        raise InvalidParamsError("increasing schedule must start stable")
    if schedule.direction == DECREASING and start_stable:
        raise InvalidParamsError("decreasing schedule must start unstable")

    r = max(schedule.rho, 1.0 / schedule.rho)
    move_psi = np.divide if start_stable else np.multiply
    nf = noise_factor(setting.batch_size, n)
    lam_max = lam
    for done in range(0, max_steps, GROWTH_CHUNK):
        m = min(GROWTH_CHUNK, max_steps - done)
        lams = np.multiply.accumulate(np.r_[lam, np.full(m, schedule.rho)])[1:]
        psis = move_psi.accumulate(np.r_[psi, np.full(m, r)])[1:]
        # inf and nan propagate as they do in Python float arithmetic; only
        # psi^2 == 0, where the scalar predicate would divide by zero, is rejected
        with np.errstate(all="ignore"):
            psi_sq = psis * psis
            s2 = alpha * lams / psi_sq
            x = 1.0 - eta * lams
            sq = x * x
            noise = s2 * eta * eta * nf
            lhs = sq + noise
            # the scalar predicate squares with Python's float **, the C
            # library's pow (float_power), which may differ from x * x by one
            # ulp of x^2. 1e-15 * max(x^2, 1) exceeds four such ulps, so only
            # where lhs lies that close to 1, or is not finite, could the
            # predicate differ, and only there is lhs taken from pow
            near = ~(np.abs(lhs - 1.0) > 1e-15 * np.maximum(sq, 1.0))
            lhs[near] = np.float_power(x[near], 2.0) + noise[near]
        flips = np.flatnonzero((lhs <= 1.0) != start_stable)
        end = int(flips[0]) + 1 if flips.size else m
        if not np.all(psi_sq[:end]):
            raise InvalidParamsError("offset psi underflowed to zero before the predicate flipped")
        lam_max = max(lam_max, float(np.max(lams[:end])))
        lam, psi = float(lams[end - 1]), float(psis[end - 1])
        if flips.size:
            return GrowthResult(
                lambda_max=lam_max,
                lambda_at_flip=lam,
                psi_at_stop=psi,
                step_of_breakeven=done + end,
                flipped=True,
            )
    return GrowthResult(
        lambda_max=lam_max,
        lambda_at_flip=None,
        psi_at_stop=psi,
        step_of_breakeven=None,
        flipped=False,
    )


def classify_lhs(lhs: float, band: float = PHASE_DIAGRAM_BAND) -> str:
    if abs(lhs - 1.0) <= band:
        return BREAKEVEN
    return STABLE if lhs < 1.0 else UNSTABLE


def phase_diagram(
    etas: np.ndarray, batch_sizes: np.ndarray, model: QuadraticModel
) -> list[list[str]]:
    """Classify every (batch size, learning rate) cell of the grid.

    Rows follow ``batch_sizes``, columns follow ``etas``. Learning rate 0 is
    allowed and sits exactly on the break-even boundary.
    """
    etas = np.asarray(etas, dtype=np.float64)
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    if etas.size == 0 or batch_sizes.size == 0:
        raise InvalidParamsError("grids must be nonempty")
    if np.any(etas < 0):
        raise InvalidParamsError("learning rates must be >= 0")
    lam, s2, n = model.lambda_h, model.s_squared, model.n
    return [
        [classify_lhs(stability_lhs_scalar(lam, s2, float(eta), int(s), n)) for eta in etas]
        for s in batch_sizes
    ]

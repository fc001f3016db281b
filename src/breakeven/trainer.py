"""Instrumented SGD training with per-checkpoint spectral diagnostics.

A run walks epochs of shuffled without-replacement minibatches. Every
``eval_every`` steps the full metric record is computed at the pre-step
parameters, in this order: losses and accuracies, the top Hessian
eigenvalues on a fixed evaluation subset, the step and the training-set loss
change across it (delta_loss, positive when the step reduced the loss), the
covariance spectrum from sampled minibatch gradients, the
gradient-to-top-subspace ratio, and BN gamma norms. The Hessian spectrum
comes before the covariance stage so that its Lanczos basis and the sampled
minibatch gradients are never held at the same time; each spectral reading
draws from its own derived seed, so the order changes no logged value.

The full-set loss passes (losses and accuracies, then delta_loss) run in
that order on one worker thread, beside the Hessian spectrum and the
covariance stage on the calling thread, when the process may use two CPUs
and a pass is large enough to pay for the hand-off (``OVERLAP_MIN_WORK``);
numpy releases the GIL in the array work, so the two overlap. Otherwise the
same calls run inline, in the same order. Either way a loss pass's error is
raised ahead of the calling thread's, as the serial order would raise it.

There is one training loop, over a stack of cells in lockstep: a single
run is the one-cell stack, and ``sweep`` stacks the cells that share a step
schedule (η, momentum and seeds may differ). The stack's parameters are one
(C, D) array; per step it makes one gradient call and one ``sgd_step``, and
per checkpoint one Lanczos run over stacked Hessian-vector products.
Full-set losses and the sampled minibatch gradients stay per cell, as
stacking them measured no faster at desk size. Each cell keeps its own
init, shuffles, learning rate, momentum, BN statistics, evaluation subset
and log, and every stacked kernel computes row c bitwise as it would alone,
so a cell's log is field-identical to its run on its own.

BN runs train with batch statistics and keep an exponential moving average
(decay 0.99) that freezes statistics for every spectral evaluation, so
per-example and per-minibatch gradients stay well defined.

The JSONL metric log starts with a metadata object
{schema_version, config, prng_algorithm, artifact_version, config_hash}
followed by one object per record with exactly the MetricRecord fields;
missing values are explicit nulls.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .datasets import Dataset
from .errors import (
    BreakevenError,
    DegenerateProjectionError,
    InsufficientDataError,
    InvalidConfigError,
    NeedTwoValuesError,
    NonFiniteError,
    RankDeficientError,
)
from .netmodel import (
    MSE,
    Batch,
    MlpSpec,
    bn_batch_statistics,
    bn_gamma_norm,
    forward_loss,
    grad,
    init_bn_stats,
    init_params,
)
from .rng import PRNG_ALGORITHM, derive_seed, make_rng
from .spectra import (
    grad_subspace_ratio,
    gram_from_gradients,
    hessian_spectrum,
    k_spectrum,
    k_top_eigvecs,
    pearson,
    sample_minibatch_gradients,
)

BN_EMA_DECAY = 0.99
SCHEMA_VERSION = 1
# training rows x parameters above which a checkpoint's full-set loss passes
# run on a worker thread: below it the hand-off and the two threads' GIL
# contention cost more than the overlap saves. On a 2-vCPU VM (BLAS on one
# thread) the worker broke even near 2.5e7 for a 10-w-w-10 BN network with
# finite-difference HVPs and near 6e6 for a 2-w-w-2 one without BN; the desk
# network (1.9e6) ran 20% slower with it, the wide_bn one (1.2e8) 14% faster
OVERLAP_MIN_WORK = 2.5e7


def usable_cpus() -> int:
    """The CPUs this process may run on: ``os.sched_getaffinity``, which
    ``taskset`` limits, or, where the platform lacks it, as macOS and
    Windows do, ``os.cpu_count()``; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class LrSchedule:
    """Constant learning rate or a single step decay at a fixed epoch."""

    kind: str = "constant"
    decay_epoch: int = 0
    decay_factor: float = 10.0

    # the keys only some kinds read (cli._build rejects the others)
    KIND_KEYS = ("kind", {"constant": (), "step_decay": ("decay_epoch", "decay_factor")})

    def __post_init__(self):
        if self.kind not in ("constant", "step_decay"):
            raise InvalidConfigError(f"unknown schedule kind {self.kind!r}", "kind")
        if self.kind == "step_decay":
            if self.decay_epoch < 1:
                raise InvalidConfigError("decay_epoch must be >= 1", "decay_epoch")
            if self.decay_factor <= 0:
                raise InvalidConfigError("decay_factor must be positive", "decay_factor")

    def lr_at(self, eta: float, epoch: int) -> float:
        if self.kind == "step_decay" and epoch >= self.decay_epoch:
            return eta / self.decay_factor
        return eta


@dataclass(frozen=True)
class SpectraParams:
    n_gradient_samples: int = 25  # number of minibatch gradients per checkpoint
    gram_batch_size: Optional[int] = None  # None: max(8, n_train // n_gradient_samples)
    top_k: int = 5
    # "auto": the exact product, or finite differences on a BN spec (resolved
    # by netmodel.hessian_operator); "fd": finite differences on every spec
    hvp_method: str = "auto"
    lanczos_iters: int = 40

    def __post_init__(self):
        if self.n_gradient_samples < 2:
            raise InvalidConfigError("need at least 2 gradient samples", "n_gradient_samples")
        if self.gram_batch_size is not None and self.gram_batch_size < 1:
            raise InvalidConfigError("gram_batch_size must be >= 1", "gram_batch_size")
        if self.top_k < 1:
            raise InvalidConfigError("top_k must be >= 1", "top_k")
        if self.hvp_method not in ("auto", "fd"):
            raise InvalidConfigError(f"unknown hvp method {self.hvp_method!r}", "hvp_method")
        if self.lanczos_iters < 1:
            raise InvalidConfigError("lanczos_iters must be >= 1", "lanczos_iters")

    def resolve_batch_size(self, n_train: int) -> int:
        if self.gram_batch_size is not None:
            return min(self.gram_batch_size, n_train)
        return min(max(8, n_train // self.n_gradient_samples), n_train)


@dataclass(frozen=True)
class RunConfig:
    model: MlpSpec
    eta: float
    batch_size: int
    epochs: int
    momentum: float = 0.0
    schedule: LrSchedule = field(default_factory=LrSchedule)
    eval_every: int = 10
    spectra: SpectraParams = field(default_factory=SpectraParams)
    eval_subset_fraction: float = 0.05
    seed: int = 0
    accuracy_threshold: float = 0.60

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise InvalidConfigError("eta must be positive", "eta")
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be >= 1", "batch_size")
        if self.epochs < 1:
            raise InvalidConfigError("epochs must be >= 1", "epochs")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfigError("momentum must lie in [0, 1)", "momentum")
        if self.eval_every < 1:
            raise InvalidConfigError("eval_every must be >= 1", "eval_every")
        if not 0.0 < self.eval_subset_fraction <= 1.0:
            raise InvalidConfigError("eval_subset_fraction must lie in (0, 1]", "eval_subset_fraction")
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise InvalidConfigError("accuracy_threshold must lie in [0, 1]", "accuracy_threshold")

    def to_dict(self) -> dict:
        # tuples stay tuples: JSON writes them as arrays
        return asdict(self)


@dataclass
class MetricRecord:
    step: int
    epoch: int
    train_loss: Optional[float] = None
    train_acc: Optional[float] = None
    val_acc: Optional[float] = None
    delta_loss: Optional[float] = None
    lambda_k1: Optional[float] = None
    lambda_k_star: Optional[float] = None
    cond_ratio: Optional[float] = None
    trace_k: Optional[float] = None
    lambda_h_top: Optional[list] = None
    g_ratio: Optional[float] = None
    bn_gamma_norms: Optional[list] = None
    lr_current: Optional[float] = None

    @property
    def lambda_h1(self) -> Optional[float]:
        """The top Hessian eigenvalue; a derived reading, not a logged field."""
        return self.lambda_h_top[0] if self.lambda_h_top else None

    def to_json_dict(self) -> dict:
        return asdict(self)


METRIC_FIELDS = tuple(f.name for f in fields(MetricRecord))
LIST_FIELDS = ("lambda_h_top", "bn_gamma_norms")
DERIVED_READINGS = ("lambda_h1",)  # MetricRecord properties read like fields


@dataclass
class RunSummary:
    max_lambda_k1: Optional[float]
    max_lambda_k1_step: Optional[int]
    max_cond_ratio: Optional[float]
    max_cond_ratio_step: Optional[int]
    max_lambda_h1: Optional[float]
    max_lambda_h1_step: Optional[int]
    max_trace_k: Optional[float]
    threshold_epoch: Optional[int]
    first_negative_delta_loss_step: Optional[int]
    diverged: bool
    alpha_series: list  # lambda_k1 / lambda_h1 per checkpoint, None where undefined

    def to_json_dict(self) -> dict:
        return asdict(self)


def sgd_step(
    theta: np.ndarray, g: np.ndarray, velocity: np.ndarray, eta, beta
) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-ball update: velocity' = beta * velocity + g, theta' = theta -
    eta * velocity'. On a (C, D) stack, ``eta`` and ``beta`` may be (C, 1)
    columns, one value per row."""
    velocity = beta * velocity + g
    return theta - eta * velocity, velocity


def delta_loss(
    spec: MlpSpec,
    loss_before: float,
    theta_after: np.ndarray,
    train_set: Batch,
    bn_stats: Optional[np.ndarray] = None,
) -> float:
    """Training-set loss reduction across one step; positive means the step
    reduced the loss. ``loss_before`` is the mean training-set loss at the
    pre-step parameters under the same ``bn_stats``; the checkpoint record
    already holds it as ``train_loss``, so only the post-step loss is
    evaluated here."""
    return loss_before - forward_loss(spec, theta_after, train_set, bn_stats).mean_loss


def _as_model_batch(spec: MlpSpec, batch: Batch) -> Batch:
    """Square-loss models regress onto one-hot targets; class labels are
    converted once so every downstream evaluation sees the same batch."""
    if spec.loss == MSE and np.issubdtype(np.asarray(batch.labels).dtype, np.integer):
        targets = np.zeros((batch.size, spec.layer_sizes[-1]))
        targets[np.arange(batch.size), batch.labels] = 1.0
        return Batch(inputs=batch.inputs, labels=targets)
    return batch


def check_fits(config: RunConfig, dataset: Dataset, batch_axis: bool = False) -> None:
    """Reject a run config that ``dataset`` cannot train, raising
    InvalidConfigError that names the dotted key at fault: a model input
    width other than the feature count or an output width below the class
    count (``model.layer_sizes``), an empty validation split
    (``dataset.val_fraction``), or a batch larger than the training split
    (``batch_size``). With ``batch_axis`` the batch size is not read: on a
    sweep's batch-size axis each value is its own cell, and one larger than
    the split fails alone."""
    sizes = config.model.layer_sizes
    if sizes[0] != dataset.n_features:
        raise InvalidConfigError(
            f"input width {sizes[0]} != {dataset.n_features} dataset features", "model.layer_sizes"
        )
    if sizes[-1] < dataset.n_classes:
        raise InvalidConfigError(
            f"output width {sizes[-1]} < {dataset.n_classes} dataset classes", "model.layer_sizes"
        )
    if dataset.val_idx.size < 1:
        raise InvalidConfigError("the validation split is empty", "dataset.val_fraction")
    if not batch_axis and config.batch_size > dataset.n_train:
        raise InvalidConfigError(
            f"{config.batch_size} exceeds the {dataset.n_train} training examples", "batch_size"
        )


@dataclass
class _Cell:
    """One cell of a training stack: its config, shuffle stream, evaluation
    subset and log, and how it ended."""

    config: RunConfig
    shuffle: np.random.Generator
    eval_idx: np.ndarray
    records: list = field(default_factory=list)
    perm: Optional[np.ndarray] = None  # this epoch's shuffle
    diverged: bool = False
    error: Optional[BreakevenError] = None


@dataclass
class _Stack:
    """The cells still training and their state: row c of every array
    belongs to ``cells[c]``."""

    cells: list
    theta: np.ndarray
    velocity: np.ndarray
    running: np.ndarray  # BN running statistics, (C, stats_dim)

    def take(self, rows: list) -> "_Stack":
        if rows == list(range(len(self.cells))):
            return self
        return _Stack(
            cells=[self.cells[i] for i in rows],
            theta=self.theta[rows],
            velocity=self.velocity[rows],
            running=self.running[rows],
        )


def _join(stacks: list) -> _Stack:
    return _Stack(
        cells=[c for s in stacks for c in s.cells],
        theta=np.concatenate([s.theta for s in stacks]),
        velocity=np.concatenate([s.velocity for s in stacks]),
        running=np.concatenate([s.running for s in stacks]),
    )


def _stack_key(config: RunConfig) -> tuple:
    """What the cells of one training stack share: the array shapes and the
    step schedule. η, momentum, seeds and init may differ per cell."""
    m = config.model
    return (
        m.layer_sizes, m.activation, m.batch_norm, m.loss, config.batch_size, config.epochs,
        config.eval_every, config.schedule.kind, config.spectra, config.eval_subset_fraction,
    )


class _Ran:
    """A call made inline, read as a ``concurrent.futures.Future`` is read:
    ``result()`` returns its value or raises its error, and ``exception()``
    returns that error (None if it returned)."""

    def __init__(self, fn, *args):
        self._value = self._error = None
        try:
            self._value = fn(*args)
        except Exception as exc:
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self):
        return self._error


def _loss_passes(spec: MlpSpec, theta: np.ndarray, frozen: np.ndarray, train_set: Batch, val_set: Batch) -> list:
    """Each cell's (train loss, train accuracy, val accuracy) at its row of
    the stack ``theta``."""
    out = []
    for th, stats in zip(theta, frozen):
        train = forward_loss(spec, th, train_set, stats)
        out.append((train.mean_loss, train.accuracy, forward_loss(spec, th, val_set, stats).accuracy))
    return out


def _delta_passes(spec: MlpSpec, losses, theta_after: np.ndarray, frozen: np.ndarray, train_set: Batch) -> list:
    """Each cell's delta_loss across the step, or None where the post-step
    loss is not finite; ``losses`` is the future of ``_loss_passes``."""
    deltas = []
    for (loss, _, _), th, stats in zip(losses.result(), theta_after, frozen):
        try:
            deltas.append(delta_loss(spec, loss, th, train_set, stats))
        except NonFiniteError:
            deltas.append(None)
    return deltas


def _step_gradient(spec: MlpSpec, theta: np.ndarray, batch: Batch, g_now: Optional[np.ndarray] = None) -> np.ndarray:
    """The step's gradient, at the batch's own statistics. Without BN a
    checkpoint's ``g_now``, the same call on the same batch, is that
    gradient, so it is not computed again."""
    if g_now is not None and not spec.has_bn:
        return g_now
    return grad(spec, theta, batch, None)


def _sgd_update(stack: _Stack, g: np.ndarray, lrs: list) -> tuple[np.ndarray, np.ndarray]:
    momenta = [c.config.momentum for c in stack.cells]
    return sgd_step(stack.theta, g, stack.velocity, np.array(lrs)[:, None], np.array(momenta)[:, None])


def _checkpoint_record(
    stack: _Stack,
    step: int,
    epoch: int,
    lrs: list,
    train_set: Batch,
    val_set: Batch,
    step_batch: Batch,
    frozen: np.ndarray,
    submit,
) -> tuple[list, np.ndarray, np.ndarray]:
    """Every cell's metric record at this checkpoint, and the stack's
    post-step parameters and velocity: the step is taken here, so that the
    delta_loss pass can run beside the covariance stage.

    ``submit(fn, *args)`` runs a call on the run's worker thread, or inline,
    and returns its future. The loss passes are submitted first and the
    delta_loss passes after the step, once the Lanczos basis is freed; the
    one worker runs them in that order while this thread computes the
    Hessian spectrum, the step and the covariance stage. The worker is
    joined before this returns or raises: its loss passes come first in the
    serial order, so their error is raised ahead of this thread's, and a
    post-step loss that is not finite leaves delta_loss null."""
    cells = stack.cells
    spec, sp = cells[0].config.model, cells[0].config.spectra
    losses = submit(_loss_passes, spec, stack.theta, frozen, train_set, val_set)
    deltas = None
    try:
        # one Lanczos run for the stack, released before any gradient sample exists
        lambda_h = hessian_spectrum(
            spec, stack.theta, train_set.subset(np.stack([c.eval_idx for c in cells])),
            k=sp.top_k, method=sp.hvp_method, max_iters=sp.lanczos_iters,
            seeds=[derive_seed(c.config.seed, 4, step) for c in cells], bn_stats=frozen,
        )
        g_now = grad(spec, stack.theta, step_batch, frozen)
        theta, velocity = _sgd_update(stack, _step_gradient(spec, stack.theta, step_batch, g_now), lrs)
        deltas = submit(_delta_passes, spec, losses, theta, frozen, train_set)

        records = []
        m = sp.resolve_batch_size(train_set.size)
        for th, stats, cell, lr, values, g in zip(stack.theta, frozen, cells, lrs, lambda_h, g_now):
            record = MetricRecord(step=step, epoch=epoch, lr_current=lr, lambda_h_top=[float(v) for v in values])
            sample, _ = sample_minibatch_gradients(
                spec, th, train_set, sp.n_gradient_samples, m,
                seed=derive_seed(cell.config.seed, 3, step), bn_stats=stats,
            )
            ks = k_spectrum(gram_from_gradients(sample))
            record.lambda_k1 = ks.lambda_k1
            record.lambda_k_star = ks.lambda_k_star
            record.cond_ratio = ks.cond_ratio
            record.trace_k = ks.trace_k
            try:
                w = k_top_eigvecs(ks, k=min(5, sp.n_gradient_samples - 1))
                record.g_ratio = grad_subspace_ratio(g, sample, w)
            except (RankDeficientError, DegenerateProjectionError):
                pass  # g_ratio stays null
            del sample  # one gradient sample at a time
            if spec.has_bn:
                record.bn_gamma_norms = [bn_gamma_norm(spec, th, i) for i in spec.bn_layers]
            records.append(record)
    except Exception:
        # join the worker, then raise a loss pass's error ahead of this one
        (losses if deltas is None else deltas).exception()
        losses.result()
        raise
    for record, (loss, acc, val_acc), delta in zip(records, losses.result(), deltas.result()):
        record.train_loss, record.train_acc, record.val_acc, record.delta_loss = loss, acc, val_acc, delta
    return records, theta, velocity


def _step(
    stack: _Stack, step: int, epoch: int, start: int, train_set: Batch, val_set: Batch, param_sink, submit
) -> _Stack:
    """One SGD step of every cell in the stack, as one stacked pass; returns
    the stack of the cells that go on. Raises the first package error of
    any cell, before any cell's log or state changes."""
    cells = stack.cells
    first = cells[0].config
    spec = first.model
    batch = train_set.subset(np.stack([c.perm[start : start + first.batch_size] for c in cells]))
    running = stack.running
    if spec.has_bn:
        running = BN_EMA_DECAY * running + (1.0 - BN_EMA_DECAY) * bn_batch_statistics(spec, stack.theta, batch)
    lrs = [c.config.schedule.lr_at(c.config.eta, epoch) for c in cells]
    records = []
    if step > 0 and step % first.eval_every == 0:
        records, theta, velocity = _checkpoint_record(
            stack, step, epoch, lrs, train_set, val_set, batch, running, submit
        )
        if param_sink is not None:
            param_sink(step, stack.theta[0].copy())
    else:
        theta, velocity = _sgd_update(stack, _step_gradient(spec, stack.theta, batch), lrs)
    # NaN propagates through min and max and an inf sits at one end: no C x D mask
    ended = set(np.flatnonzero(~(np.isfinite(theta.min(axis=-1)) & np.isfinite(theta.max(axis=-1)))))
    # a null delta_loss is a post-step training loss that is not finite
    ended.update(i for i, record in enumerate(records) if record.delta_loss is None)
    for cell, record in zip(cells, records):
        cell.records.append(record)
    for i in ended:
        cells[i].diverged = True
    return _Stack(cells, theta, velocity, running).take([i for i in range(len(cells)) if i not in ended])


def _advance(
    stack: _Stack, step: int, epoch: int, start: int, train_set: Batch, val_set: Batch, param_sink, submit
) -> _Stack:
    """``_step``; when a package error stops the stacked pass, every cell
    replays the step from the pre-step state as a one-cell stack, so the
    failing cell ends exactly as it would alone (NonFiniteError: diverged,
    keeping its log; any other: that error) and the others go on."""
    try:
        return _step(stack, step, epoch, start, train_set, val_set, param_sink, submit)
    except BreakevenError as exc:
        if len(stack.cells) > 1:
            return _join([
                _advance(stack.take([i]), step, epoch, start, train_set, val_set, param_sink, submit)
                for i in range(len(stack.cells))
            ])
        if isinstance(exc, NonFiniteError):
            stack.cells[0].diverged = True
        else:
            stack.cells[0].error = exc
        return stack.take([])


def run_training(
    config: Union[RunConfig, Sequence[RunConfig]],
    dataset: Dataset,
    param_sink=None,
):
    """Train per the config, instrumenting every eval_every steps.

    Deterministic: identical (config, dataset) pairs give field-identical
    logs. Non-finite values anywhere terminate the run as diverged, keeping
    the log collected so far. ``param_sink(step, theta)``, when given, is
    called with a copy of the parameters at every instrumented checkpoint.

    Checkpoints sit at steps eval_every, 2*eval_every, ...: the untrained
    parameter point carries no information about the hyperparameters under
    study (it is identical across runs that share an init seed), so maxima
    over the logged trajectory reflect where SGD actually steered.

    ``config`` may instead be a sequence of configs that share a step
    schedule (``_stack_key``). They then train as one stack, in lockstep,
    and each cell's records and summary are field-identical to its run on
    its own. The result is a list with, per cell, its (records, summary) or
    the package error that stopped it. ``param_sink`` takes one config only.

    A run large enough to overlap its checkpoints' full-set loss passes
    (module docstring) starts their worker thread at its first checkpoint
    and shuts it down before it returns or raises.
    """
    stacked = not isinstance(config, RunConfig)
    configs = list(config) if stacked else [config]
    if stacked and param_sink is not None:
        raise InvalidConfigError("param_sink takes one config, not a stack")
    first = configs[0]
    if any(_stack_key(c) != _stack_key(first) for c in configs):
        raise InvalidConfigError(
            "the cells of a stack must share model shape, batch size, epochs, eval_every, "
            "schedule kind and spectra settings"
        )
    check_fits(first, dataset)
    spec = first.model
    train_set = _as_model_batch(spec, dataset.train())
    val_set = _as_model_batch(spec, dataset.val())
    n_train = train_set.size

    n_eval = max(1, int(round(first.eval_subset_fraction * n_train)))
    cells = [
        _Cell(
            config=c,
            shuffle=make_rng(c.seed, 1),
            eval_idx=np.sort(make_rng(c.seed, 2).choice(n_train, size=n_eval, replace=False)),
        )
        for c in configs
    ]
    theta = np.stack([init_params(c.model) for c in configs])
    stack = _Stack(cells, theta, np.zeros_like(theta), np.stack([init_bn_stats(c.model) for c in configs]))

    overlap = usable_cpus() >= 2 and n_train * spec.param_dim > OVERLAP_MIN_WORK
    pool = None

    def submit(fn, *args):
        nonlocal pool
        if not overlap:
            return _Ran(fn, *args)
        if pool is None:
            from concurrent.futures import ThreadPoolExecutor  # imported here, not on every CLI start

            pool = ThreadPoolExecutor(1)
        return pool.submit(fn, *args)

    step = 0
    try:
        for epoch in range(first.epochs):
            for cell in stack.cells:
                cell.perm = cell.shuffle.permutation(n_train)
            for start in range(0, n_train, first.batch_size):
                stack = _advance(stack, step, epoch, start, train_set, val_set, param_sink, submit)
                step += 1
                if not stack.cells:
                    break
            if not stack.cells:
                break
    finally:
        if pool is not None:
            pool.shutdown()
    results = [
        c.error if c.error is not None
        else (c.records, summarize_run(c.records, c.diverged, c.config.accuracy_threshold))
        for c in cells
    ]
    if stacked:
        return results
    if isinstance(results[0], BreakevenError):
        raise results[0]
    return results[0]


def summarize_run(
    records: Sequence[MetricRecord], diverged: bool, accuracy_threshold: float
) -> RunSummary:
    def max_with_step(name):
        best, best_step = None, None
        for r in records:
            v = getattr(r, name)
            if v is not None and (best is None or v > best):
                best, best_step = v, r.step
        return best, best_step

    max_k1, k1_step = max_with_step("lambda_k1")
    max_cond, cond_step = max_with_step("cond_ratio")
    max_trace, _ = max_with_step("trace_k")
    max_h1, h1_step = max_with_step("lambda_h1")
    threshold_epoch = next(
        (r.epoch for r in records if r.train_acc is not None and r.train_acc >= accuracy_threshold),
        None,
    )
    first_negative = next(
        (r.step for r in records if r.delta_loss is not None and r.delta_loss < 0), None
    )
    alpha_series = [
        r.lambda_k1 / r.lambda_h1 if r.lambda_k1 is not None and abs(r.lambda_h1 or 0.0) > 1e-12 else None
        for r in records
    ]
    return RunSummary(
        max_lambda_k1=max_k1,
        max_lambda_k1_step=k1_step,
        max_cond_ratio=max_cond,
        max_cond_ratio_step=cond_step,
        max_lambda_h1=max_h1,
        max_lambda_h1_step=h1_step,
        max_trace_k=max_trace,
        threshold_epoch=threshold_epoch,
        first_negative_delta_loss_step=first_negative,
        diverged=diverged,
        alpha_series=alpha_series,
    )


def breakeven_indicators(records: Sequence[MetricRecord]) -> tuple[int, Optional[int], Optional[float]]:
    """Early-phase indicators: the step where the covariance spectral norm
    peaks, the first step with a negative loss change, and the Pearson
    correlation between covariance and Hessian spectral norms over
    checkpoints up to (and including) that peak."""
    usable = [r for r in records if r.lambda_k1 is not None and r.lambda_h1 is not None]
    if len(usable) < 5:
        raise InsufficientDataError("need at least 5 instrumented checkpoints")
    k1 = np.array([r.lambda_k1 for r in usable])
    argmax = int(np.argmax(k1))
    argmax_step = usable[argmax].step
    first_negative = next(
        (r.step for r in records if r.delta_loss is not None and r.delta_loss < 0), None
    )
    h1 = np.array([r.lambda_h1 for r in usable])
    r = pearson(k1[: argmax + 1], h1[: argmax + 1])
    return argmax_step, first_negative, r


# ---------------------------------------------------------------------------
# sweeps

# the RunConfig fields a sweep can vary, each mapped to whether the
# variance-reduction effect predicts the maxima shrink as it increases
SWEEP_AXES = {"eta": True, "momentum": True, "batch_size": False}


@dataclass
class SweepCell:
    axis_value: float
    seed: int
    summary: Optional[RunSummary]
    diverged: bool
    error: Optional[str] = None
    error_type: Optional[str] = None  # exception class name of a failed cell
    records: Optional[list] = None
    config: Optional[RunConfig] = None


@dataclass
class SweepReport:
    axis_name: str
    axis_values: list
    seeds: list
    cells: list  # list of SweepCell
    seed_means: dict  # metric -> list aligned with axis_values (None where undefined)
    verdicts: dict  # metric -> "holds" | "violated" | "tie" | "undefined"


def _seed_mean(values):
    usable = [v for v in values if v is not None]
    if not usable:
        return None
    return float(np.mean(usable))


def _ordinal_verdict(means, decreasing: bool) -> str:
    if any(m is None for m in means):
        return "undefined"
    pairs = list(zip(means, means[1:]))
    if any(a == b for a, b in pairs):
        return "tie"
    ok = all(a > b for a, b in pairs) if decreasing else all(a < b for a, b in pairs)
    return "holds" if ok else "violated"


def sweep(
    base: RunConfig,
    dataset: Dataset,
    axis_name: str,
    axis_values: Sequence,
    seeds: Sequence[int],
) -> SweepReport:
    """Run all (axis value, seed) cells and issue ordinal verdicts.

    The variance-reduction reading holds when the seed-averaged maxima of
    lambda_k1 (and lambda_h1, trace_k) strictly shrink toward larger learning
    rate / momentum or smaller batch size; the pre-conditioning reading when
    max cond_ratio strictly grows in the same direction. A value the run
    config rejects raises before any cell trains. Cells that share a step
    schedule train as one stack (``run_training`` on a sequence): on the
    η and momentum axes that is every cell, on the batch-size axis the
    seeds of one batch size. Diverged cells and cells that fail with a
    package error (``BreakevenError``) while training, such as a batch
    larger than the training split, are isolated and excluded from the
    means; any other exception is a bug and propagates. Every cell keeps
    its records. Cells come value-major: cell k is
    (axis_values[k // len(seeds)], seeds[k % len(seeds)]).
    """
    if axis_name not in SWEEP_AXES:
        raise InvalidConfigError(f"unknown sweep axis {axis_name!r}")
    axis_values = list(axis_values)
    if len(axis_values) < 2:
        raise NeedTwoValuesError("sweep needs at least two axis values")
    if len(seeds) < 1:
        raise InvalidConfigError("sweep needs at least one seed")

    # every cell's config is built, and so checked, before the first cell
    # trains; seeds pair up across axis values (matched design), so repeating
    # an axis value reproduces its cells bitwise
    plan = [
        (value, seed, replace(
            base,
            seed=derive_seed(base.seed, int(seed)),
            model=replace(base.model, seed=derive_seed(base.seed, int(seed), 1)),
            **{axis_name: value},
        ))
        for value in axis_values
        for seed in seeds
    ]
    stacks = {}
    for i, (_, _, cfg) in enumerate(plan):
        stacks.setdefault(_stack_key(cfg), []).append(i)
    outcomes = [None] * len(plan)
    for members in stacks.values():
        try:
            results = run_training([plan[i][2] for i in members], dataset)
        except BreakevenError as exc:  # the stack cannot start: each of its cells fails alike
            results = [exc] * len(members)
        for i, result in zip(members, results):
            outcomes[i] = result

    cells = []
    for (value, seed, cfg), outcome in zip(plan, outcomes):
        if isinstance(outcome, BreakevenError):  # isolate per-cell failures; bugs propagate
            cells.append(
                SweepCell(
                    axis_value=value, seed=seed, summary=None, diverged=True,
                    error=str(outcome), error_type=type(outcome).__name__, config=cfg,
                )
            )
            continue
        records, summary = outcome
        cells.append(
            SweepCell(
                axis_value=value,
                seed=seed,
                summary=summary,
                diverged=summary.diverged,
                records=records,
                config=cfg,
            )
        )

    metrics = ("max_lambda_k1", "max_cond_ratio", "max_lambda_h1", "max_trace_k")
    seed_means = {}
    for metric in metrics:
        means = []
        for value in axis_values:
            vals = [
                getattr(c.summary, metric)
                for c in cells
                if c.axis_value == value and c.summary is not None and not c.diverged
            ]
            means.append(_seed_mean(vals))
        seed_means[metric] = means

    shrink = SWEEP_AXES[axis_name]
    verdicts = {
        "variance_reduction_lambda_k1": _ordinal_verdict(seed_means["max_lambda_k1"], decreasing=shrink),
        "variance_reduction_lambda_h1": _ordinal_verdict(seed_means["max_lambda_h1"], decreasing=shrink),
        "variance_reduction_trace_k": _ordinal_verdict(seed_means["max_trace_k"], decreasing=shrink),
        "preconditioning_cond_ratio": _ordinal_verdict(seed_means["max_cond_ratio"], decreasing=not shrink),
    }
    return SweepReport(
        axis_name=axis_name,
        axis_values=axis_values,
        seeds=list(seeds),
        cells=cells,
        seed_means=seed_means,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# serialization

def config_hash(config_dict: dict) -> str:
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def metric_log_lines(config: RunConfig, records: Sequence[MetricRecord]) -> list[str]:
    """JSONL lines: metadata first, then one object per record."""
    cfg = config.to_dict()
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "prng_algorithm": PRNG_ALGORITHM,
        "artifact_version": __version__,
        "config_hash": config_hash(cfg),
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for r in records:
        lines.append(json.dumps(r.to_json_dict(), sort_keys=True))
    return lines


def parse_metric_log(text: str) -> tuple[dict, list[MetricRecord]]:
    """The metadata object and the records of a JSONL metric log. A line
    that is not a JSON object, or metadata whose ``config`` is not one,
    raises InvalidConfigError naming its line number (blank lines count)."""
    objects = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            d = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"line {lineno}: not JSON ({exc.msg})") from None
        if not isinstance(d, dict):
            raise InvalidConfigError(f"line {lineno}: expected a JSON object")
        if not objects and not isinstance(d.get("config", {}), dict):
            raise InvalidConfigError(f"line {lineno}: metadata config must be an object")
        objects.append(d)
    if not objects:
        raise InvalidConfigError("empty metric log")
    meta, *rows = objects
    return meta, [MetricRecord(**{k: d.get(k) for k in METRIC_FIELDS}) for d in rows]


def _is_number(v) -> bool:
    # JSON gives exact int and float; a bool (an int subclass) is not a number
    return type(v) is int or (type(v) is float and np.isfinite(v))


def check_metric_records(records: Sequence[MetricRecord]) -> None:
    """Every record's step and epoch are finite numbers (not bools), every
    other metric is null or one, or, for ``LIST_FIELDS``, null or a list of
    them, and steps strictly increase; otherwise InvalidConfigError names
    the record and the field."""
    last_step = -1
    for i, r in enumerate(records):
        for name in METRIC_FIELDS:
            v = getattr(r, name)
            if v is None and name not in ("step", "epoch"):
                continue
            if not (type(v) is list and all(map(_is_number, v)) if name in LIST_FIELDS else _is_number(v)):
                want = "a list of finite numbers" if name in LIST_FIELDS else "a finite number"
                raise InvalidConfigError(f"record {i}: field {name} must be {want}")
        if r.step <= last_step:
            raise InvalidConfigError(f"record {i}: steps must strictly increase")
        last_step = r.step


def validate_metric_log(text: str) -> None:
    """Schema check: every line parses, required metadata fields are
    present, and the records pass ``check_metric_records``."""
    meta, records = parse_metric_log(text)
    for key in ("schema_version", "config", "prng_algorithm", "artifact_version"):
        if key not in meta:
            raise InvalidConfigError(f"metadata missing {key!r}")
    check_metric_records(records)

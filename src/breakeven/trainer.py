"""Instrumented SGD training with per-checkpoint spectral diagnostics.

A run walks epochs of shuffled without-replacement minibatches. Every
``eval_every`` steps the full metric record is computed at the pre-step
parameters, in this order: losses and accuracies, the top Hessian
eigenvalues on a fixed evaluation subset, the covariance spectrum from
sampled minibatch gradients, the gradient-to-top-subspace ratio, BN gamma
norms, and the training-set loss change across the step (delta_loss,
positive when the step reduced the loss). The Hessian spectrum comes first
so that its Lanczos basis and the L x D block of minibatch gradients are
never held at the same time; each spectral reading draws from its own
derived seed, so the order changes no logged value.

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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence

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
    BATCH_STATS,
    MSE,
    Batch,
    BnStats,
    MlpSpec,
    bn_batch_statistics,
    bn_gamma_norm,
    forward_loss,
    grad,
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


@dataclass(frozen=True)
class LrSchedule:
    """Constant learning rate or a single step decay at a fixed epoch."""

    kind: str = "constant"
    decay_epoch: int = 0
    decay_factor: float = 10.0

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
        if self.top_k < 1:
            raise InvalidConfigError("top_k must be >= 1", "top_k")
        if self.hvp_method not in ("auto", "fd"):
            raise InvalidConfigError(f"unknown hvp method {self.hvp_method!r}", "hvp_method")

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

    def to_json_dict(self) -> dict:
        return asdict(self)


METRIC_FIELDS = tuple(f.name for f in fields(MetricRecord))


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
    theta: np.ndarray, g: np.ndarray, velocity: np.ndarray, eta: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-ball update: velocity' = beta * velocity + g, theta' = theta -
    eta * velocity'."""
    velocity = beta * velocity + g
    return theta - eta * velocity, velocity


def delta_loss(
    spec: MlpSpec,
    loss_before: float,
    theta_after: np.ndarray,
    train_set: Batch,
    bn_mode=BATCH_STATS,
) -> float:
    """Training-set loss reduction across one step; positive means the step
    reduced the loss. ``loss_before`` is the mean training-set loss at the
    pre-step parameters under the same ``bn_mode``; the checkpoint record
    already holds it as ``train_loss``, so only the post-step loss is
    evaluated here."""
    return loss_before - forward_loss(spec, theta_after, train_set, bn_mode).mean_loss


def _as_model_batch(spec: MlpSpec, batch: Batch) -> Batch:
    """Square-loss models regress onto one-hot targets; class labels are
    converted once so every downstream evaluation sees the same batch."""
    if spec.loss == MSE and np.issubdtype(np.asarray(batch.labels).dtype, np.integer):
        targets = np.zeros((batch.size, spec.layer_sizes[-1]))
        targets[np.arange(batch.size), batch.labels] = 1.0
        return Batch(inputs=batch.inputs, labels=targets)
    return batch


def _init_bn_running(spec: MlpSpec) -> Optional[BnStats]:
    if not spec.has_bn:
        return None
    widths = [spec.layer_sizes[i + 1] for i in spec.bn_layers]
    return BnStats(
        means=tuple(np.zeros(w) for w in widths),
        variances=tuple(np.ones(w) for w in widths),
    )


def _update_bn_running(running: BnStats, batch_stats: BnStats) -> BnStats:
    means = tuple(
        BN_EMA_DECAY * r + (1.0 - BN_EMA_DECAY) * b for r, b in zip(running.means, batch_stats.means)
    )
    variances = tuple(
        BN_EMA_DECAY * r + (1.0 - BN_EMA_DECAY) * b
        for r, b in zip(running.variances, batch_stats.variances)
    )
    return BnStats(means=means, variances=variances)


def _checkpoint_record(
    config: RunConfig,
    theta: np.ndarray,
    step: int,
    epoch: int,
    lr: float,
    train_set: Batch,
    val_set: Batch,
    eval_subset: Batch,
    step_batch: Batch,
    frozen: Optional[BnStats],
) -> tuple[MetricRecord, Optional[np.ndarray]]:
    """The checkpoint's metric record, and the gradient on ``step_batch`` at
    the evaluation statistics when ``g_ratio`` needed it (else None)."""
    spec = config.model
    eval_mode = frozen if frozen is not None else BATCH_STATS
    record = MetricRecord(step=step, epoch=epoch, lr_current=lr)

    train_res = forward_loss(spec, theta, train_set, eval_mode)
    record.train_loss = train_res.mean_loss
    record.train_acc = train_res.accuracy
    record.val_acc = forward_loss(spec, theta, val_set, eval_mode).accuracy

    sp = config.spectra
    # the Lanczos basis is released before the L x D gradient block exists
    lambda_h = hessian_spectrum(
        spec, theta, eval_subset,
        k=sp.top_k, method=sp.hvp_method, max_iters=sp.lanczos_iters,
        seed=derive_seed(config.seed, 4, step), bn_mode=eval_mode,
    )
    record.lambda_h_top = [float(v) for v in lambda_h]

    m = sp.resolve_batch_size(train_set.size)
    grads, gbar = sample_minibatch_gradients(
        spec, theta, train_set, sp.n_gradient_samples, m,
        seed=derive_seed(config.seed, 3, step), bn_mode=eval_mode,
    )
    ks = k_spectrum(gram_from_gradients(grads, gbar))
    record.lambda_k1 = ks.lambda_k1
    record.lambda_k_star = ks.lambda_k_star
    record.cond_ratio = ks.cond_ratio
    record.trace_k = ks.trace_k

    g_now = None
    try:
        top_vecs = k_top_eigvecs(grads, gbar, ks, k=min(5, sp.n_gradient_samples - 1))
        g_now = grad(spec, theta, step_batch, eval_mode)
        record.g_ratio = grad_subspace_ratio(g_now, top_vecs)
    except (RankDeficientError, DegenerateProjectionError):
        record.g_ratio = None

    if spec.has_bn:
        record.bn_gamma_norms = [bn_gamma_norm(spec, theta, i) for i in spec.bn_layers]
    return record, g_now


def run_training(
    config: RunConfig,
    dataset: Dataset,
    param_sink=None,
) -> tuple[list[MetricRecord], RunSummary]:
    """Train per the config, instrumenting every eval_every steps.

    Deterministic: identical (config, dataset) pairs give field-identical
    logs. Non-finite values anywhere terminate the run as diverged, keeping
    the log collected so far. ``param_sink(step, theta)``, when given, is
    called with a copy of the parameters at every instrumented checkpoint.

    Checkpoints sit at steps eval_every, 2*eval_every, ...: the untrained
    parameter point carries no information about the hyperparameters under
    study (it is identical across runs that share an init seed), so maxima
    over the logged trajectory reflect where SGD actually steered.
    """
    spec = config.model
    train_set = _as_model_batch(spec, dataset.train())
    val_set = _as_model_batch(spec, dataset.val())
    n_train = train_set.size
    if config.batch_size > n_train:
        raise InvalidConfigError("batch_size exceeds training set size")
    if spec.layer_sizes[0] != dataset.n_features:
        raise InvalidConfigError("model input width does not match dataset features")

    theta = init_params(spec)
    velocity = np.zeros_like(theta)
    running = _init_bn_running(spec)

    n_eval = max(1, int(round(config.eval_subset_fraction * n_train)))
    eval_idx = make_rng(config.seed, 2).choice(n_train, size=n_eval, replace=False)
    eval_subset = train_set.subset(np.sort(eval_idx))

    shuffle_rng = make_rng(config.seed, 1)
    records: list[MetricRecord] = []
    diverged = False
    step = 0
    for epoch in range(config.epochs):
        lr = config.schedule.lr_at(config.eta, epoch)
        perm = shuffle_rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            batch = train_set.subset(perm[start : start + config.batch_size])
            try:
                if running is not None:
                    running = _update_bn_running(running, bn_batch_statistics(spec, theta, batch))
                record, g = None, None
                if step > 0 and step % config.eval_every == 0:
                    record, g_now = _checkpoint_record(
                        config, theta, step, epoch, lr,
                        train_set, val_set, eval_subset, batch, running,
                    )
                    if not spec.has_bn:
                        # without BN the checkpoint's g_now is this step's
                        # gradient: the same call on the same batch
                        g = g_now
                    if param_sink is not None:
                        param_sink(step, theta.copy())
                if g is None:
                    g = grad(spec, theta, batch, BATCH_STATS)
                theta_next, velocity = sgd_step(theta, g, velocity, lr, config.momentum)
                if record is not None:
                    eval_mode = running if running is not None else BATCH_STATS
                    try:
                        record.delta_loss = delta_loss(
                            spec, record.train_loss, theta_next, train_set, eval_mode
                        )
                    except NonFiniteError:
                        record.delta_loss = None
                        records.append(record)
                        diverged = True
                        break
                    records.append(record)
                theta = theta_next
                if not np.all(np.isfinite(theta)):
                    raise NonFiniteError("parameters diverged")
            except NonFiniteError:
                diverged = True
                break
            step += 1
        if diverged:
            break
    return records, summarize_run(records, diverged, config.accuracy_threshold)


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
    max_h1, h1_step = None, None
    for r in records:
        if r.lambda_h_top:
            v = r.lambda_h_top[0]
            if max_h1 is None or v > max_h1:
                max_h1, h1_step = v, r.step
    threshold_epoch = next(
        (r.epoch for r in records if r.train_acc is not None and r.train_acc >= accuracy_threshold),
        None,
    )
    first_negative = next(
        (r.step for r in records if r.delta_loss is not None and r.delta_loss < 0), None
    )
    alpha_series = []
    for r in records:
        if r.lambda_k1 is not None and r.lambda_h_top and abs(r.lambda_h_top[0]) > 1e-12:
            alpha_series.append(r.lambda_k1 / r.lambda_h_top[0])
        else:
            alpha_series.append(None)
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
    usable = [r for r in records if r.lambda_k1 is not None and r.lambda_h_top]
    if len(usable) < 5:
        raise InsufficientDataError("need at least 5 instrumented checkpoints")
    k1 = np.array([r.lambda_k1 for r in usable])
    argmax = int(np.argmax(k1))
    argmax_step = usable[argmax].step
    first_negative = next(
        (r.step for r in records if r.delta_loss is not None and r.delta_loss < 0), None
    )
    h1 = np.array([r.lambda_h_top[0] for r in usable])
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
    verdicts: dict  # metric -> "holds" | "violated" | "tie"


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
    keep_records: bool = False,
) -> SweepReport:
    """Run all (axis value, seed) cells and issue ordinal verdicts.

    The variance-reduction reading holds when the seed-averaged maxima of
    lambda_k1 (and lambda_h1, trace_k) strictly shrink toward larger learning
    rate / momentum or smaller batch size; the pre-conditioning reading when
    max cond_ratio strictly grows in the same direction. A value the run
    config rejects raises before any cell trains. Diverged cells and cells
    that fail with a package error (``BreakevenError``) while training, such
    as a batch larger than the training split, are isolated and excluded
    from the means; any other exception is a bug and propagates.
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
    cells = []
    for value, seed, cfg in plan:
        try:
            records, summary = run_training(cfg, dataset)
            cells.append(
                SweepCell(
                    axis_value=value,
                    seed=seed,
                    summary=summary,
                    diverged=summary.diverged,
                    records=records if keep_records else None,
                    config=cfg,
                )
            )
        except BreakevenError as exc:  # isolate per-cell failures; bugs propagate
            cells.append(
                SweepCell(
                    axis_value=value, seed=seed, summary=None, diverged=True,
                    error=str(exc), error_type=type(exc).__name__, config=cfg,
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


def validate_metric_log(text: str) -> None:
    """Schema check: every line parses, required fields are present, values
    are finite or explicit nulls, steps strictly increase."""
    meta, records = parse_metric_log(text)
    for key in ("schema_version", "config", "prng_algorithm", "artifact_version"):
        if key not in meta:
            raise InvalidConfigError(f"metadata missing {key!r}")
    last_step = -1
    for i, r in enumerate(records):
        if r.step is None or r.step <= last_step:
            raise InvalidConfigError(f"record {i}: steps must strictly increase")
        last_step = r.step
        for name in METRIC_FIELDS:
            v = getattr(r, name)
            if isinstance(v, float) and not np.isfinite(v):
                raise InvalidConfigError(f"record {i}: field {name} is not finite")
            if isinstance(v, list):
                for x in v:
                    if x is not None and not np.isfinite(x):
                        raise InvalidConfigError(f"record {i}: field {name} has non-finite entry")


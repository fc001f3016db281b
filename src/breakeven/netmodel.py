"""From-scratch feedforward network with exact gradients and Hessian-vector
products.

Parameters live in a single flat float64 vector with a canonical layout: for
each layer, weights (fan_in x fan_out, row-major), then biases, then, when the
layer is batch-normalized, gamma and beta. Frozen batch-norm statistics live
the same way in a second vector, of ``spec.stats_dim`` floats: each BN
layer's means, then its variances. Hidden layers apply
linear -> (batch norm) -> activation; the output layer is linear (logits).

There is one forward pass (``_forward``) and one reverse pass
(``_backward``); every derivative is built on them, and neither checks
inputs: each public entry point runs ``_check_inputs`` once. Each pass
allocates one product per layer and computes the layer in place on it:
the forward pass applies bias, BN, γ, β and the activation to ``a @ w``,
and the reverse pass scales ``δ @ Wᵀ`` by the activation derivative, which
it reads from the layer's output ``h``. Every operation rounds as it would
on a fresh array, so the passes equal the array formulas bitwise. Both
take a batch of examples, (n, d), or groups of minibatches, (G, M, d),
reducing over the example axis within each group, so
``grouped_grad_factors`` returns one minibatch gradient per group from a
single pass; ``grad`` is its one-group case. The reverse pass can leave
chosen layers' weight gradients unsummed, as per-example factors: the
covariance readers need only inner products of the group gradients, and
``linearize`` factors every layer and keeps the pass's caches, with each
layer's δ added.

θ may carry leading axes too: a (C, D) stack holds one parameter vector per
cell of a sweep. Weights are then read as (C, fan_in, fan_out) views and
biases broadcast as (C, 1, width), and the leading axes of θ broadcast
against those of the examples: a shared (n, d) batch is evaluated at every
row of θ, a (C, n, d) batch (or C groups) pairs example block c with row c.
Row c of a stacked result is bitwise equal to the call on row c alone,
because every product runs the same BLAS kernel on each slice and every sum
runs over the example axis in the same order. Two Hessian-vector products
are provided: an exact forward-over-reverse product (``hvp_pearlmutter``,
BN-free specs only), which takes the ``Linearization`` that ``linearize``
computes once per (θ, batch) and runs only the R-passes over it, and a
central-difference product on gradients (``hvp_fd``, supports BN with frozen
statistics). ``hessian_operator`` is the one place that picks between them:
"auto" takes the exact product wherever the spec allows it, "fd" pins finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BnUnsupportedError,
    DimensionMismatchError,
    InvalidParamsError,
    NoBnLayerError,
    NonFiniteError,
    ZeroDirectionError,
)
from .linalg import LinearOperator, row_norms
from .rng import make_rng

BN_EPS = 1e-5
FD_EPS = 1e-4  # central-difference step of hvp_fd, along a unit direction
# forward_loss evaluates independent rows in blocks whose widest activation
# holds this many bytes per cell, small enough to stay in a core's L2 cache;
# each layer of a block holds its input and one output, computed in place
FORWARD_BLOCK_BYTES = 256 * 1024

RELU = "relu"
TANH = "tanh"
IDENTITY = "identity"
SOFTMAX_CE = "softmax_cross_entropy"
MSE = "mse"


def _as_tuple(value, count, kinds, what):
    if isinstance(value, (str, bool)):
        value = (value,) * count
    value = tuple(value)
    if len(value) != count:
        raise InvalidParamsError(f"{what} needs one entry per hidden layer ({count})", what)
    for v in value:
        if kinds is not None and v not in kinds:
            raise InvalidParamsError(f"unknown {what} entry {v!r}", what)
    return value


@dataclass(frozen=True)
class MlpSpec:
    """Architecture, loss and initialization of a multilayer perceptron."""

    layer_sizes: tuple[int, ...]
    activation: tuple[str, ...] = RELU
    batch_norm: tuple[bool, ...] = False
    loss: str = SOFTMAX_CE
    init: str = "gaussian_scaled"
    init_gain: Optional[float] = None  # None: sqrt(2) for relu layers, 1 otherwise
    init_constant: float = 0.0
    seed: int = 0

    # the keys only some inits read (cli._build rejects the others)
    KIND_KEYS = ("init", {"gaussian_scaled": ("init_gain",), "constant": ("init_constant",)})

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidParamsError("layer_sizes needs >= 2 positive entries", "layer_sizes")
        object.__setattr__(self, "layer_sizes", sizes)
        hidden = len(sizes) - 2
        object.__setattr__(
            self, "activation", _as_tuple(self.activation, hidden, (RELU, TANH, IDENTITY), "activation")
        )
        object.__setattr__(
            self, "batch_norm", _as_tuple(self.batch_norm, hidden, (True, False), "batch_norm")
        )
        if self.loss not in (SOFTMAX_CE, MSE):
            raise InvalidParamsError(f"unknown loss {self.loss!r}", "loss")
        if self.loss == SOFTMAX_CE and sizes[-1] < 2:
            raise InvalidParamsError("softmax cross-entropy needs >= 2 output classes", "layer_sizes")
        if self.init not in ("gaussian_scaled", "constant"):
            raise InvalidParamsError(f"unknown init {self.init!r}", "init")
        layout = []
        offset = 0
        stats = 0  # offset into the frozen-statistics vector
        for layer in range(len(sizes) - 1):
            fan_in, fan_out = sizes[layer], sizes[layer + 1]
            entry = {"layer": layer, "fan_in": fan_in, "fan_out": fan_out}
            entry["w"] = slice(offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            entry["b"] = slice(offset, offset + fan_out)
            offset += fan_out
            if layer < hidden and self.batch_norm[layer]:
                entry["gamma"] = slice(offset, offset + fan_out)
                offset += fan_out
                entry["beta"] = slice(offset, offset + fan_out)
                offset += fan_out
                entry["mean"] = slice(stats, stats + fan_out)
                entry["var"] = slice(stats + fan_out, stats + 2 * fan_out)
                stats += 2 * fan_out
            layout.append(entry)
        # built once per spec; not a dataclass field, so it stays out of
        # equality, repr and the config dicts written to logs
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_stats_dim", stats)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_hidden(self) -> int:
        return len(self.layer_sizes) - 2

    @property
    def has_bn(self) -> bool:
        return any(self.batch_norm)

    @property
    def bn_layers(self) -> tuple[int, ...]:
        return tuple(i for i, bn in enumerate(self.batch_norm) if bn)

    def layout(self) -> tuple[dict, ...]:
        """Slices of the flat parameter vector, one entry per layer; a BN
        layer's entry also holds its ``mean`` and ``var`` slices of the
        frozen-statistics vector."""
        return self._layout

    @property
    def param_dim(self) -> int:
        last = self._layout[-1]
        final = last.get("beta", last["b"])
        return final.stop

    @property
    def stats_dim(self) -> int:
        """Length of a frozen-statistics vector; 0 without BN."""
        return self._stats_dim


def init_params(spec: MlpSpec) -> np.ndarray:
    """Deterministic initialization: identical (spec, seed) gives bitwise-
    identical parameters."""
    rng = make_rng(spec.seed)
    theta = np.zeros(spec.param_dim)
    for entry in spec.layout():
        layer, fan_in, fan_out = entry["layer"], entry["fan_in"], entry["fan_out"]
        if spec.init == "constant":
            theta[entry["w"]] = spec.init_constant
        else:
            if spec.init_gain is not None:
                gain = spec.init_gain
            elif layer < spec.n_hidden and spec.activation[layer] == RELU:
                gain = np.sqrt(2.0)
            else:
                gain = 1.0
            sigma = gain / np.sqrt(fan_in)
            theta[entry["w"]] = sigma * rng.standard_normal(fan_in * fan_out)
        if "gamma" in entry:
            theta[entry["gamma"]] = 1.0
    return theta


def init_bn_stats(spec: MlpSpec) -> np.ndarray:
    """Frozen statistics before any batch is seen: zero means, unit
    variances; a (stats_dim,) vector, empty without BN."""
    stats = np.zeros(spec.stats_dim)
    for entry in spec.layout():
        if "var" in entry:
            stats[entry["var"]] = 1.0
    return stats


@dataclass(frozen=True)
class Batch:
    """Examples with their labels: inputs (n, d) with class labels (n,) or
    regression targets (n, out); or one such batch per cell of a stacked θ,
    inputs (C, n, d) with labels (C, n) or (C, n, out)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        if x.ndim not in (2, 3) or x.shape[-2] < 1:
            raise InvalidParamsError("inputs must be a nonempty (n, d) matrix or a (C, n, d) stack")
        if not np.all(np.isfinite(x)):
            raise NonFiniteError("inputs must be finite")
        y = np.asarray(self.labels)
        if np.issubdtype(y.dtype, np.integer):
            if y.shape != x.shape[:-1]:
                raise DimensionMismatchError("class labels must be a length-n vector")
        else:
            y = y.astype(np.float64)
            if y.ndim != x.ndim or y.shape[:-1] != x.shape[:-1]:
                raise DimensionMismatchError("regression labels must be (n, out)")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        """Examples per batch (per cell, for a stack)."""
        return self.inputs.shape[-2]

    def subset(self, idx: np.ndarray) -> "Batch":
        return Batch(inputs=self.inputs[idx], labels=self.labels[idx])


def _check_inputs(
    spec: MlpSpec, theta: np.ndarray, batch: Optional[Batch] = None, bn_stats: Optional[np.ndarray] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The one input check of the public entry points: returns θ as finite
    float64 (..., D), after checking the labels against the loss and output
    width, and frozen statistics as float64 (..., stats_dim) with no leading
    axis θ lacks (None, batch statistics, passes through)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim < 1 or theta.shape[-1] != spec.param_dim:
        raise DimensionMismatchError(
            f"parameter vector has shape {theta.shape}, spec needs (..., {spec.param_dim})"
        )
    if not np.all(np.isfinite(theta)):
        raise NonFiniteError("parameter vector has NaN or Inf entries")
    if batch is not None:
        y = batch.labels
        if spec.loss == SOFTMAX_CE:
            if not np.issubdtype(y.dtype, np.integer):
                raise InvalidParamsError("softmax cross-entropy needs integer class labels")
            classes = spec.layer_sizes[-1]
            if np.any(y < 0) or np.any(y >= classes):
                raise InvalidParamsError(f"labels must lie in [0, {classes})")
        elif np.issubdtype(y.dtype, np.integer):
            raise InvalidParamsError("mse needs (n, out) float targets")
        elif y.shape[-1] != spec.layer_sizes[-1]:
            raise DimensionMismatchError("target width does not match output size")
    if bn_stats is not None:
        bn_stats = np.asarray(bn_stats, dtype=np.float64)
        lead = bn_stats.shape[:-1]
        fits = len(lead) < theta.ndim and all(s in (1, t) for s, t in zip(lead[::-1], theta.shape[-2::-1]))
        if bn_stats.ndim < 1 or bn_stats.shape[-1] != spec.stats_dim or not fits:
            raise DimensionMismatchError(
                f"frozen statistics have shape {bn_stats.shape}; θ of shape {theta.shape} "
                f"needs (..., {spec.stats_dim}) with no leading axis it lacks"
            )
    return theta, bn_stats


def _act_inplace(kind: str, y: np.ndarray) -> np.ndarray:
    """The activation, applied in place on ``y``, which it returns."""
    if kind == RELU:
        np.maximum(y, 0.0, out=y)
    elif kind == TANH:
        np.tanh(y, out=y)
    return y


def _act_d(kind: str, h: np.ndarray) -> np.ndarray:
    """The activation's derivative, read from its output ``h``: relu's
    h > 0 holds exactly where its input y > 0 (a NaN fails both), tanh's is
    1 - h², the identity's 1."""
    if kind == RELU:
        return (h > 0.0).astype(np.float64)
    if kind == TANH:
        return 1.0 - h * h
    return np.ones_like(h)


def _matrix(vec: np.ndarray, entry: dict) -> np.ndarray:
    """The layer's weights as a (..., fan_in, fan_out) view of ``vec``."""
    return vec[..., entry["w"]].reshape(vec.shape[:-1] + (entry["fan_in"], entry["fan_out"]))


def _row(vec: np.ndarray, part: slice) -> np.ndarray:
    """A per-unit block of ``vec`` (bias, gamma, beta) as a (..., 1, width)
    view, which broadcasts over the example axis."""
    return vec[..., None, part]


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return a.swapaxes(-1, -2)


@np.errstate(over="ignore", invalid="ignore")
def _forward(
    spec: MlpSpec, theta: np.ndarray, x: np.ndarray, bn_stats: Optional[np.ndarray], keep_caches: bool = True
):
    """Run the network, returning logits plus per-layer caches for backward
    (an empty list when ``keep_caches`` is False: each layer's cache is then
    dropped before the next layer's product, so the pass holds one layer's
    input and its output at a time).

    Each hidden layer forms one product ``a @ w`` and computes in place on
    it, in the order bias, BN centering and scaling, γ, β, activation: the
    operations of ``y = γ·(a @ w + b − μ)·inv + β``, ``h = act(y)``, each
    rounding as it would on a fresh array. A layer's cache holds its input
    ``a_in``, weights and output ``h`` (the next layer's input); a BN layer
    adds its statistics, ``inv`` and, only when caches are kept, x̂ as its
    own array. No pre-activation is kept.

    ``x`` is (n, d), or (G, M, d) for G groups of M examples: every
    reduction runs over the example axis -2, so each group gets its own BN
    batch statistics and a group computes exactly what it would alone.
    ``bn_stats`` None normalizes by those batch statistics; a frozen
    statistics vector may carry the leading axes of a stacked θ, whose
    leading axes broadcast against x's. Inputs come checked.

    Overflow is not a numpy warning here: non-finite activations raise
    NonFiniteError, which training loops treat as divergence.
    """
    layout = spec.layout()
    a = x
    caches = []
    for entry in layout[:-1]:
        w = _matrix(theta, entry)
        # the product has every leading axis of a and θ, so each operand
        # below broadcasts into it
        z = a @ w
        z += _row(theta, entry["b"])
        cache = {"a_in": a, "w": w, "entry": entry}
        if "gamma" in entry:
            if bn_stats is None:
                mu = z.mean(axis=-2)
                var = z.var(axis=-2)
            else:
                mu = bn_stats[..., entry["mean"]]
                var = bn_stats[..., entry["var"]]
            inv = 1.0 / np.sqrt(var[..., None, :] + BN_EPS)
            gamma = _row(theta, entry["gamma"])
            cache.update(gamma=gamma, mu=mu, var=var, inv=inv, batch_stats=bn_stats is None)
            z -= mu[..., None, :]
            z *= inv
            if keep_caches:
                # the reverse pass reads x̂, so γ·x̂ goes to a new array
                cache["xhat"], z = z, z * gamma
            else:
                z *= gamma
            z += _row(theta, entry["beta"])
        a = cache["h"] = _act_inplace(spec.activation[entry["layer"]], z)
        if keep_caches:
            caches.append(cache)
        # without caches only the next layer's input outlives this layer
        del cache, z
    last = layout[-1]
    w = _matrix(theta, last)
    logits = a @ w + _row(theta, last["b"])
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("activations overflowed during the forward pass")
    return logits, caches, {"a_in": a, "w": w, "entry": last}


def _per_example_loss(spec: MlpSpec, logits: np.ndarray, labels) -> np.ndarray:
    if spec.loss == SOFTMAX_CE:
        m = logits.max(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(np.sum(np.exp(logits - m), axis=-1))
        picked = np.broadcast_to(labels, logits.shape[:-1])[..., None]
        return lse - np.take_along_axis(logits, picked, axis=-1)[..., 0]
    return np.sum((logits - labels) ** 2, axis=-1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _loss_grad_logits(spec: MlpSpec, logits: np.ndarray, labels) -> np.ndarray:
    """d(per-example loss)/d(logits), one row per example."""
    if spec.loss == SOFTMAX_CE:
        # subtracting the boolean one-hot takes 1.0 off the label entry only
        return _softmax(logits) - (labels[..., None] == np.arange(logits.shape[-1]))
    return 2.0 * (logits - labels)


@dataclass(frozen=True)
class ForwardResult:
    """Floats for one θ; for a stacked θ, one entry per row."""

    mean_loss: Union[float, np.ndarray]
    per_example: np.ndarray
    accuracy: Union[float, np.ndarray]


def _scalar(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


def forward_loss(
    spec: MlpSpec, theta: np.ndarray, batch: Batch, bn_stats: Optional[np.ndarray] = None
) -> ForwardResult:
    """Mean loss, per-example losses and argmax accuracy on a batch.

    The inputs are checked once. When the rows are independent (no BN, or
    frozen ``bn_stats``), the batch is evaluated in blocks of rows sized so
    one activation of the widest layer fills ``FORWARD_BLOCK_BYTES`` per
    cell, and no layer caches are kept: each layer is computed in place on
    its one product (x̂ is not kept apart), and each block's losses and
    predictions are written into one (…, n) result, so the pass's memory
    does not grow with n and each block reuses the memory the last one
    freed, where one whole-batch pass maps fresh pages for every array. BN
    batch statistics couple the rows, so that case stays one whole-batch
    pass. The block size does not depend on the cell count, so row c of a
    stacked call is still bitwise the call on row c alone; against one
    whole-batch pass a row's loss may differ in the last bits, where the
    BLAS kernel for a product depends on its row count.

    Accuracy ties resolve to the lowest class index. Raises NonFiniteError
    when activations overflow, which training loops treat as divergence.
    """
    theta, bn_stats = _check_inputs(spec, theta, batch, bn_stats)
    x, labels = batch.inputs, batch.labels
    n = batch.size
    rows = n if spec.has_bn and bn_stats is None else max(1, FORWARD_BLOCK_BYTES // (8 * max(spec.layer_sizes)))
    lead = np.broadcast_shapes(theta.shape[:-1], x.shape[:-2])
    per_example = np.empty(lead + (n,))
    correct = np.empty(lead + (n,), dtype=bool)
    classes = np.issubdtype(labels.dtype, np.integer)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        y = labels[..., block] if classes else labels[..., block, :]
        logits, _, _ = _forward(spec, theta, x[..., block, :], bn_stats, keep_caches=False)
        with np.errstate(over="ignore", invalid="ignore"):
            per_example[..., block] = _per_example_loss(spec, logits, y)
        correct[..., block] = np.argmax(logits, axis=-1) == (y if classes else np.argmax(y, axis=-1))
    if not np.all(np.isfinite(per_example)):
        raise NonFiniteError("loss overflowed")
    return ForwardResult(
        mean_loss=_scalar(per_example.mean(axis=-1)),
        per_example=per_example,
        accuracy=_scalar(correct.mean(axis=-1)),
    )


@dataclass(frozen=True)
class LayerFactors:
    """A dense layer's weight gradients over G groups of M examples, kept as
    per-example factors: group g's gradient is ``inputs[g]ᵀ deltas[g]``, a
    sum of M outer products of the layer input with the δ at the layer's
    output. ``cols`` is where that (fan_in, fan_out) block sits, row-major,
    in θ."""

    cols: slice
    inputs: np.ndarray  # (G, M, fan_in)
    deltas: np.ndarray  # (G, M, fan_out)


def _backward(
    spec: MlpSpec, caches, last, dlogits, factored: Sequence[int] = ()
) -> tuple[np.ndarray, tuple[LayerFactors, ...]]:
    """Accumulate parameter gradients given d(loss)/d(logits) rows.

    Sums run over the example axis -2; for grouped caches (or a stacked θ)
    the result has one gradient row per group (or per row of θ). Each weight
    gradient is written by ``np.matmul`` straight into its slice of the
    result, so no (G, fan_in, fan_out) temporary is built. The weights of
    the ``factored`` layers are not summed: their columns are left out of
    the rows, and each such layer's input and δ are returned instead, as
    ``LayerFactors`` in layer order. Every column of the rows is written, so
    they start uninitialized. Each hidden layer's activation derivative
    ``d1``, read from its output ``h``, joins its cache. Each layer's δ
    starts as a fresh ``δ_above @ Wᵀ`` product, and ``d1`` (then, with
    frozen statistics, γ and ``inv``) scale it in place.
    """
    skipped = [e["w"] for e in spec.layout() if e["layer"] in factored]
    grad = np.empty(dlogits.shape[:-2] + (spec.param_dim - sum(w.stop - w.start for w in skipped),))
    lead = grad.shape[:-1]
    factors = []

    def cols(part):
        # where a θ slice sits in the rows: shifted past the skipped weights
        if not skipped:
            return part
        shift = sum(w.stop - w.start for w in skipped if w.stop <= part.start)
        return slice(part.start - shift, part.stop - shift)

    def weight_grad(entry, a_in, dz):
        if entry["layer"] in factored:
            factors.append(LayerFactors(cols=entry["w"], inputs=a_in, deltas=dz))
        else:
            # splits only the contiguous last axis, so the reshape is a view
            out = grad[..., cols(entry["w"])].reshape(lead + (entry["fan_in"], entry["fan_out"]))
            np.matmul(a_in.swapaxes(-1, -2), dz, out=out)
        grad[..., cols(entry["b"])] = dz.sum(axis=-2)

    weight_grad(last["entry"], last["a_in"], dlogits)
    # δ and weights of the layer above; the input layer's own δ goes nowhere
    dz, upper = dlogits, last
    for cache in reversed(caches):
        entry = cache["entry"]
        cache["d1"] = _act_d(spec.activation[entry["layer"]], cache["h"])
        dy = dz @ _t(upper["w"])
        dy *= cache["d1"]
        if "gamma" in cache:
            grad[..., cols(entry["gamma"])] = (dy * cache["xhat"]).sum(axis=-2)
            grad[..., cols(entry["beta"])] = dy.sum(axis=-2)
            dxhat = dy
            dxhat *= cache["gamma"]
            if cache["batch_stats"]:
                nb = dy.shape[-2]
                sum_dxhat = dxhat.sum(axis=-2, keepdims=True)
                sum_dxhat_xhat = (dxhat * cache["xhat"]).sum(axis=-2, keepdims=True)
                dz = cache["inv"] / nb * (nb * dxhat - sum_dxhat - cache["xhat"] * sum_dxhat_xhat)
            else:
                dxhat *= cache["inv"]
                dz = dxhat
        else:
            dz = dy
        weight_grad(entry, cache["a_in"], dz)
        upper = cache
    return grad, tuple(reversed(factors))


def bn_batch_statistics(spec: MlpSpec, theta: np.ndarray, batch: Batch) -> np.ndarray:
    """Batch means and variances at each BN layer for the given inputs, as
    a (..., stats_dim) frozen-statistics vector (one row per row of a
    stacked θ); used by the trainer to maintain running statistics."""
    theta, _ = _check_inputs(spec, theta)
    if not spec.has_bn:
        return np.zeros(theta.shape[:-1] + (0,))
    _, caches, _ = _forward(spec, theta, batch.inputs, None)
    return np.concatenate([s for c in caches if "gamma" in c for s in (c["mu"], c["var"])], axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _mean_grads(
    spec: MlpSpec,
    theta: np.ndarray,
    x: np.ndarray,
    labels,
    bn_stats: Optional[np.ndarray],
    factored: Sequence[int] = (),
) -> tuple[np.ndarray, tuple[LayerFactors, ...]]:
    """Gradient of the mean loss over the example axis -2 of ``x``: one
    forward and one reverse pass, with the inputs already checked.
    The ``factored`` layers' weights come back as factors (``_backward``)."""
    logits, caches, last = _forward(spec, theta, x, bn_stats)
    dlogits = _loss_grad_logits(spec, logits, labels) / x.shape[-2]
    g, factors = _backward(spec, caches, last, dlogits, factored)
    # NaN propagates through min and max and an inf sits at one end: no G x D
    # mask; a non-finite δ also reaches its layer's bias columns
    if not (np.isfinite(g.min()) and np.isfinite(g.max())):
        raise NonFiniteError("gradient overflowed")
    return g, factors


def grouped_grad_factors(
    spec: MlpSpec,
    theta: np.ndarray,
    batch: Batch,
    groups,
    factored: Sequence[int],
    bn_stats: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, tuple[LayerFactors, ...]]:
    """Mean loss gradient of each group of examples, from one forward and
    one reverse pass, with the weight gradients of the ``factored`` layers
    left as per-example factors.

    ``groups`` is a (G, M) array of example indices into ``batch``; with
    ``bn_stats`` None each group is normalized by its own batch statistics
    (frozen statistics normalize every group alike), and a
    (G, D) stack θ evaluates group g at row g. Returns the (G, P) rows of
    every parameter outside the factored weights, in θ order, and one
    ``LayerFactors`` per factored layer, in layer order. With no layer
    factored, row g equals ``grad(spec, theta, batch.subset(groups[g]),
    bn_stats)``; a factored layer's ``inputs[g]ᵀ deltas[g]`` equals its block.
    """
    theta, bn_stats = _check_inputs(spec, theta, batch, bn_stats)
    groups = np.asarray(groups)
    if groups.ndim != 2 or min(groups.shape) < 1:
        raise InvalidParamsError("groups must be a (G >= 1, M >= 1) index array")
    return _mean_grads(spec, theta, batch.inputs[groups], batch.labels[groups], bn_stats, factored)


def grad(spec: MlpSpec, theta: np.ndarray, batch: Batch, bn_stats: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact reverse-mode gradient of the mean batch loss; the same pass as
    one group of ``grouped_grad_factors``. A stacked θ gives one gradient per
    row, on the shared batch or, for a (C, n, d) batch, on block c."""
    theta, bn_stats = _check_inputs(spec, theta, batch, bn_stats)
    return _mean_grads(spec, theta, batch.inputs, batch.labels, bn_stats)[0]


@dataclass(frozen=True)
class Linearization:
    """The direction-independent half of an exact Hessian-vector product at
    one (θ, batch), built by ``linearize`` and read by ``hvp_pearlmutter``.

    ``layers`` are the pass's own hidden-layer caches, in forward order,
    holding the layer input ``a_in``, the weights ``w``, the activation
    derivative ``d1`` (from ``_backward``), the first-order δ and the
    curvature factor ``back_d2``: the δ from above times the activation's
    second derivative, -2·h·δ for tanh (tanh'' = -2·tanh·tanh'), None for
    relu and identity. ``last`` is the output layer's cache, with ``delta``
    (the mean loss's gradient in the logits) and ``probs`` (their softmax,
    None under MSE).
    """

    layers: tuple[dict, ...]
    last: dict


@np.errstate(over="ignore", invalid="ignore")
def linearize(spec: MlpSpec, theta: np.ndarray, batch: Batch) -> Linearization:
    """The forward pass and the reverse pass of ``grad``, run once for every
    direction of ``hvp_pearlmutter`` at this (θ, batch). Every layer is
    factored, so the reverse pass forms no weight-gradient block and hands
    back each layer's δ, which joins the pass's caches.

    Checks θ and the labels; BN specs raise BnUnsupportedError.
    """
    if spec.has_bn:
        raise BnUnsupportedError("exact HVP does not support batch-norm layers")
    theta, _ = _check_inputs(spec, theta, batch)
    logits, caches, last = _forward(spec, theta, batch.inputs, None)
    delta = _loss_grad_logits(spec, logits, batch.labels) / batch.size
    _, factors = _backward(spec, caches, last, delta, range(spec.n_layers))
    for cache, f in zip(caches, factors):
        tanh = spec.activation[cache["entry"]["layer"]] == TANH
        cache.update(delta=f.deltas, back_d2=-2.0 * cache["h"] * f.deltas if tanh else None)
    last.update(delta=delta, probs=_softmax(logits) if spec.loss == SOFTMAX_CE else None)
    return Linearization(layers=tuple(caches), last=last)


@np.errstate(over="ignore", invalid="ignore")
def hvp_pearlmutter(
    spec: MlpSpec, theta: np.ndarray, batch: Batch, v: np.ndarray, lin: Linearization
) -> np.ndarray:
    """Exact Hessian-vector product by forward-over-reverse differentiation.

    Linear in ``v``. ``lin`` must be ``linearize(spec, theta, batch)``,
    which checks θ and rejects BN specs (use ``hvp_fd`` with frozen
    statistics for those): the call runs only the R-forward and R-backward
    passes over it, and a non-finite ``v`` surfaces as a non-finite product,
    which raises NonFiniteError. A stacked θ takes a stack ``v`` of the same
    shape: row c is the product at row c of θ.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != np.shape(theta):
        raise DimensionMismatchError("direction and parameters differ in length")
    n = batch.size
    out = np.zeros(v.shape)

    def weight_rgrad(layer, ra, rdelta):
        # ra is None where the layer input is the data: its terms are exact
        # zeros and are skipped
        entry = layer["entry"]
        rw = _matrix(out, entry)
        np.matmul(_t(layer["a_in"]), rdelta, out=rw)
        if ra is not None:
            rw += _t(ra) @ layer["delta"]
        out[..., entry["b"]] = rdelta.sum(axis=-2)

    def r_linear(layer, ra):
        entry = layer["entry"]
        rz = layer["a_in"] @ _matrix(v, entry)
        if ra is not None:
            rz += ra @ layer["w"]
        rz += _row(v, entry["b"])
        return rz

    # directional (R-) derivatives of each layer's input and pre-activation
    ra = None
    ras, rzs = [], []
    for layer in lin.layers:
        rz = r_linear(layer, ra)
        ras.append(ra)
        rzs.append(rz)
        ra = layer["d1"] * rz
    rlogits = r_linear(lin.last, ra)

    # loss curvature at the output
    p = lin.last["probs"]
    if p is not None:
        prz = p * rlogits
        rdelta = (prz - p * prz.sum(axis=-1, keepdims=True)) / n
    else:
        rdelta = 2.0 * rlogits / n

    weight_rgrad(lin.last, ra, rdelta)
    upper = lin.last
    for layer, ra, rz in zip(reversed(lin.layers), reversed(ras), reversed(rzs)):
        rdelta = rdelta @ _t(upper["w"])
        rdelta += upper["delta"] @ _t(_matrix(v, upper["entry"]))
        rdelta *= layer["d1"]
        if layer["back_d2"] is not None:
            rdelta += layer["back_d2"] * rz
        weight_rgrad(layer, ra, rdelta)
        upper = layer
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("Hessian-vector product overflowed")
    return out


def hvp_fd(
    spec: MlpSpec,
    theta: np.ndarray,
    batch: Batch,
    v: np.ndarray,
    bn_stats: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hessian-vector product by central differences of the gradient along
    the normalized direction, with step ``FD_EPS``; invariant to the scale
    of ``v``. θ + step and θ − step form one two-row stack, so both
    gradients come from one ``grad`` call, whose check sees the statistics
    take the pair axis too. A stacked θ takes a stack ``v`` of the same
    shape, one direction per row."""
    theta = np.asarray(theta, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != theta.shape:
        raise DimensionMismatchError("direction and parameters differ in length")
    norm = row_norms(v)[..., None]
    if np.any(norm == 0.0):
        raise ZeroDirectionError("direction has zero norm")
    # pair[1] holds the step until θ - step overwrites it in place
    pair = np.empty((2,) + theta.shape)
    step = np.multiply(v, FD_EPS / norm, out=pair[1])
    np.add(theta, step, out=pair[0])
    np.subtract(theta, step, out=step)
    hv, minus = grad(spec, pair, batch, None if bn_stats is None else np.expand_dims(bn_stats, 0))
    hv -= minus
    hv *= norm / (2.0 * FD_EPS)
    return hv


def hessian_operator(
    spec: MlpSpec,
    theta: np.ndarray,
    batch: Batch,
    method: str = "auto",
    bn_stats: Optional[np.ndarray] = None,
) -> LinearOperator:
    """The Hessian of the mean batch loss as a symmetric linear operator.

    ``method`` "auto" takes the exact product (``hvp_pearlmutter``), or the
    finite-difference one (``hvp_fd``) on a spec with batch norm, which the
    exact product does not support; "fd" pins finite differences. The
    inputs are checked once: by ``linearize`` for the exact product, which
    reads no statistics, else here. The exact product is linearized once,
    so each matvec runs only its R-passes; every matvec still calls the
    module-level ``hvp_pearlmutter`` or ``hvp_fd``, looked up at call time.
    For a stacked θ the operator maps a stack of directions, one per row of
    θ, to their products in one call.
    """
    if method not in ("auto", "fd"):
        raise InvalidParamsError(f"unknown HVP method {method!r}")
    if method == "auto" and not spec.has_bn:
        lin = linearize(spec, theta, batch)
        return LinearOperator(dim=spec.param_dim, apply=lambda v: hvp_pearlmutter(spec, theta, batch, v, lin))
    theta, bn_stats = _check_inputs(spec, theta, batch, bn_stats)
    return LinearOperator(dim=spec.param_dim, apply=lambda v: hvp_fd(spec, theta, batch, v, bn_stats=bn_stats))


def bn_gamma_norm(spec: MlpSpec, theta: np.ndarray, layer_index: int) -> float:
    """Euclidean norm of the gamma scale vector of the given hidden layer."""
    theta, _ = _check_inputs(spec, theta)
    if layer_index < 0 or layer_index >= spec.n_hidden or not spec.batch_norm[layer_index]:
        raise NoBnLayerError(f"hidden layer {layer_index} has no batch norm")
    entry = spec.layout()[layer_index]
    return float(np.linalg.norm(theta[entry["gamma"]]))

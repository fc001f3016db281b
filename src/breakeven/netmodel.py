"""From-scratch feedforward network with exact gradients and Hessian-vector
products.

Parameters live in a single flat float64 vector with a canonical layout: for
each layer, weights (fan_in x fan_out, row-major), then biases, then, when the
layer is batch-normalized, gamma and beta. Hidden layers apply
linear -> (batch norm) -> activation; the output layer is linear (logits).

There is one forward pass (``_forward``) and one reverse pass
(``_backward``); every derivative is built on them. Both take a batch of
examples, (n, d), or groups of minibatches, (G, M, d), reducing over the
example axis within each group, so ``grouped_grads`` returns one minibatch
gradient per group from a single pass and ``per_example_grads`` is its
groups-of-one case. Two Hessian-vector products are provided: an exact
forward-over-reverse product (``hvp_pearlmutter``, BN-free specs only), whose
R-pass reads ``_forward``'s caches, and a central-difference product on
gradients (``hvp_fd``, supports BN with frozen statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BnBatchStatsUnsupportedError,
    BnUnsupportedError,
    DimensionMismatchError,
    InvalidParamsError,
    NoBnLayerError,
    NonFiniteError,
    ZeroDirectionError,
)
from .linalg import LinearOperator
from .rng import make_rng

BN_EPS = 1e-5
FD_EPS = 1e-4  # central-difference step of hvp_fd, along a unit direction

RELU = "relu"
TANH = "tanh"
IDENTITY = "identity"
SOFTMAX_CE = "softmax_cross_entropy"
MSE = "mse"
BATCH_STATS = "batch"


@dataclass(frozen=True)
class BnStats:
    """Frozen batch-norm statistics, one entry per BN layer in layer order."""

    means: tuple[np.ndarray, ...]
    variances: tuple[np.ndarray, ...]


BnMode = Union[str, BnStats]


def _as_tuple(value, count, kinds, what):
    if isinstance(value, (str, bool)):
        value = (value,) * count
    value = tuple(value)
    if len(value) != count:
        raise InvalidParamsError(f"{what} needs one entry per hidden layer ({count})")
    for v in value:
        if kinds is not None and v not in kinds:
            raise InvalidParamsError(f"unknown {what} entry {v!r}")
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

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidParamsError("layer_sizes needs >= 2 positive entries")
        object.__setattr__(self, "layer_sizes", sizes)
        hidden = len(sizes) - 2
        object.__setattr__(
            self, "activation", _as_tuple(self.activation, hidden, (RELU, TANH, IDENTITY), "activation")
        )
        object.__setattr__(
            self, "batch_norm", _as_tuple(self.batch_norm, hidden, (True, False), "batch_norm")
        )
        if self.loss not in (SOFTMAX_CE, MSE):
            raise InvalidParamsError(f"unknown loss {self.loss!r}")
        if self.loss == SOFTMAX_CE and sizes[-1] < 2:
            raise InvalidParamsError("softmax cross-entropy needs >= 2 output classes")
        if self.init not in ("gaussian_scaled", "constant"):
            raise InvalidParamsError(f"unknown init {self.init!r}")
        layout = []
        offset = 0
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
            layout.append(entry)
        # built once per spec; not a dataclass field, so it stays out of
        # equality, repr and the config dicts written to logs
        object.__setattr__(self, "_layout", tuple(layout))

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
        """Slices of the flat parameter vector, one entry per layer."""
        return self._layout

    @property
    def param_dim(self) -> int:
        last = self._layout[-1]
        final = last.get("beta", last["b"])
        return final.stop


def check_params(spec: MlpSpec, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.param_dim,):
        raise DimensionMismatchError(
            f"parameter vector has shape {theta.shape}, spec needs ({spec.param_dim},)"
        )
    if not np.all(np.isfinite(theta)):
        raise NonFiniteError("parameter vector has NaN or Inf entries")
    return theta


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


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InvalidParamsError("inputs must be a nonempty (n, d) matrix")
        if not np.all(np.isfinite(x)):
            raise NonFiniteError("inputs must be finite")
        y = np.asarray(self.labels)
        if np.issubdtype(y.dtype, np.integer):
            if y.shape != (x.shape[0],):
                raise DimensionMismatchError("class labels must be a length-n vector")
        else:
            y = y.astype(np.float64)
            if y.ndim != 2 or y.shape[0] != x.shape[0]:
                raise DimensionMismatchError("regression labels must be (n, out)")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def subset(self, idx: np.ndarray) -> "Batch":
        return Batch(inputs=self.inputs[idx], labels=self.labels[idx])


def _check_classification_labels(spec: MlpSpec, batch: Batch):
    y = batch.labels
    if spec.loss == SOFTMAX_CE:
        if not np.issubdtype(np.asarray(y).dtype, np.integer):
            raise InvalidParamsError("softmax cross-entropy needs integer class labels")
        classes = spec.layer_sizes[-1]
        if np.any(y < 0) or np.any(y >= classes):
            raise InvalidParamsError(f"labels must lie in [0, {classes})")
    else:
        if np.issubdtype(np.asarray(y).dtype, np.integer):
            raise InvalidParamsError("mse needs (n, out) float targets")
        if y.shape[1] != spec.layer_sizes[-1]:
            raise DimensionMismatchError("target width does not match output size")


def _act(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == RELU:
        return np.maximum(z, 0.0)
    if kind == TANH:
        return np.tanh(z)
    return z


def _act_d(kind: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if kind == RELU:
        return (z > 0.0).astype(np.float64)
    if kind == TANH:
        return 1.0 - a * a
    return np.ones_like(z)


def _act_dd(kind: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if kind == RELU or kind == IDENTITY:
        return np.zeros_like(z)
    # tanh'' = -2 tanh (1 - tanh^2)
    return -2.0 * a * (1.0 - a * a)


def _resolve_bn(spec: MlpSpec, bn_mode: BnMode):
    if not spec.has_bn:
        return None
    if isinstance(bn_mode, BnStats):
        if len(bn_mode.means) != len(spec.bn_layers):
            raise DimensionMismatchError("frozen statistics do not match BN layer count")
        return bn_mode
    if bn_mode == BATCH_STATS:
        return BATCH_STATS
    raise InvalidParamsError(f"unknown bn_mode {bn_mode!r}")


def _matrix(vec: np.ndarray, entry: dict) -> np.ndarray:
    return vec[entry["w"]].reshape(entry["fan_in"], entry["fan_out"])


@np.errstate(over="ignore", invalid="ignore")
def _forward(spec: MlpSpec, theta: np.ndarray, x: np.ndarray, bn_mode: BnMode):
    """Run the network, returning logits plus per-layer caches for backward.

    ``x`` is (n, d), or (G, M, d) for G groups of M examples: every
    reduction runs over the example axis -2, so each group gets its own BN
    batch statistics and a group computes exactly what it would alone.

    Overflow is not a numpy warning here: non-finite activations raise
    NonFiniteError, which training loops treat as divergence.
    """
    layout = spec.layout()
    mode = _resolve_bn(spec, bn_mode)
    a = x
    caches = []
    bn_index = 0
    for entry in layout[:-1]:
        layer = entry["layer"]
        w = _matrix(theta, entry)
        b = theta[entry["b"]]
        z = a @ w + b
        cache = {"a_in": a, "z": z, "w": w, "entry": entry}
        if "gamma" in entry:
            gamma = theta[entry["gamma"]]
            beta = theta[entry["beta"]]
            if mode == BATCH_STATS:
                mu = z.mean(axis=-2)
                var = z.var(axis=-2)
            else:
                mu = mode.means[bn_index]
                var = mode.variances[bn_index]
            bn_index += 1
            inv = 1.0 / np.sqrt(var[..., None, :] + BN_EPS)
            xhat = (z - mu[..., None, :]) * inv
            y = gamma * xhat + beta
            cache.update(gamma=gamma, mu=mu, var=var, inv=inv, xhat=xhat, batch_stats=(mode == BATCH_STATS))
        else:
            y = z
        h = _act(spec.activation[layer], y)
        cache["y"] = y
        cache["h"] = h
        caches.append(cache)
        a = h
    last = layout[-1]
    w = _matrix(theta, last)
    logits = a @ w + theta[last["b"]]
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("activations overflowed during the forward pass")
    return logits, caches, {"a_in": a, "w": w, "entry": last}


def _per_example_loss(spec: MlpSpec, logits: np.ndarray, labels) -> np.ndarray:
    if spec.loss == SOFTMAX_CE:
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.sum(np.exp(logits - m), axis=1))
        return lse - logits[np.arange(logits.shape[0]), labels]
    return np.sum((logits - labels) ** 2, axis=1)


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
    mean_loss: float
    per_example: np.ndarray
    accuracy: float


def forward_loss(
    spec: MlpSpec, theta: np.ndarray, batch: Batch, bn_mode: BnMode = BATCH_STATS
) -> ForwardResult:
    """Mean loss, per-example losses and argmax accuracy on a batch.

    Accuracy ties resolve to the lowest class index. Raises NonFiniteError
    when activations overflow, which training loops treat as divergence.
    """
    theta = check_params(spec, theta)
    _check_classification_labels(spec, batch)
    logits, _, _ = _forward(spec, theta, batch.inputs, bn_mode)
    with np.errstate(over="ignore", invalid="ignore"):
        per_example = _per_example_loss(spec, logits, batch.labels)
    if not np.all(np.isfinite(per_example)):
        raise NonFiniteError("loss overflowed")
    preds = np.argmax(logits, axis=1)
    if np.issubdtype(np.asarray(batch.labels).dtype, np.integer):
        correct = preds == batch.labels
    else:
        correct = preds == np.argmax(batch.labels, axis=1)
    return ForwardResult(
        mean_loss=float(np.mean(per_example)),
        per_example=per_example,
        accuracy=float(np.mean(correct)),
    )


def _backward(spec: MlpSpec, theta, caches, last, dlogits) -> np.ndarray:
    """Accumulate parameter gradients given d(loss)/d(logits) rows.

    Sums run over the example axis -2; for grouped caches the result has one
    gradient row per group.
    """
    grad = np.zeros(dlogits.shape[:-2] + theta.shape)
    lead = grad.shape[:-1]
    delta = dlogits
    entry = last["entry"]
    grad[..., entry["w"]] = (last["a_in"].swapaxes(-1, -2) @ delta).reshape(lead + (-1,))
    grad[..., entry["b"]] = delta.sum(axis=-2)
    d_a = delta @ last["w"].T
    for cache in reversed(caches):
        entry = cache["entry"]
        layer = entry["layer"]
        dy = d_a * _act_d(spec.activation[layer], cache["y"], cache["h"])
        if "gamma" in cache:
            grad[..., entry["gamma"]] = (dy * cache["xhat"]).sum(axis=-2)
            grad[..., entry["beta"]] = dy.sum(axis=-2)
            dxhat = dy * cache["gamma"]
            if cache["batch_stats"]:
                nb = dy.shape[-2]
                sum_dxhat = dxhat.sum(axis=-2, keepdims=True)
                sum_dxhat_xhat = (dxhat * cache["xhat"]).sum(axis=-2, keepdims=True)
                dz = cache["inv"] / nb * (nb * dxhat - sum_dxhat - cache["xhat"] * sum_dxhat_xhat)
            else:
                dz = dxhat * cache["inv"]
        else:
            dz = dy
        grad[..., entry["w"]] = (cache["a_in"].swapaxes(-1, -2) @ dz).reshape(lead + (-1,))
        grad[..., entry["b"]] = dz.sum(axis=-2)
        d_a = dz @ cache["w"].T
    return grad


def grad(spec: MlpSpec, theta: np.ndarray, batch: Batch, bn_mode: BnMode = BATCH_STATS) -> np.ndarray:
    """Exact reverse-mode gradient of the mean batch loss."""
    theta = check_params(spec, theta)
    _check_classification_labels(spec, batch)
    logits, caches, last = _forward(spec, theta, batch.inputs, bn_mode)
    dlogits = _loss_grad_logits(spec, logits, batch.labels) / batch.size
    g = _backward(spec, theta, caches, last, dlogits)
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("gradient overflowed")
    return g


def bn_batch_statistics(spec: MlpSpec, theta: np.ndarray, batch: Batch) -> BnStats:
    """Batch means/variances at each BN layer for the given inputs; used by
    the trainer to maintain running statistics."""
    if not spec.has_bn:
        return BnStats(means=(), variances=())
    theta = check_params(spec, theta)
    _, caches, _ = _forward(spec, theta, batch.inputs, BATCH_STATS)
    means = []
    variances = []
    for cache in caches:
        if "gamma" in cache:
            means.append(cache["mu"].copy())
            variances.append(cache["var"].copy())
    return BnStats(means=tuple(means), variances=tuple(variances))


def grouped_grads(
    spec: MlpSpec, theta: np.ndarray, batch: Batch, groups, bn_mode: BnMode = BATCH_STATS
) -> np.ndarray:
    """Mean loss gradient of each group of examples, one row per group.

    ``groups`` is a (G, M) array of example indices into ``batch``. Row g
    equals ``grad(spec, theta, batch.subset(groups[g]), bn_mode)``; with BN
    batch statistics each group is normalized by its own statistics. All
    groups share one forward and one reverse pass.
    """
    theta = check_params(spec, theta)
    _check_classification_labels(spec, batch)
    groups = np.asarray(groups)
    if groups.ndim != 2 or groups.shape[1] < 1:
        raise InvalidParamsError("groups must be a (G, M >= 1) index array")
    logits, caches, last = _forward(spec, theta, batch.inputs[groups], bn_mode)
    dlogits = _loss_grad_logits(spec, logits, batch.labels[groups]) / groups.shape[1]
    g = _backward(spec, theta, caches, last, dlogits)
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("gradient overflowed")
    return g


def per_example_grads(
    spec: MlpSpec, theta: np.ndarray, batch: Batch, bn_mode: BnMode = BATCH_STATS
) -> np.ndarray:
    """Per-example loss gradients, one row per example.

    The mean over rows equals ``grad`` on the same batch. With BN layers the
    statistics must be frozen, otherwise per-example gradients are undefined.
    """
    if spec.has_bn and not isinstance(bn_mode, BnStats):
        raise BnBatchStatsUnsupportedError(
            "per-example gradients need frozen BN statistics"
        )
    return grouped_grads(spec, theta, batch, np.arange(batch.size)[:, None], bn_mode)


@np.errstate(over="ignore", invalid="ignore")
def hvp_pearlmutter(spec: MlpSpec, theta: np.ndarray, batch: Batch, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product by forward-over-reverse differentiation.

    Linear in ``v``. BN specs are rejected; use ``hvp_fd`` with frozen
    statistics for those.
    """
    if spec.has_bn:
        raise BnUnsupportedError("exact HVP does not support batch-norm layers")
    theta = check_params(spec, theta)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != theta.shape:
        raise DimensionMismatchError("direction and parameters differ in length")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("direction has NaN or Inf entries")
    _check_classification_labels(spec, batch)
    logits, caches, last = _forward(spec, theta, batch.inputs, BATCH_STATS)
    n = batch.size

    # directional (R-) derivatives of each layer's input and pre-activation
    ra = np.zeros_like(batch.inputs)
    ras, rzs = [], []
    for cache in caches:
        entry = cache["entry"]
        rz = cache["a_in"] @ _matrix(v, entry) + ra @ cache["w"] + v[entry["b"]]
        ras.append(ra)
        rzs.append(rz)
        ra = _act_d(spec.activation[entry["layer"]], cache["z"], cache["h"]) * rz
    entry = last["entry"]
    vw = _matrix(v, entry)
    rlogits = last["a_in"] @ vw + ra @ last["w"] + v[entry["b"]]

    # loss curvature at the output
    delta = _loss_grad_logits(spec, logits, batch.labels) / n
    if spec.loss == SOFTMAX_CE:
        p = _softmax(logits)
        prz = p * rlogits
        rdelta = (prz - p * prz.sum(axis=1, keepdims=True)) / n
    else:
        rdelta = 2.0 * rlogits / n

    out = np.zeros_like(theta)
    out[entry["w"]] = (ra.T @ delta + last["a_in"].T @ rdelta).ravel()
    out[entry["b"]] = rdelta.sum(axis=0)
    w_next, vw_next = last["w"], vw
    for cache, ra, rz in zip(reversed(caches), reversed(ras), reversed(rzs)):
        entry = cache["entry"]
        kind = spec.activation[entry["layer"]]
        d1 = _act_d(kind, cache["z"], cache["h"])
        d2 = _act_dd(kind, cache["z"], cache["h"])
        back = delta @ w_next.T
        rback = rdelta @ w_next.T + delta @ vw_next.T
        delta, rdelta = back * d1, rback * d1 + back * d2 * rz
        out[entry["w"]] = (ra.T @ delta + cache["a_in"].T @ rdelta).ravel()
        out[entry["b"]] = rdelta.sum(axis=0)
        w_next, vw_next = cache["w"], _matrix(v, entry)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("Hessian-vector product overflowed")
    return out


def hvp_fd(
    spec: MlpSpec,
    theta: np.ndarray,
    batch: Batch,
    v: np.ndarray,
    bn_mode: BnMode = BATCH_STATS,
) -> np.ndarray:
    """Hessian-vector product by central differences of the gradient along
    the normalized direction, with step ``FD_EPS``; invariant to the scale
    of ``v``."""
    theta = check_params(spec, theta)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != theta.shape:
        raise DimensionMismatchError("direction and parameters differ in length")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroDirectionError("direction has zero norm")
    u = v / norm
    g_plus = grad(spec, theta + FD_EPS * u, batch, bn_mode)
    g_minus = grad(spec, theta - FD_EPS * u, batch, bn_mode)
    return (g_plus - g_minus) * (norm / (2.0 * FD_EPS))


def hessian_operator(
    spec: MlpSpec,
    theta: np.ndarray,
    batch: Batch,
    method: str = "pearlmutter",
    bn_mode: BnMode = BATCH_STATS,
) -> LinearOperator:
    """The Hessian of the mean batch loss as a symmetric linear operator."""
    theta = check_params(spec, theta)
    if method == "pearlmutter":
        if spec.has_bn:
            raise BnUnsupportedError("exact HVP does not support batch-norm layers")
        return LinearOperator(dim=theta.size, apply=lambda v: hvp_pearlmutter(spec, theta, batch, v))
    if method == "fd":
        return LinearOperator(dim=theta.size, apply=lambda v: hvp_fd(spec, theta, batch, v, bn_mode=bn_mode))
    raise InvalidParamsError(f"unknown HVP method {method!r}")


def bn_gamma_norm(spec: MlpSpec, theta: np.ndarray, layer_index: int) -> float:
    """Euclidean norm of the gamma scale vector of the given hidden layer."""
    theta = check_params(spec, theta)
    if layer_index < 0 or layer_index >= spec.n_hidden or not spec.batch_norm[layer_index]:
        raise NoBnLayerError(f"hidden layer {layer_index} has no batch norm")
    entry = spec.layout()[layer_index]
    return float(np.linalg.norm(theta[entry["gamma"]]))

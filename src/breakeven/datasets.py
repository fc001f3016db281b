"""Synthetic classification datasets and CSV ingestion for desk-scale runs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvParseError, InvalidParamsError, config_value
from .netmodel import Batch
from .rng import make_rng


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    provenance: dict

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_train(self) -> int:
        return self.train_idx.size

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_classes(self) -> int:
        return int(np.max(self.labels)) + 1

    def train(self) -> Batch:
        return Batch(inputs=self.inputs[self.train_idx], labels=self.labels[self.train_idx])

    def val(self) -> Batch:
        return Batch(inputs=self.inputs[self.val_idx], labels=self.labels[self.val_idx])


def _class_counts(n: int, classes: int) -> np.ndarray:
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    return counts


def _split(n: int, val_fraction: float, rng: np.random.Generator):
    if not 0.0 <= val_fraction < 1.0:
        raise InvalidParamsError("val_fraction must lie in [0, 1)", "val_fraction")
    perm = rng.permutation(n)
    n_val = int(round(val_fraction * n))
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _params(p: dict, **defaults) -> list:
    """The values of a kind's keys, each checked by ``config_value`` against
    the type of its default (which it takes when absent). A key of ``p`` that
    is none of them, nor "kind", "val_fraction" or "seed", is rejected."""
    for key in p:
        if key not in defaults and key not in ("kind", "val_fraction", "seed"):
            raise InvalidParamsError(f"{p['kind']} datasets read no key {key!r}", key)
    return [config_value(type(default), p.get(key, default), key) for key, default in defaults.items()]


def _gaussian_blobs(p: dict, rng: np.random.Generator):
    n, classes, d, radius, sigma = _params(p, n=1000, classes=2, d=2, radius=1.0, sigma=0.5)
    if classes < 2 or n < classes:
        raise InvalidParamsError("need classes >= 2 and n >= classes")
    if d < 2:
        raise InvalidParamsError("blobs need at least 2 feature dimensions")
    if radius <= 0 or sigma <= 0:
        raise InvalidParamsError("radius and sigma must be positive")
    counts = _class_counts(n, classes)
    angles = 2.0 * np.pi * np.arange(classes) / classes
    xs, ys = [], []
    for c in range(classes):
        mean = np.zeros(d)
        mean[0] = radius * np.cos(angles[c])
        mean[1] = radius * np.sin(angles[c])
        xs.append(mean + sigma * rng.standard_normal((counts[c], d)))
        ys.append(np.full(counts[c], c, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def _spirals(p: dict, rng: np.random.Generator):
    n, classes, turns, sigma = _params(p, n=1000, classes=2, turns=1.5, sigma=0.05)
    if classes < 2 or n < classes:
        raise InvalidParamsError("need classes >= 2 and n >= classes")
    if sigma <= 0 or turns <= 0:
        raise InvalidParamsError("sigma and turns must be positive")
    counts = _class_counts(n, classes)
    xs, ys = [], []
    for c in range(classes):
        t = rng.random(counts[c])
        angle = 2.0 * np.pi * (turns * t + c / classes)
        r = t
        pts = np.column_stack([r * np.cos(angle), r * np.sin(angle)])
        xs.append(pts + sigma * rng.standard_normal(pts.shape))
        ys.append(np.full(counts[c], c, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def _xor(p: dict, rng: np.random.Generator):
    n, sigma = _params(p, n=1000, sigma=0.3)
    if n < 4:
        raise InvalidParamsError("xor needs n >= 4")
    if sigma <= 0:
        raise InvalidParamsError("sigma must be positive")
    corners = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    corner_labels = np.array([0, 0, 1, 1], dtype=np.int64)
    counts = _class_counts(n, 4)
    xs, ys = [], []
    for i in range(4):
        xs.append(corners[i] + sigma * rng.standard_normal((counts[i], 2)))
        ys.append(np.full(counts[i], corner_labels[i]))
    return np.vstack(xs), np.concatenate(ys)


def _csv(p: dict):
    (path,) = _params(p, path="")
    if not path:
        raise InvalidParamsError("csv provenance needs a path", "path")
    text = Path(path).read_text(encoding="utf-8")
    rows = []
    labels = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1:
            try:
                [float(f) for f in fields]
            except ValueError:
                continue  # header row
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise CsvParseError(lineno, "non-numeric field") from None
        if len(values) < 2:
            raise CsvParseError(lineno, "need a label and at least one feature")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise CsvParseError(lineno, f"expected {width} fields, got {len(values)}")
        label = values[0]
        if label != int(label) or label < 0:
            raise CsvParseError(lineno, "label must be a nonnegative integer")
        labels.append(int(label))
        rows.append(values[1:])
    if len(rows) < 2:
        raise InvalidParamsError("csv dataset needs at least 2 rows")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64), digest


_GENERATORS = {
    "gaussian_blobs": _gaussian_blobs,
    "spirals": _spirals,
    "xor": _xor,
}


def make_dataset(provenance: dict, seed: int) -> Dataset:
    """Build a dataset from its provenance description, deterministically.

    Synthetic kinds: ``gaussian_blobs`` (class means spaced on a circle),
    ``spirals``, ``xor``. ``csv`` reads rows of ``label,f1,...,fd`` with an
    optional header and records the content hash in the provenance.
    """
    kind = provenance.get("kind")
    rng = make_rng(seed, 0)
    recorded = dict(provenance)
    if isinstance(kind, str) and kind in _GENERATORS:
        inputs, labels = _GENERATORS[kind](provenance, rng)
    elif kind == "csv":
        inputs, labels, digest = _csv(provenance)
        recorded["sha256"] = digest
    else:
        raise InvalidParamsError(f"unknown dataset kind {kind!r}", "kind")
    if not np.all(np.isfinite(inputs)):
        raise InvalidParamsError("feature values must be finite")
    val_fraction = config_value(float, provenance.get("val_fraction", 0.2), "val_fraction")
    train_idx, val_idx = _split(inputs.shape[0], val_fraction, make_rng(seed, 1))
    if train_idx.size < 1:
        raise InvalidParamsError("training split is empty")
    recorded["seed"] = int(seed)
    return Dataset(
        inputs=inputs, labels=labels, train_idx=train_idx, val_idx=val_idx, provenance=recorded
    )

"""Logistic-regression local model: prediction, SGD training, evaluation.

The update leaving a node is a cumulative parameter delta (trained params
minus starting params, bias last) and its sample count, which compose cleanly
with clipping, noising, masking, and sample-weighted averaging. Training keeps
no loss trace: its per-epoch loss pass only raises ``TrainingDivergedError``.

Training is fleet-stacked: ``train_fleet`` steps N start models, stacked as
``(N, d + 1)``, on their ``(N, n, d)`` rows together, one gathered batch and
one stacked gradient per step, and returns their ``(N, d + 1)`` deltas; each
model keeps its own seeded batch order, every epoch order drawn by
``encoding.permutations`` in one stacked argsort. ``train_local`` and
``gradient`` are its one-model calls. ``predict_fleet`` scores N stacked
models on their own rows in one product, bit for bit as ``predict_batch``.
``score_fleet`` scores N stacked models on one shared sample set in one
product; ``evaluate`` and ``false_positive_rate`` are its one-model calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoding import permutations
from .telemetry import NodePartition


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass
class ModelParams:
    weights: np.ndarray
    bias: float
    version: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.bias):
            raise ValueError("model parameters must be finite")

    @property
    def dim(self) -> int:
        return self.weights.size

    def as_vector(self) -> np.ndarray:
        """Flat parameter vector, bias last."""
        return np.concatenate([self.weights, [self.bias]])

    @classmethod
    def from_vector(cls, v: np.ndarray, version: int = 0) -> "ModelParams":
        return cls(weights=np.array(v[:-1]), bias=float(v[-1]), version=version)

    @classmethod
    def zeros(cls, dim: int, version: int = 0) -> "ModelParams":
        return cls(weights=np.zeros(dim), bias=0.0, version=version)


@dataclass
class GradientUpdate:
    grad: np.ndarray  # length dim + 1, bias component last
    n_samples: int

    def __post_init__(self):
        self.grad = np.asarray(self.grad, dtype=np.float64)
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def _sigmoid(z):
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so that exp never
    overflows; e = e^-|z| is the exponential of either branch."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def predict(params: ModelParams, features: np.ndarray) -> float:
    """Probability of the positive class for a single feature vector."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (params.dim,):
        raise ValueError(f"feature dim {x.shape} does not match model dim ({params.dim},)")
    return float(_sigmoid(params.weights @ x + params.bias))


def predict_batch(params: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != params.dim:
        raise ValueError("feature dim mismatch")
    return _sigmoid(X @ params.weights + params.bias)


def predict_fleet(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Positive-class probabilities of N stacked models on their own rows:
    V (N, d + 1), bias last, X (N, m, d) -> (N, m). Row k equals
    ``predict_batch`` of model k on X[k] bit for bit."""
    return _sigmoid(_margins(V, X))


def _margins(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Margins of N stacked models on their own rows: V (N, d + 1), bias last,
    X (N, m, d) -> (N, m)."""
    return np.matmul(X, V[:, :-1, None])[:, :, 0] + V[:, -1:]


def _losses(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean binary cross-entropy of each stacked model from its margins z (N, m),
    via log1p(exp) for stability."""
    return np.mean(np.logaddexp(0.0, z) - y * z, axis=1)


def _gradients(V: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic mean log-loss gradient of each stacked model, bias last: (N, d + 1)."""
    r = _sigmoid(_margins(V, X)) - y
    gw = np.matmul(X.transpose(0, 2, 1), r[:, :, None])[:, :, 0] / y.shape[1]
    return np.concatenate([gw, np.mean(r, axis=1)[:, None]], axis=1)


def gradient(params: ModelParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic mean log-loss gradient, bias last."""
    return _gradients(params.as_vector()[None], np.asarray(X)[None], np.asarray(y)[None])[0]


def train_fleet(
    V: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    lr: float,
    epochs: int,
    batch: int,
    seeds: Sequence[int],
    names: Sequence[str],
) -> np.ndarray:
    """Mini-batch SGD of N stacked models V (N, d + 1), bias last, each on its
    own rows X (N, n, d) with labels y (N, n), stepped together; returns each
    model's cumulative parameter delta, (N, d + 1).

    Each model's stream draws one permutation per epoch, all of them up front;
    every step gathers all models' batches at once and takes one stacked
    gradient. names only label the models: a non-finite epoch loss raises
    ``TrainingDivergedError`` naming the first model that diverged.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if epochs < 1 or batch < 1:
        raise ValueError("epochs and batch must be positive")
    if not len(V) == len(X) == len(y) == len(seeds) == len(names) > 0:
        raise ValueError("need one start model, row set, seed and name per model")
    n = y.shape[1]
    rows = np.arange(len(V))[:, None]
    orders = permutations(seeds, epochs, n)
    cur = V
    for epoch in range(1, epochs + 1):
        order = orders[:, epoch - 1]
        for lo in range(0, n, batch):
            idx = order[:, lo : lo + batch]
            cur = cur - lr * _gradients(cur, X[rows, idx], y[rows, idx])
            if not np.all(np.isfinite(cur)):
                raise ValueError("model parameters must be finite")
        bad = np.flatnonzero(~np.isfinite(_losses(_margins(cur, X), y)))
        if bad.size:
            raise TrainingDivergedError(
                f"non-finite loss on node {names[bad[0]]} after epoch {epoch}"
            )
    return cur - V


def train_local(
    params: ModelParams,
    partition: NodePartition,
    lr: float,
    epochs: int,
    batch: int,
    seed: int,
) -> GradientUpdate:
    """Mini-batch SGD on the partition; returns the cumulative parameter delta."""
    delta = train_fleet(params.as_vector()[None], partition.features[None],
                        partition.labels[None], lr, epochs, batch, [seed], [partition.node_id])
    return GradientUpdate(grad=delta[0], n_samples=partition.n_samples)


def score_fleet(
    V: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accuracy at threshold 0.5, mean binary log-loss, false-positive rate) of
    N stacked models V (N, d + 1), bias last, on one shared sample set X (h, d)
    with labels y (h,); each is an (N,) array.

    X is broadcast to every model as a view, so all N are scored in one stacked
    product. The false-positive rate is the fraction of negatives predicted
    positive, 0.0 when there are no negatives.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty sample list")
    if X.ndim != 2 or X.shape[1] != V.shape[1] - 1:
        raise ValueError("feature dim mismatch")
    z = _margins(V, np.broadcast_to(X, (len(V), *X.shape)))
    positive = _sigmoid(z) >= 0.5
    acc = np.mean(positive.astype(np.int64) == y, axis=1)
    loss = _losses(z, y)
    neg = y == 0
    n_neg = int(np.count_nonzero(neg))
    fpr = np.count_nonzero(positive & neg, axis=1) / n_neg if n_neg else np.zeros(len(V))
    return acc, loss, fpr


def evaluate(params: ModelParams, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(accuracy at threshold 0.5, mean binary log-loss)."""
    acc, loss, _ = score_fleet(params.as_vector()[None], X, y)
    return float(acc[0]), float(loss[0])


def false_positive_rate(params: ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of negatives predicted positive; 0.0 when there are no negatives."""
    return float(score_fleet(params.as_vector()[None], X, y)[2][0])

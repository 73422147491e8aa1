"""Dual-model explainability loop and weighted local/global update fusion.

Model 1 predicts and explains (permutation importance against a background
set); Model 2 validates predictions and explanation consistency; disagreements
drive a local SGD correction, and the correction delta is fused with the
global delta as w_local * x + w_global * y.

Validation, explanation and correction each have a fleet form that takes N
models stacked as (N, d + 1) and their rows as (N, n, d); the one-model
functions are those forms at N = 1, so a fleet pass equals N one-model calls
bit for bit. Each pass draws from one numpy stream per node: validation draws
every sample's perturbation rows from its node's seed in one call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import models
# evaluate, predict and train_local are unused here but stay bound: the
# benchmark's tracer patches them by name
from .models import ModelParams, evaluate, predict, train_fleet, train_local  # noqa: F401
from .telemetry import NodePartition

_EPS = 1e-12


@dataclass
class Explanation:
    attributions: np.ndarray
    stability: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.attributions)):
            raise ValueError("attributions must be finite")
        if not 0.0 <= self.stability <= 1.0:
            raise ValueError("stability must lie in [0, 1]")


@dataclass
class ValidationReport:
    agreement_rate: float
    flagged: list[int]
    explanation_consistency: float


@dataclass
class IntegrationWeights:
    w_local: float
    w_global: float

    def __post_init__(self):
        if abs(self.w_local + self.w_global - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if not (0.0 <= self.w_local <= 1.0 and 0.0 <= self.w_global <= 1.0):
            raise ValueError("weights must lie in [0, 1]")


@dataclass
class FeedbackQuality:
    accuracy_gain: float
    explanation_stability: float


@dataclass
class FeedbackUpdate:
    delta: np.ndarray
    quality: FeedbackQuality


def _stack(arrays, what: str) -> np.ndarray:
    """One float64 array from per-node arrays, which must share one shape."""
    try:
        return np.asarray(arrays, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{what} must have one shape on every node") from None


def _check_models(V: np.ndarray) -> None:
    if V.ndim != 2 or V.shape[1] < 2:
        raise ValueError("models must be an (N, d + 1) stack, bias last")
    if not np.all(np.isfinite(V)):
        raise ValueError("model parameters must be finite")


def _check_seeds(seeds, n_models: int, n_repeats: int) -> None:
    if len(seeds) != n_models:
        raise ValueError("need one seed per model")
    if n_repeats < 1:
        raise ValueError("n_repeats must be positive")


def _abs_deltas(
    V: np.ndarray,
    samples: np.ndarray,
    base: np.ndarray,
    background: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """|prediction change| of each model's samples when feature j is swapped in
    from its background row rows[k, i, r, j], scored in one stacked prediction.

    V (N, d + 1), samples (N, n, d), base (N, n) their predictions,
    background (N, B, d), rows (N, n, R, d) -> (N, n, R, d).
    """
    n_models, n, n_repeats, dim = rows.shape
    perturbed = np.broadcast_to(
        samples[:, :, None, None, :], (n_models, n, n_repeats, dim, dim)
    ).copy()
    j = np.arange(dim)
    perturbed[..., j, j] = background[np.arange(n_models)[:, None, None, None], rows, j]
    preds = models.predict_fleet(V, perturbed.reshape(n_models, -1, dim))
    return np.abs(base[:, :, None, None] - preds.reshape(n_models, n, n_repeats, dim))


def explain_fleet(
    V: np.ndarray,
    samples: np.ndarray,
    backgrounds: np.ndarray,
    n_repeats: int,
    seeds: Sequence[int],
) -> list[Explanation]:
    """Permutation importance of N stacked models, each on its own sample and
    background: V (N, d + 1), samples (N, d), backgrounds (N, B, d).

    Model k draws its n_repeats x d background rows from
    ``default_rng(seeds[k])``; all perturbations are scored in one stacked
    prediction. Each result equals ``explain`` of that model alone, bit for bit.
    """
    V = np.asarray(V, dtype=np.float64)
    _check_models(V)
    samples = _stack(samples, "samples")
    backgrounds = _stack(backgrounds, "backgrounds")
    n_models, dim = V.shape[0], V.shape[1] - 1
    if backgrounds.ndim != 3 or backgrounds.shape[1] == 0:
        raise ValueError("background must be a non-empty 2-D array")
    if samples.shape != (n_models, dim) or backgrounds.shape[0] != n_models or (
        backgrounds.shape[2] != dim
    ):
        raise ValueError("feature dimension mismatch")
    _check_seeds(seeds, n_models, n_repeats)

    rows = np.stack([
        np.random.default_rng(seed).integers(0, backgrounds.shape[1], size=(n_repeats, dim))
        for seed in seeds
    ])
    base = models.predict_fleet(V, samples[:, None])
    diffs = _abs_deltas(V, samples[:, None], base, backgrounds, rows[:, None])[:, 0]
    attributions = diffs.mean(axis=1)
    spread = diffs.std(axis=1).mean(axis=1)
    scale = attributions.mean(axis=1) + _EPS
    stability = np.clip(1.0 - spread / scale, 0.0, 1.0)
    return [
        Explanation(attributions=a, stability=float(s)) for a, s in zip(attributions, stability)
    ]


def explain(
    params: ModelParams,
    sample: np.ndarray,
    background: np.ndarray,
    n_repeats: int,
    seed: int,
) -> Explanation:
    """Permutation importance: per-feature mean |prediction change| when the
    feature is swapped in from a random background row. All n_repeats x dim
    perturbations are scored in one batched prediction."""
    return explain_fleet(params.as_vector()[None], [sample], [background], n_repeats, [seed])[0]


def validate_fleet(
    V1: np.ndarray,
    V2: np.ndarray,
    X: np.ndarray,
    n_repeats: int,
    seeds: Sequence[int],
) -> list[ValidationReport]:
    """Model 2 checks Model 1 on N nodes at once: V1 and V2 (N, d + 1), X (N, n, d).

    Node k draws the perturbation rows of all its samples in one call,
    ``default_rng(seeds[k]).integers(0, n, size=(n, n_repeats, d))``; sample i
    uses block i, shared by both models. Each report equals
    ``validate_predictions`` of that node alone, bit for bit.
    """
    V1 = np.asarray(V1, dtype=np.float64)
    V2 = np.asarray(V2, dtype=np.float64)
    _check_models(V1)
    _check_models(V2)
    if V1.shape != V2.shape:
        raise ValueError("models must share a dimension")
    X = _stack(X, "validation rows")
    if X.ndim != 3 or X.shape[0] != len(V1) or X.shape[2] != V1.shape[1] - 1:
        raise ValueError("X must be one 2-D array per model, with one column per model feature")
    if X.shape[1] == 0:
        raise ValueError("empty sample list")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    _check_seeds(seeds, len(V1), n_repeats)

    _, n, dim = X.shape
    rows = np.stack([
        np.random.default_rng(seed).integers(0, n, size=(n, n_repeats, dim)) for seed in seeds
    ])
    preds, tops = [], []
    for V in (V1, V2):
        p = models.predict_fleet(V, X)
        preds.append(p >= 0.5)
        # argmax of the mean |change| over repeats; ties go to the lowest index
        tops.append(np.argmax(_abs_deltas(V, X, p, X, rows).mean(axis=2), axis=2))
    same_pred = preds[0] == preds[1]
    same_top = tops[0] == tops[1]
    return [
        ValidationReport(
            agreement_rate=int(agree.sum()) / n,
            flagged=np.flatnonzero(~(agree & top)).tolist(),
            explanation_consistency=int(top.sum()) / n,
        )
        for agree, top in zip(same_pred, same_top)
    ]


def validate_predictions(
    model1: ModelParams,
    model2: ModelParams,
    X: np.ndarray,
    n_repeats: int,
    seed: int,
) -> ValidationReport:
    """Model 2 checks Model 1: thresholded-prediction agreement plus agreement of
    the top-attributed feature of each model's explanation. One stream,
    ``default_rng(seed)``, draws every sample's perturbation rows in sample
    order; both models share them."""
    return validate_fleet(model1.as_vector()[None], model2.as_vector()[None], [X], n_repeats,
                          [seed])[0]


def correct_fleet(
    V: np.ndarray,
    flagged_X: Sequence[np.ndarray],
    flagged_y: Sequence[np.ndarray],
    holdout_X: np.ndarray,
    holdout_y: np.ndarray,
    lr: float,
    steps: int,
    seeds: Sequence[int],
    explanation_stability: Sequence[float],
) -> list[FeedbackUpdate]:
    """Full-batch SGD of each of N stacked models V (N, d + 1) on its own flagged
    rows, with its gain measured on its own holdout rows (N, h, d).

    The flagged sets may differ in size: nodes with equal counts train in one
    ``train_fleet`` call, so each delta equals ``local_correction`` of that node
    alone, bit for bit. A node with no flagged rows gets a zero delta and gain.
    Every node is scored before and after in one stacked prediction.
    """
    V = np.asarray(V, dtype=np.float64)
    _check_models(V)
    n_models = len(V)
    holdout_X = _stack(holdout_X, "holdout rows")
    holdout_y = np.asarray(holdout_y)
    if not (len(flagged_X) == len(flagged_y) == len(seeds) == len(explanation_stability)
            == n_models):
        raise ValueError("need flagged rows, a seed and a stability per model")
    if (holdout_X.ndim != 3 or holdout_X.shape[0] != n_models
            or holdout_X.shape[2] != V.shape[1] - 1 or holdout_y.shape != holdout_X.shape[:2]):
        raise ValueError("holdout rows must be (N, h, d) with (N, h) labels")
    if holdout_X.shape[1] == 0:
        raise ValueError("cannot evaluate on an empty sample list")

    groups: dict[int, list[int]] = {}
    for k, y in enumerate(flagged_y):
        if len(y):
            groups.setdefault(len(y), []).append(k)
    deltas = np.zeros_like(V)
    for count, ks in groups.items():
        updates = train_fleet(
            [ModelParams.from_vector(V[k]) for k in ks],
            [NodePartition("correction", np.asarray(flagged_X[k], dtype=np.float64),
                           np.asarray(flagged_y[k], dtype=np.int64)) for k in ks],
            lr=lr, epochs=steps, batch=count, seeds=[seeds[k] for k in ks],
        )
        deltas[ks] = [u.grad for u in updates]
    # accuracy at threshold 0.5 of every model before and after its correction
    p = models.predict_fleet(np.concatenate([V, V + deltas]),
                             np.concatenate([holdout_X, holdout_X]))
    acc = np.mean((p >= 0.5).astype(np.int64) == np.concatenate([holdout_y, holdout_y]), axis=1)
    gains = acc[n_models:] - acc[:n_models]
    return [
        FeedbackUpdate(
            delta=delta,
            quality=FeedbackQuality(accuracy_gain=float(gain), explanation_stability=stability),
        )
        for delta, gain, stability in zip(deltas, gains, explanation_stability)
    ]


def local_correction(
    model1: ModelParams,
    flagged_X: np.ndarray,
    flagged_y: np.ndarray,
    holdout_X: np.ndarray,
    holdout_y: np.ndarray,
    lr: float,
    steps: int,
    seed: int,
    explanation_stability: float = 1.0,
) -> FeedbackUpdate:
    """Full-batch SGD on the flagged subset only; gain is measured on the held-out split."""
    return correct_fleet(
        model1.as_vector()[None], [flagged_X], [flagged_y], [holdout_X], [holdout_y], lr, steps,
        [seed], [explanation_stability],
    )[0]


def compute_weights(
    quality: FeedbackQuality, total_samples: int, w_min: float, n_ref: int
) -> IntegrationWeights:
    """Convex fusion weights: the local score rewards measured accuracy gain and
    explanation stability, the global score rewards data volume."""
    if not 0.0 < w_min < 0.5:
        raise ValueError("w_min must lie in (0, 0.5)")
    if total_samples < 1:
        raise ValueError("total_samples must be positive")
    score_local = max(0.0, quality.accuracy_gain) * quality.explanation_stability
    score_global = math.log1p(total_samples) / math.log1p(n_ref)  # > 0
    w_local = min(max(score_local / (score_local + score_global), w_min), 1.0 - w_min)
    return IntegrationWeights(w_local=w_local, w_global=1.0 - w_local)


def integrate(x: np.ndarray, y: np.ndarray, w: IntegrationWeights) -> np.ndarray:
    """Weighted fusion of the local feedback delta x and the global delta y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between local and global updates")
    return w.w_local * x + w.w_global * y

"""Dual-model explainability loop and weighted local/global update fusion.

Model 1 predicts and explains (permutation importance against a background
set); Model 2 validates predictions and explanation consistency; disagreements
drive a local SGD correction, and the correction delta is fused with the
global delta as w_local * x + w_global * y.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import models
from .models import ModelParams, evaluate, predict, train_local
from .telemetry import NodePartition

_EPS = 1e-12


@dataclass
class Explanation:
    sample_id: int
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


@dataclass
class ExplainConfig:
    n_repeats: int = 10
    seed: int = 0


def _abs_deltas(
    params: ModelParams,
    samples: np.ndarray,
    base: np.ndarray,
    background: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """|prediction change| of each sample when feature j is swapped in from
    background row rows[i, r, j], scored in one batched prediction.

    samples (n, d), base (n,) their predictions, rows (n, R, d) -> (n, R, d).
    """
    n, n_repeats, dim = rows.shape
    perturbed = np.broadcast_to(samples[:, None, None, :], (n, n_repeats, dim, dim)).copy()
    j = np.arange(dim)
    perturbed[:, :, j, j] = background[rows, j]
    preds = models.predict_batch(params, perturbed.reshape(-1, dim))
    return np.abs(base[:, None, None] - preds.reshape(n, n_repeats, dim))


def explain(
    params: ModelParams,
    sample: np.ndarray,
    background: np.ndarray,
    n_repeats: int,
    seed: int,
    sample_id: int = 0,
) -> Explanation:
    """Permutation importance: per-feature mean |prediction change| when the
    feature is swapped in from a random background row. All n_repeats x dim
    perturbations are scored in one batched prediction."""
    sample = np.asarray(sample, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError("background must be a non-empty 2-D array")
    if sample.shape != (params.dim,) or background.shape[1] != params.dim:
        raise ValueError("feature dimension mismatch")
    if n_repeats < 1:
        raise ValueError("n_repeats must be positive")

    rng = np.random.default_rng(seed)
    base = predict(params, sample)
    rows = rng.integers(0, background.shape[0], size=(n_repeats, params.dim))
    diffs = _abs_deltas(params, sample[None], np.array([base]), background, rows[None])[0]
    attributions = diffs.mean(axis=0)
    spread = diffs.std(axis=0).mean()
    scale = attributions.mean() + _EPS
    stability = float(np.clip(1.0 - spread / scale, 0.0, 1.0))
    return Explanation(
        sample_id=sample_id, attributions=attributions, stability=stability
    )


def _sample_seed(base_seed: int, sample_id: int) -> int:
    h = hashlib.sha256(f"explain:{base_seed}:{sample_id}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def validate_predictions(
    model1: ModelParams,
    model2: ModelParams,
    X: np.ndarray,
    cfg: ExplainConfig,
) -> ValidationReport:
    """Model 2 checks Model 1: thresholded-prediction agreement plus agreement of
    the top-attributed feature of each model's explanation. Sample i's
    perturbations are drawn from its own seed and shared by both models."""
    if model1.dim != model2.dim:
        raise ValueError("models must share a dimension")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model1.dim:
        raise ValueError("X must be a 2-D array with one column per model feature")
    if len(X) == 0:
        raise ValueError("empty sample list")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    if cfg.n_repeats < 1:
        raise ValueError("n_repeats must be positive")

    n, dim = X.shape
    rows = np.stack([
        np.random.default_rng(_sample_seed(cfg.seed, i)).integers(0, n, size=(cfg.n_repeats, dim))
        for i in range(n)
    ])
    preds, tops = [], []
    for model in (model1, model2):
        p = models.predict_batch(model, X)
        preds.append(p >= 0.5)
        # argmax of the mean |change| over repeats; ties go to the lowest index
        tops.append(np.argmax(_abs_deltas(model, X, p, X, rows).mean(axis=1), axis=1))
    same_pred = preds[0] == preds[1]
    same_top = tops[0] == tops[1]
    return ValidationReport(
        agreement_rate=int(same_pred.sum()) / n,
        flagged=np.flatnonzero(~(same_pred & same_top)).tolist(),
        explanation_consistency=int(same_top.sum()) / n,
    )


def local_correction(
    model1: ModelParams,
    flagged_X: np.ndarray,
    flagged_y: np.ndarray,
    holdout_X: np.ndarray,
    holdout_y: np.ndarray,
    lr: float,
    steps: int,
    seed: int,
    batch: int | None = None,
    explanation_stability: float = 1.0,
) -> FeedbackUpdate:
    """SGD on the flagged subset only; gain is measured on the held-out split."""
    if len(flagged_X) == 0:
        return FeedbackUpdate(
            delta=np.zeros(model1.dim + 1),
            quality=FeedbackQuality(accuracy_gain=0.0, explanation_stability=explanation_stability),
        )
    part = NodePartition(
        "correction", np.asarray(flagged_X, dtype=np.float64), np.asarray(flagged_y, dtype=np.int64)
    )
    if batch is None:
        batch = len(flagged_y)
    upd = train_local(model1, part, lr=lr, epochs=steps, batch=batch, seed=seed)
    acc_before, _ = evaluate(model1, holdout_X, holdout_y)
    corrected = ModelParams.from_vector(model1.as_vector() + upd.grad, version=model1.version)
    acc_after, _ = evaluate(corrected, holdout_X, holdout_y)
    return FeedbackUpdate(
        delta=upd.grad,
        quality=FeedbackQuality(
            accuracy_gain=acc_after - acc_before, explanation_stability=explanation_stability
        ),
    )


def compute_weights(
    quality: FeedbackQuality,
    total_samples: int,
    diversity: float,
    w_min: float = 0.05,
    n_ref: int = 1000,
) -> IntegrationWeights:
    """Convex fusion weights: the local score rewards measured accuracy gain and
    explanation stability, the global score rewards data volume and diversity."""
    if not 0.0 < w_min < 0.5:
        raise ValueError("w_min must lie in (0, 0.5)")
    if total_samples < 1 or not 0.0 <= diversity <= 1.0:
        raise ValueError("global stats out of range")
    score_local = max(0.0, quality.accuracy_gain) * quality.explanation_stability
    score_global = diversity * math.log1p(total_samples) / math.log1p(n_ref)
    if score_local + score_global <= 0.0:
        w_local = w_min
    else:
        w_local = score_local / (score_local + score_global)
        w_local = min(max(w_local, w_min), 1.0 - w_min)
    return IntegrationWeights(w_local=w_local, w_global=1.0 - w_local)


def integrate(x: np.ndarray, y: np.ndarray, w: IntegrationWeights) -> np.ndarray:
    """Weighted fusion of the local feedback delta x and the global delta y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between local and global updates")
    return w.w_local * x + w.w_global * y

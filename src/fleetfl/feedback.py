"""Dual-model explainability loop and weighted local/global update fusion.

Model 1 predicts and explains (permutation importance against a background
set); Model 2 validates predictions and explanation consistency; disagreements
drive a local SGD correction, and the correction delta is fused with the
global delta as w_local * x + w_global * y.

Validation and correction each have a fleet form that takes N models stacked
as (N, d + 1) and their rows as (N, n, d), as the simulator holds them; the
one-model functions are those forms at N = 1, so a fleet pass equals N
one-model calls bit for bit.
``explain`` is the shared attribution kernel at N = 1. Each pass draws from
one stream per node: validation's sample i swaps in distinct rows of the
node's own validation rows, read from permutation i of its stream, and its
report carries Model 1's explanation of the first sample, made from
permutation 0, which is ``explain``'s draw.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import models
from .encoding import permutations
# evaluate, predict and train_local are unused here but stay bound: the
# benchmark's tracer patches them by name
from .models import ModelParams, evaluate, predict, train_fleet, train_local  # noqa: F401

_EPS = 1e-12
# the local correction: full-batch SGD steps on the flagged rows
CORRECTION_LR = 0.1
CORRECTION_STEPS = 5
# fusion: w_local stays within [W_MIN, 1 - W_MIN]; N_REF samples score 1 globally
W_MIN = 0.05
N_REF = 1000


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
    explanation: Explanation  # Model 1's, of the first sample


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
class FeedbackUpdate:
    delta: np.ndarray
    accuracy_gain: float


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


def _rows(seeds, n: int, background_size: int, n_repeats: int, dim: int) -> np.ndarray:
    """The background row each feature of each sample swaps in, per repeat:
    (len(seeds), n, R, dim) with R = min(n_repeats, B). Sample i takes
    permutation i of its seed's stream over the B rows, and feature j in
    repeat r takes row π_i[(j + r) mod B]."""
    repeats = np.arange(min(n_repeats, background_size))
    window = (repeats[:, None] + np.arange(dim)) % background_size
    return permutations(seeds, n, background_size)[:, :, window]


def _attribute(
    V: np.ndarray, samples: np.ndarray, background: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permutation importance of each model's samples: feature j of sample i is
    swapped in from background row rows[k, i, r, j] in repeat r, and every
    perturbation is scored in one stacked prediction.

    V (N, d + 1), samples (N, n, d), background (N, B, d), rows (N, n, R, d)
    -> predictions (N, n), attributions (N, n, d), the mean |prediction
    change| over repeats, and stability (N, n), one minus the mean spread over
    repeats relative to the mean attribution, clipped to [0, 1].
    """
    n_models, n, n_repeats, dim = rows.shape
    base = models.predict_fleet(V, samples)
    perturbed = np.broadcast_to(
        samples[:, :, None, None, :], (n_models, n, n_repeats, dim, dim)
    ).copy()
    j = np.arange(dim)
    perturbed[..., j, j] = background[np.arange(n_models)[:, None, None, None], rows, j]
    preds = models.predict_fleet(V, perturbed.reshape(n_models, -1, dim))
    diffs = np.abs(base[:, :, None, None] - preds.reshape(n_models, n, n_repeats, dim))
    attributions = diffs.mean(axis=2)
    spread = diffs.std(axis=2).mean(axis=2)
    stability = np.clip(1.0 - spread / (attributions.mean(axis=2) + _EPS), 0.0, 1.0)
    return base, attributions, stability


def explain(
    params: ModelParams,
    sample: np.ndarray,
    background: np.ndarray,
    n_repeats: int,
    seed: int,
) -> Explanation:
    """Permutation importance: per-feature mean |prediction change| when the
    feature is swapped in from min(n_repeats, B) distinct background rows,
    read from one permutation of the B rows drawn from the seed's stream. At
    n_repeats >= B that is the exact mean over the background. All
    perturbations are scored in one batched prediction."""
    V = params.as_vector()[None]
    _check_models(V)
    sample = np.asarray(sample, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    dim = V.shape[1] - 1
    if background.ndim != 2 or len(background) == 0:
        raise ValueError("background must be a non-empty 2-D array")
    if sample.shape != (dim,) or background.shape[1] != dim:
        raise ValueError("feature dimension mismatch")
    _check_seeds([seed], 1, n_repeats)
    rows = _rows([seed], 1, len(background), n_repeats, dim)
    _, attributions, stability = _attribute(V, sample[None, None], background[None], rows)
    return Explanation(attributions=attributions[0, 0], stability=float(stability[0, 0]))


def validate_fleet(
    V1: np.ndarray,
    V2: np.ndarray,
    X: np.ndarray,
    n_repeats: int,
    seeds: Sequence[int],
) -> list[ValidationReport]:
    """Model 2 checks Model 1 on N nodes at once: V1 and V2 (N, d + 1), X (N, n, d).

    Node k's background is X[k]: sample i swaps in rows from permutation i
    of the n rows, the first n permutations of its seed's stream, shared by
    both models. Each report carries Model 1's explanation of sample 0
    against X[k]: the permutations are prefix-stable, so permutation 0 is the
    draw ``explain`` makes with the same seed, and the two agree up to the
    rounding of their stacked predictions. Each report equals
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
    rows = _rows(seeds, n, n, n_repeats, dim)
    p1, attr1, stability1 = _attribute(V1, X, X, rows)
    p2, attr2, _ = _attribute(V2, X, X, rows)
    same_pred = (p1 >= 0.5) == (p2 >= 0.5)
    # each model's top feature is the argmax of its attributions; ties go to the lowest index
    same_top = np.argmax(attr1, axis=2) == np.argmax(attr2, axis=2)
    return [
        ValidationReport(
            agreement_rate=int(agree.sum()) / n,
            flagged=np.flatnonzero(~(agree & top)).tolist(),
            explanation_consistency=int(top.sum()) / n,
            explanation=Explanation(attributions=attr[0], stability=float(stability[0])),
        )
        for agree, top, attr, stability in zip(same_pred, same_top, attr1, stability1)
    ]


def validate_predictions(
    model1: ModelParams,
    model2: ModelParams,
    X: np.ndarray,
    n_repeats: int,
    seed: int,
) -> ValidationReport:
    """Model 2 checks Model 1: thresholded-prediction agreement plus agreement of
    the top-attributed feature of each model's explanation. One stream, the
    seed's, draws one permutation of X's rows per sample, in sample order;
    both models share them."""
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
) -> list[FeedbackUpdate]:
    """Full-batch SGD of each of N stacked models V (N, d + 1) on its own flagged
    rows, with its gain measured on its own holdout rows (N, h, d).

    The flagged sets may differ in size: nodes with equal counts train in one
    ``train_fleet`` call on their stacked rows, so each delta equals
    ``local_correction`` of that node alone, bit for bit. A node with no flagged
    rows gets a zero delta and gain.
    Every node is scored before and after in one stacked prediction.
    """
    V = np.asarray(V, dtype=np.float64)
    _check_models(V)
    n_models = len(V)
    holdout_X = _stack(holdout_X, "holdout rows")
    holdout_y = np.asarray(holdout_y)
    if not len(flagged_X) == len(flagged_y) == len(seeds) == n_models:
        raise ValueError("need flagged rows and a seed per model")
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
        deltas[ks] = train_fleet(
            V[ks], _stack([flagged_X[k] for k in ks], "flagged rows"),
            np.array([flagged_y[k] for k in ks]), lr, steps, count, [seeds[k] for k in ks],
            [f"correction-{k}" for k in ks],
        )
    # accuracy at threshold 0.5 of every model before and after its correction
    p = models.predict_fleet(np.concatenate([V, V + deltas]),
                             np.concatenate([holdout_X, holdout_X]))
    acc = np.mean((p >= 0.5).astype(np.int64) == np.concatenate([holdout_y, holdout_y]), axis=1)
    gains = acc[n_models:] - acc[:n_models]
    return [FeedbackUpdate(delta=delta, accuracy_gain=float(gain))
            for delta, gain in zip(deltas, gains)]


def local_correction(
    model1: ModelParams,
    flagged_X: np.ndarray,
    flagged_y: np.ndarray,
    holdout_X: np.ndarray,
    holdout_y: np.ndarray,
    lr: float,
    steps: int,
    seed: int,
) -> FeedbackUpdate:
    """Full-batch SGD on the flagged subset only; gain is measured on the held-out split."""
    return correct_fleet(
        model1.as_vector()[None], [flagged_X], [flagged_y], [holdout_X], [holdout_y], lr, steps,
        [seed],
    )[0]


def compute_weights(
    accuracy_gain: float, explanation_stability: float, total_samples: int
) -> IntegrationWeights:
    """Convex fusion weights: the local score rewards measured accuracy gain and
    explanation stability, the global score rewards data volume."""
    if total_samples < 1:
        raise ValueError("total_samples must be positive")
    score_local = max(0.0, accuracy_gain) * explanation_stability
    score_global = math.log1p(total_samples) / math.log1p(N_REF)  # > 0
    w_local = min(max(score_local / (score_local + score_global), W_MIN), 1.0 - W_MIN)
    return IntegrationWeights(w_local=w_local, w_global=1.0 - w_local)


def integrate(x: np.ndarray, y: np.ndarray, w: IntegrationWeights) -> np.ndarray:
    """Weighted fusion of the local feedback delta x and the global delta y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between local and global updates")
    return w.w_local * x + w.w_global * y

"""Dual-model explainability loop and weighted local/global update fusion.

Model 1 predicts and explains (permutation importance against a background
set); Model 2 validates predictions and explanation consistency; disagreements
flag the rows a local full-batch correction descends on, and the correction
delta is fused with the global delta as w_local * x + w_global * y.

Validation, correction and fusion each have a fleet form that takes N models
or deltas stacked as (N, d + 1) and their rows as (N, n, d), as the simulator
holds them; the one-model functions (``validate_predictions``,
``local_correction``, ``compute_weights`` with ``integrate``) are those forms
at N = 1, so a fleet pass equals N one-model calls bit for bit.
``explain`` is the shared attribution kernel at N = 1. Validation draws from
one stream per node: its sample i swaps in distinct rows of the node's own
validation rows, read from permutation i of its stream, and its report
carries Model 1's explanation of the first sample, made from permutation 0,
which is ``explain``'s draw. Permutation importance is model-agnostic: the
perturbed inputs depend on the rows and the draw alone, so validation builds
them once and scores them under both models, and only Model 1's spread,
which its stability needs, is computed. The correction draws nothing: every
node descends on the same validation rows, its unflagged rows masked out,
in one pass whatever its flagged count.
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
from .models import ModelParams, evaluate, predict, train_local  # noqa: F401

_EPS = 1e-12
# the local correction: full-batch gradient steps on the flagged rows
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


def _check_rows(X, V: np.ndarray) -> np.ndarray:
    """Each model's rows as one (N, n, d) float64 array, n > 0, every value finite."""
    X = _stack(X, "validation rows")
    if X.ndim != 3 or X.shape[0] != len(V) or X.shape[2] != V.shape[1] - 1:
        raise ValueError("X must be one 2-D array per model, with one column per model feature")
    if X.shape[1] == 0:
        raise ValueError("empty sample list")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    return X


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


def _perturb(samples: np.ndarray, background: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Every perturbation of each model's samples: feature j of sample i swapped
    in from background row rows[k, i, r, j] in repeat r. It depends only on the
    rows and the draw, not on a model, so one set serves every model scored on it.

    samples (N, n, d), background (N, B, d), rows (N, n, R, d) -> (N, n, R, d, d),
    perturbation [k, i, r, j] being sample i with feature j swapped.
    """
    n_models, n, n_repeats, dim = rows.shape
    perturbed = np.broadcast_to(
        samples[:, :, None, None, :], (n_models, n, n_repeats, dim, dim)
    ).copy()
    # feature j of row b of model k sits at (k·B + b)·d + j of the flat background
    flat = (np.arange(n_models)[:, None, None, None] * background.shape[1] + rows) * dim
    swapped = background.reshape(-1).take(flat + np.arange(dim))
    perturbed.reshape(n_models, n, n_repeats, dim * dim)[..., :: dim + 1] = swapped
    return perturbed


def _attribute(
    V: np.ndarray, samples: np.ndarray, perturbed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each model's predictions of its samples and the |prediction change| of
    every perturbation, all scored in one stacked prediction.

    V (N, d + 1), samples (N, n, d), perturbed (N, n, R, d, d) from ``_perturb``
    -> predictions (N, n) and changes (N, n, R, d); a sample's attributions are
    its changes' mean over repeats.
    """
    n_models, n, n_repeats, dim, _ = perturbed.shape
    base = models.predict_fleet(V, samples)
    preds = models.predict_fleet(V, perturbed.reshape(n_models, -1, dim))
    return base, np.abs(base[:, :, None, None] - preds.reshape(n_models, n, n_repeats, dim))


def _stability(changes: np.ndarray, attributions: np.ndarray) -> np.ndarray:
    """One minus each sample's mean spread of its changes over repeats relative
    to its mean attribution, clipped to [0, 1]: (N, n)."""
    spread = changes.std(axis=2).mean(axis=2)
    return np.clip(1.0 - spread / (attributions.mean(axis=2) + _EPS), 0.0, 1.0)


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
    sample = sample[None, None]
    rows = _rows([seed], 1, len(background), n_repeats, dim)
    _, changes = _attribute(V, sample, _perturb(sample, background[None], rows))
    attributions = changes.mean(axis=2)
    stability = _stability(changes, attributions)
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
    of the n rows, the first n permutations of its seed's stream. The
    perturbation set is built once from those rows and scored under Model 1
    and Model 2; only Model 1's spread is computed, for its stability. Each
    report carries Model 1's explanation of sample 0 against X[k]: the
    permutations are prefix-stable, so permutation 0 is the draw ``explain``
    makes with the same seed, and the two agree up to the rounding of their
    stacked predictions. The reports' counts, flagged lists and stabilities
    are read from fleet arrays, and each report equals
    ``validate_predictions`` of that node alone, bit for bit.
    """
    V1 = np.asarray(V1, dtype=np.float64)
    V2 = np.asarray(V2, dtype=np.float64)
    _check_models(V1)
    _check_models(V2)
    if V1.shape != V2.shape:
        raise ValueError("models must share a dimension")
    X = _check_rows(X, V1)
    _check_seeds(seeds, len(V1), n_repeats)

    _, n, dim = X.shape
    perturbed = _perturb(X, X, _rows(seeds, n, n, n_repeats, dim))
    p1, changes1 = _attribute(V1, X, perturbed)
    p2, changes2 = _attribute(V2, X, perturbed)
    attr1, attr2 = changes1.mean(axis=2), changes2.mean(axis=2)
    same_pred = (p1 >= 0.5) == (p2 >= 0.5)
    # each model's top feature is the argmax of its attributions; ties go to the lowest index
    same_top = np.argmax(attr1, axis=2) == np.argmax(attr2, axis=2)
    flags = ~(same_pred & same_top)
    # node k's flagged samples are flagged[ends[k - 1]:ends[k]]
    flagged = np.nonzero(flags)[1].tolist()
    ends = np.cumsum(np.count_nonzero(flags, axis=1)).tolist()
    # only sample 0's stability is reported
    stabilities = _stability(changes1[:, :1], attr1[:, :1])[:, 0].tolist()
    return [
        ValidationReport(
            agreement_rate=agree / n,
            flagged=flagged[start:end],
            explanation_consistency=top / n,
            explanation=Explanation(attributions=attr[0], stability=stability),
        )
        for agree, top, start, end, attr, stability in zip(
            same_pred.sum(axis=1).tolist(), same_top.sum(axis=1).tolist(), [0, *ends], ends,
            attr1, stabilities,
        )
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
    X: np.ndarray,
    y: np.ndarray,
    flags: np.ndarray,
    holdout_X: np.ndarray,
    holdout_y: np.ndarray,
    lr: float,
    steps: int,
    names: Sequence[str],
) -> list[FeedbackUpdate]:
    """Full-batch gradient descent of each of N stacked models V (N, d + 1) on
    its own flagged rows, X (N, n, d) and y (N, n) where flags (N, n) is set,
    with its gain measured on its own holdout rows (N, h, d).

    Every node steps in one masked pass (``models.train_masked``), whatever its
    flagged count, so each delta equals ``local_correction`` of that node
    alone, bit for bit; unflagged rows change nothing, and a node with no flagged row gets a zero delta and gain. names label the
    nodes in a ``TrainingDivergedError``. Every node is scored before and after
    in one stacked prediction.
    """
    V = np.asarray(V, dtype=np.float64)
    _check_models(V)
    n_models = len(V)
    X = _check_rows(X, V)
    y = np.asarray(y)
    flags = np.asarray(flags, dtype=bool)
    holdout_X = _stack(holdout_X, "holdout rows")
    holdout_y = np.asarray(holdout_y)
    if not y.shape == flags.shape == X.shape[:2] or len(names) != n_models:
        raise ValueError("need (N, n) labels and flags and a name per model")
    if (holdout_X.ndim != 3 or holdout_X.shape[0] != n_models
            or holdout_X.shape[2] != V.shape[1] - 1 or holdout_y.shape != holdout_X.shape[:2]):
        raise ValueError("holdout rows must be (N, h, d) with (N, h) labels")
    if holdout_X.shape[1] == 0:
        raise ValueError("cannot evaluate on an empty sample list")

    deltas = models.train_masked(V, X, y, flags, lr, steps, names)
    # accuracy at threshold 0.5 of every model before and after its correction
    p = models.predict_fleet(np.concatenate([V, V + deltas]),
                             np.concatenate([holdout_X, holdout_X]))
    acc = np.mean((p >= 0.5).astype(np.int64) == np.concatenate([holdout_y, holdout_y]), axis=1)
    gains = acc[n_models:] - acc[:n_models]
    return [FeedbackUpdate(delta=delta, accuracy_gain=gain)
            for delta, gain in zip(deltas, gains.tolist())]


def local_correction(
    model1: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    flags: np.ndarray,
    holdout_X: np.ndarray,
    holdout_y: np.ndarray,
    lr: float,
    steps: int,
    name: str,
) -> FeedbackUpdate:
    """Full-batch gradient descent on the flagged rows of X only; gain is
    measured on the held-out split. ``correct_fleet`` at N = 1."""
    return correct_fleet(
        model1.as_vector()[None], [X], [y], [flags], [holdout_X], [holdout_y], lr, steps, [name],
    )[0]


def _weights(gains: np.ndarray, stabilities: np.ndarray, total_samples: int) -> np.ndarray:
    """The fusion rule: each node's w_local from its local score, its accuracy
    gain floored at 0 times its explanation stability, against the global
    score, the data volume log1p(total_samples) / log1p(N_REF) > 0, clamped to
    [W_MIN, 1 - W_MIN]: (N,)."""
    if total_samples < 1:
        raise ValueError("total_samples must be positive")
    score_local = np.maximum(gains, 0.0) * stabilities
    score_global = math.log1p(total_samples) / math.log1p(N_REF)
    return np.minimum(np.maximum(score_local / (score_local + score_global), W_MIN), 1.0 - W_MIN)


def fuse_fleet(
    X: np.ndarray,
    y: np.ndarray,
    gains: Sequence[float],
    stabilities: Sequence[float],
    total_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fusion of N nodes in one pass: each node's local feedback delta X[k],
    (N, d + 1), with the global delta y, (d + 1,), weighed by its accuracy
    gain and explanation stability against the round's data volume. Returns
    the fused deltas (N, d + 1) and each node's w_local (N,); w_global is
    1 - w_local. Row k equals ``integrate`` of that node's
    ``compute_weights``, bit for bit: both weigh each element by one multiply
    and add.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1:] != y.shape:
        raise ValueError("dimension mismatch between local and global updates")
    gains = np.asarray(gains, dtype=np.float64)
    stabilities = np.asarray(stabilities, dtype=np.float64)
    if not gains.shape == stabilities.shape == X.shape[:1]:
        raise ValueError("need one gain and one stability per node")
    w_local = _weights(gains, stabilities, total_samples)[:, None]
    return w_local * X + (1.0 - w_local) * y, w_local[:, 0]


def compute_weights(
    accuracy_gain: float, explanation_stability: float, total_samples: int
) -> IntegrationWeights:
    """Convex fusion weights of one node: ``fuse_fleet``'s rule at N = 1."""
    [w_local] = _weights(
        np.array([accuracy_gain]), np.array([explanation_stability]), total_samples
    ).tolist()
    return IntegrationWeights(w_local=w_local, w_global=1.0 - w_local)


def integrate(x: np.ndarray, y: np.ndarray, w: IntegrationWeights) -> np.ndarray:
    """Weighted fusion of the local feedback delta x and the global delta y;
    ``fuse_fleet`` blends N nodes the same way."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between local and global updates")
    return w.w_local * x + w.w_global * y

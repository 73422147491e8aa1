"""Adaptive privacy tuning: context assessment, clipping, Gaussian noise, budget ledger.

Per-round epsilon comes from a conservative max(sensitivity, threat) mapping
between the bounds a ``config.PrivacyConfig`` holds (eps_max=inf disables noise
entirely); the Gaussian mechanism uses
sigma = clip_norm * sqrt(2 ln(1.25/delta)) / eps per coordinate, and budgets
compose linearly.

Clipping and noise each have one fleet form over a stack of updates, one row
per node: ``clip_fleet`` and ``noise_fleet``. ``clip_vector``/``clip_update``
and ``gaussian_noise``/``add_dp_noise`` are their one-row forms, so a node's
update and the published aggregate take the same path as a fleet's. A row's
noise is sigma times the ``encoding.normals`` of its own seed's stream, all
rows in one stacked transform; a row with no sigma (eps=inf) draws nothing and
keeps its bits.

``row_norms`` takes every row's L2 norm as one batched ``np.matmul`` of each
row with itself, which computes each row's sum of squares with the same
vector dot that ``np.linalg.norm`` of that row alone uses, then ``np.sqrt``:
the norms, and so the clipped bits, are those of one call per row.
``np.einsum("ij,ij->i")`` and ``np.linalg.norm(U, axis=1)`` sum the squares
in other orders, and their last bits differ on most stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import PrivacyConfig
from .encoding import normals, streams
from .models import GradientUpdate

# mask strength rises linearly with threat from MIN (threat 0) to MAX (threat 1)
MASK_STRENGTH_MIN = 0.1
MASK_STRENGTH_MAX = 2.0
# a node whose loss has stalled gets this multiple of its clip norm
STALLED_CLIP_FACTOR = 1.5


class BudgetExceededError(RuntimeError):
    """Charging this epsilon would push the node over its budget cap."""


@dataclass
class PrivacyContext:
    epsilon: float  # may be math.inf
    delta: float
    clip_norm: float
    mask_strength: float


@dataclass
class BudgetLedger:
    budget_cap: float
    spent: dict[str, float] = field(default_factory=dict)

    def spent_for(self, node_id: str) -> float:
        return self.spent.get(node_id, 0.0)

    def can_charge(self, node_id: str, epsilon: float) -> bool:
        return self.spent_for(node_id) + epsilon <= self.budget_cap + 1e-12


def _convergence_stalled(loss_trace: list[float]) -> bool:
    # relative improvement < 1% over the last 5 epochs
    if len(loss_trace) < 6:
        return False
    ref, last = loss_trace[-6], loss_trace[-1]
    return (ref - last) / max(abs(ref), 1e-12) < 0.01


def assess_context(
    sensitivity: float,
    threat: float,
    loss_trace: list[float],
    bounds: PrivacyConfig,
) -> PrivacyContext:
    """Map (sensitivity, threat, convergence) to concrete privacy knobs."""
    if not 0.0 <= sensitivity <= 1.0:
        raise ValueError("sensitivity must lie in [0, 1]")
    if not 0.0 <= threat <= 1.0:
        raise ValueError("threat must lie in [0, 1]")
    if math.isinf(bounds.eps_max):
        eps = math.inf
    else:
        eps = bounds.eps_min + (bounds.eps_max - bounds.eps_min) * (1.0 - max(sensitivity, threat))
    strength = MASK_STRENGTH_MIN + (MASK_STRENGTH_MAX - MASK_STRENGTH_MIN) * threat
    clip = bounds.clip_norm
    if _convergence_stalled(loss_trace):
        clip *= STALLED_CLIP_FACTOR
    return PrivacyContext(
        epsilon=eps,
        delta=bounds.delta,
        clip_norm=clip,
        mask_strength=strength,
    )


def row_norms(U: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, bit for bit that of ``np.linalg.norm`` of the row
    alone; a sum of squares that overflows is inf."""
    U = np.ascontiguousarray(U, dtype=np.float64)
    with np.errstate(over="ignore"):
        squares = np.matmul(U[:, None, :], U[:, :, None])[:, 0, 0]
    return np.sqrt(squares)


def clip_fleet(U: np.ndarray, clip_norms) -> np.ndarray:
    """Each row of U scaled down to L2 norm at most its clip norm; U itself
    when every row is already within."""
    clip_norms = np.asarray(clip_norms, dtype=np.float64)
    if np.any(clip_norms <= 0):
        raise ValueError("clip_norm must be positive")
    if not np.all(np.isfinite(U)):
        raise ValueError("non-finite update")
    norms = row_norms(U)
    over = ~(norms <= clip_norms)
    if not over.any():
        return U
    huge = over & np.isinf(norms)
    if huge.any():  # the sum of squares overflowed: take the direction first
        U = U.copy()
        U[huge] /= np.max(np.abs(U[huge]), axis=1, keepdims=True)
        norms[huge] = row_norms(U[huge])
    scale = np.divide(clip_norms, norms, out=np.ones_like(norms), where=over)
    return U * scale[:, None]


def clip_vector(v: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale v down to L2 norm clip_norm; v itself when already within."""
    V = v[None, :]
    out = clip_fleet(V, [clip_norm])
    return v if out is V else out[0]


def clip_update(update: GradientUpdate, clip_norm: float) -> GradientUpdate:
    """The update with its grad clipped by clip_vector; itself when already within."""
    g = clip_vector(update.grad, clip_norm)
    if g is update.grad:
        return update
    return GradientUpdate(grad=g, n_samples=update.n_samples, loss_trace=list(update.loss_trace))


def gaussian_sigma(clip_norm: float, epsilon: float, delta: float) -> float:
    """Per-coordinate noise scale of the Gaussian mechanism."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if math.isinf(epsilon):
        return 0.0
    return clip_norm * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def dp_sigma(ctx: PrivacyContext) -> float | None:
    """The context's per-coordinate noise scale; None when eps=inf adds no noise."""
    if math.isinf(ctx.epsilon):
        return None
    return gaussian_sigma(ctx.clip_norm, ctx.epsilon, ctx.delta)


def noise_fleet(U: np.ndarray, sigmas, rng_seeds) -> np.ndarray:
    """Each row of U plus i.i.d. Gaussian noise of its sigma, from the stream
    of its own seed: the one Gaussian mechanism, for the fleet's updates and
    the published aggregate. A row whose sigma is None draws nothing; U itself
    when no row draws."""
    rows = [i for i, s in enumerate(sigmas) if s is not None]
    if not rows:
        return U
    out = np.array(U, dtype=np.float64)
    dim = out.shape[1]
    words = streams([rng_seeds[i] for i in rows], 2 * dim).reshape(len(rows), 2, dim)
    out[rows] += np.array([sigmas[i] for i in rows])[:, None] * normals(words)
    return out


def gaussian_noise(v: np.ndarray, sigma: float, rng_seed: int) -> np.ndarray:
    """v plus i.i.d. Gaussian noise of scale sigma: noise_fleet's one-row form."""
    return noise_fleet(v[None, :], [sigma], [rng_seed])[0]


def add_dp_noise(update: GradientUpdate, ctx: PrivacyContext, rng_seed: int) -> GradientUpdate:
    """Add i.i.d. Gaussian noise calibrated to the context; eps=inf is identity."""
    sigma = dp_sigma(ctx)
    if sigma is None:
        return update
    grad = gaussian_noise(update.grad, sigma, rng_seed)
    return GradientUpdate(grad=grad, n_samples=update.n_samples, loss_trace=list(update.loss_trace))


def charge_budget(ledger: BudgetLedger, node_id: str, epsilon: float) -> BudgetLedger:
    """Linear composition charge; raises and leaves the ledger unchanged on cap breach."""
    if not (epsilon > 0) or math.isinf(epsilon):
        raise ValueError("charge requires finite positive epsilon")
    if not ledger.can_charge(node_id, epsilon):
        raise BudgetExceededError(
            f"node {node_id}: spent {ledger.spent_for(node_id)} + {epsilon} "
            f"exceeds cap {ledger.budget_cap}"
        )
    ledger.spent[node_id] = ledger.spent_for(node_id) + epsilon
    return ledger

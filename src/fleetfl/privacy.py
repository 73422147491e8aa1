"""Adaptive privacy tuning: fleet assessment, clipping, Gaussian noise, budget ledger.

The privacy stage is three passes over the fleet, one row per node:
``assess_fleet`` maps each node's max(sensitivity, threat) to an epsilon between
the bounds a ``config.PrivacyConfig`` holds (eps_max=inf disables noise) and the
threat to the round's mask strength; ``clip_fleet`` clips every row at
``clip_norm``; ``noise_fleet`` adds sigma = clip_norm * sqrt(2 ln(1.25/DELTA)) /
eps per coordinate, 0 at eps=inf. Budgets compose linearly. ``assess_context``,
``clip_update`` and ``add_dp_noise`` are the one-node forms and the published
aggregate is one row, so every update takes the fleet's path. A row's noise is
sigma times the ``encoding.normals`` of its own seed's stream, all rows in one
stacked transform; a row whose sigma is 0 draws nothing and keeps its bits.

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
# the delta of every node's Gaussian mechanism
DELTA = 1e-5


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


def assess_fleet(sensitivities, threat: float, bounds: PrivacyConfig) -> tuple[np.ndarray, float]:
    """(every node's epsilon as one array, the round's mask strength) from the
    nodes' sensitivities and the round's threat."""
    s = np.asarray(sensitivities, dtype=np.float64)
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise ValueError("sensitivity must lie in [0, 1]")
    if not 0.0 <= threat <= 1.0:
        raise ValueError("threat must lie in [0, 1]")
    if math.isinf(bounds.eps_max):
        eps = np.full(s.shape, math.inf)
    else:
        eps = bounds.eps_min + (bounds.eps_max - bounds.eps_min) * (1.0 - np.maximum(s, threat))
    return eps, MASK_STRENGTH_MIN + (MASK_STRENGTH_MAX - MASK_STRENGTH_MIN) * threat


def assess_context(sensitivity: float, threat: float, bounds: PrivacyConfig) -> PrivacyContext:
    """One node's privacy knobs: assess_fleet's one-node form."""
    eps, strength = assess_fleet([sensitivity], threat, bounds)
    return PrivacyContext(float(eps[0]), DELTA, bounds.clip_norm, strength)


def row_norms(U: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, bit for bit that of ``np.linalg.norm`` of the row
    alone; a sum of squares that overflows is inf."""
    U = np.ascontiguousarray(U, dtype=np.float64)
    with np.errstate(over="ignore"):
        squares = np.matmul(U[:, None, :], U[:, :, None])[:, 0, 0]
    return np.sqrt(squares)


def clip_fleet(U: np.ndarray, clip_norms) -> np.ndarray:
    """Each row of U scaled down to L2 norm at most its clip norm (one for all
    rows, or one per row); U itself when every row is already within."""
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


def clip_update(update: GradientUpdate, clip_norm: float) -> GradientUpdate:
    """The update with its grad clipped by clip_fleet; itself when already within."""
    U = update.grad[None, :]
    out = clip_fleet(U, [clip_norm])
    if out is U:
        return update
    return GradientUpdate(grad=out[0], n_samples=update.n_samples)


def gaussian_sigma(clip_norm: float, epsilon, delta: float):
    """Per-coordinate noise scale of the Gaussian mechanism, for one epsilon or
    an array of them; 0 at eps=inf."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if np.any(np.asarray(epsilon) <= 0):
        raise ValueError("epsilon must be positive")
    return clip_norm * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def noise_fleet(U: np.ndarray, sigmas, rng_seeds) -> np.ndarray:
    """Each row of U plus i.i.d. Gaussian noise of its sigma, from the stream
    of its own seed: the one Gaussian mechanism, for the fleet's updates and
    the published aggregate. A row whose sigma is 0 draws nothing; U itself
    when no row draws."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    rows = np.flatnonzero(sigmas)
    if not rows.size:
        return U
    out = np.array(U, dtype=np.float64)
    dim = out.shape[1]
    words = streams([rng_seeds[i] for i in rows], 2 * dim).reshape(len(rows), 2, dim)
    out[rows] += sigmas[rows, None] * normals(words)
    return out


def add_dp_noise(update: GradientUpdate, ctx: PrivacyContext, rng_seed: int) -> GradientUpdate:
    """Add i.i.d. Gaussian noise calibrated to the context by noise_fleet;
    eps=inf is identity."""
    U = update.grad[None, :]
    out = noise_fleet(U, [gaussian_sigma(ctx.clip_norm, ctx.epsilon, ctx.delta)], [rng_seed])
    if out is U:
        return update
    return GradientUpdate(grad=out[0], n_samples=update.n_samples)


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

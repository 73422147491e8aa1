"""Adaptive privacy tuning: context assessment, clipping, Gaussian noise, budget ledger.

Per-round epsilon comes from a conservative max(sensitivity, threat) mapping
between the bounds a ``config.PrivacyConfig`` holds (eps_max=inf disables noise
entirely); the Gaussian mechanism uses
sigma = clip_norm * sqrt(2 ln(1.25/delta)) / eps per coordinate, and budgets
compose linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import PrivacyConfig
from .models import GradientUpdate


class BudgetExceededError(RuntimeError):
    """Charging this epsilon would push the node over its budget cap."""


@dataclass
class PrivacyContext:
    epsilon: float  # may be math.inf
    delta: float
    clip_norm: float
    mask_strength: float
    threat_level: float
    sensitivity: float


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
    strength = bounds.mask_strength_min + (
        bounds.mask_strength_max - bounds.mask_strength_min
    ) * threat
    clip = bounds.clip_norm
    if _convergence_stalled(loss_trace):
        clip *= 1.5
    return PrivacyContext(
        epsilon=eps,
        delta=bounds.delta,
        clip_norm=clip,
        mask_strength=strength,
        threat_level=threat,
        sensitivity=sensitivity,
    )


def clip_update(update: GradientUpdate, clip_norm: float) -> GradientUpdate:
    """Scale the update down to L2 norm clip_norm; no-op when already within."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    g = update.grad
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite update")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(g))
    if norm <= clip_norm:
        return update
    if math.isinf(norm):  # the sum of squares overflowed: take the direction first
        g = g / np.max(np.abs(g))
        norm = float(np.linalg.norm(g))
    return GradientUpdate(
        grad=g * (clip_norm / norm),
        n_samples=update.n_samples,
        loss_trace=list(update.loss_trace),
    )


def gaussian_sigma(clip_norm: float, epsilon: float, delta: float) -> float:
    """Per-coordinate noise scale of the Gaussian mechanism."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if math.isinf(epsilon):
        return 0.0
    return clip_norm * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def add_dp_noise(update: GradientUpdate, ctx: PrivacyContext, rng_seed: int) -> GradientUpdate:
    """Add i.i.d. Gaussian noise calibrated to the context; eps=inf is identity."""
    if math.isinf(ctx.epsilon):
        return update
    sigma = gaussian_sigma(ctx.clip_norm, ctx.epsilon, ctx.delta)
    rng = np.random.default_rng(rng_seed)
    noise = rng.normal(0.0, sigma, size=update.grad.shape)
    return GradientUpdate(
        grad=update.grad + noise,
        n_samples=update.n_samples,
        loss_trace=list(update.loss_trace),
    )


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

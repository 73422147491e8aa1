"""Cloud-side aggregation: preprocessing, masked-sum reconstruction, FedAvg, global DP.

The aggregator only ever touches MaskedUpdate payloads; sample weighting is
realized by sender-side scaling (each node submits n_k times its update), so
the masked sum divided by the total sample count is exactly the
sample-weighted FedAvg delta without any individual update being exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masking import MaskedUpdate
from .models import ModelParams
from .privacy import clip_fleet, gaussian_sigma, noise_fleet

# the global mechanism's delta and clip norm; config.PrivacyConfig.eps_global turns it on
DELTA_GLOBAL = 1e-5
CLIP_GLOBAL = 1.0


class AggregationAbort(RuntimeError):
    """The round cannot be aggregated (all updates dropped or roster mismatch)."""


class ParticipantMismatch(AggregationAbort):
    """Masked updates do not cover exactly the round's participant set."""


@dataclass
class GlobalUpdate:
    params: ModelParams
    delta: np.ndarray  # the aggregate update applied to the base, bias last
    total_samples: int


def preprocess_updates(
    admitted: list[MaskedUpdate], dim: int
) -> tuple[list[MaskedUpdate], list[tuple[str, str]]]:
    """Drop non-finite or wrong-dimension payloads; keep node-id order."""
    cleaned, report = [], []
    for upd in sorted(admitted, key=lambda u: u.node_id):
        if upd.payload.shape != (dim,):
            report.append((upd.node_id, f"dimension {upd.payload.shape[0]} != {dim}"))
        elif not np.all(np.isfinite(upd.payload)):
            report.append((upd.node_id, "non-finite payload"))
        else:
            cleaned.append(upd)
    return cleaned, report


def smpc_sum(masked: list[MaskedUpdate], participants: list[str]) -> np.ndarray:
    """Coordinate-wise sum of masked payloads; masks cancel only over the full roster."""
    if not masked:
        raise AggregationAbort("no masked updates to sum")
    got = sorted(u.node_id for u in masked)
    if got != sorted(participants):
        raise ParticipantMismatch(
            f"masked set {got} does not match round roster {sorted(participants)}"
        )
    total = np.zeros_like(masked[0].payload)
    for upd in sorted(masked, key=lambda u: u.node_id):
        total = total + upd.payload
    return total


def fedavg(updates: list[tuple[np.ndarray, int]], base: ModelParams) -> GlobalUpdate:
    """Sample-weighted average of deltas applied to the base parameters."""
    if not updates:
        raise AggregationAbort("empty update list")
    total_n = sum(n for _, n in updates)
    if total_n <= 0:
        raise ValueError("total sample count must be positive")
    delta = np.zeros(base.dim + 1)
    for vec, n in updates:
        delta = delta + (n / total_n) * np.asarray(vec, dtype=np.float64)
    params = ModelParams.from_vector(base.as_vector() + delta, version=base.version + 1)
    return GlobalUpdate(params=params, delta=delta, total_samples=total_n)


def fedavg_from_masked_sum(
    summed: np.ndarray, total_samples: int, base: ModelParams
) -> GlobalUpdate:
    """FedAvg over sender-scaled masked updates: weighted delta = sum / total samples."""
    if total_samples <= 0:
        raise ValueError("total sample count must be positive")
    delta = np.asarray(summed, dtype=np.float64) / total_samples
    params = ModelParams.from_vector(base.as_vector() + delta, version=base.version + 1)
    return GlobalUpdate(params=params, delta=delta, total_samples=total_samples)


def privacy_adjust_global(
    g: GlobalUpdate,
    base: ModelParams,
    epsilon_global: float,
    rng_seed: int,
) -> GlobalUpdate:
    """Clip the aggregate delta and apply the Gaussian mechanism as one row of the fleet's
    passes; the published params are exactly base + the published delta. eps=inf is identity."""
    if math.isinf(epsilon_global):
        return g
    sigma = gaussian_sigma(CLIP_GLOBAL, epsilon_global, DELTA_GLOBAL)
    agg = noise_fleet(clip_fleet(g.delta[None, :], CLIP_GLOBAL), [sigma], [rng_seed])[0]
    params = ModelParams.from_vector(base.as_vector() + agg, version=g.params.version)
    return GlobalUpdate(params=params, delta=agg, total_samples=g.total_samples)

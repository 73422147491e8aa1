"""Synthetic vehicle telemetry: fleet generation, non-IID partitioning, sensitivity scoring.

The generator draws features from per-node Gaussians, labels them with a fixed
random hyperplane plus 5% label-flip noise (so a linear model has a known 0.95
accuracy ceiling), and skews label proportions across nodes with a Dirichlet
prior whose concentration is controlled by the heterogeneity knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# column treated as the location-like sensitive signal
LOCATION_FEATURE = 0
LABEL_FLIP_RATE = 0.05
# rejection-sampling cap when drawing a feature vector with a target label
_MAX_DRAWS = 200


@dataclass
class NodePartition:
    """One edge node's local dataset."""

    node_id: str
    features: np.ndarray  # shape (n, feature_dim)
    labels: np.ndarray  # shape (n,), values in {0, 1}
    sensitivity: float = 0.0

    def __post_init__(self):
        if len(self.features) == 0:
            raise ValueError(f"partition {self.node_id} is empty")
        if not 0.0 <= self.sensitivity <= 1.0:
            raise ValueError("sensitivity must lie in [0, 1]")

    @property
    def n_samples(self) -> int:
        return len(self.labels)


@dataclass
class FleetDataset:
    """All node partitions plus the ground-truth labelling hyperplane."""

    partitions: list[NodePartition]
    feature_dim: int
    true_weights: np.ndarray = field(repr=False, default=None)
    true_bias: float = 0.0

    def __post_init__(self):
        self._by_id = {p.node_id: p for p in self.partitions}
        if len(self._by_id) != len(self.partitions):
            raise ValueError("duplicate node ids in fleet")
        for p in self.partitions:
            if p.features.shape[1] != self.feature_dim:
                raise ValueError("feature dimension mismatch")

    def partition(self, node_id: str) -> NodePartition:
        return self._by_id[node_id]


def _dirichlet_alpha(heterogeneity: float) -> float:
    # het=0 -> effectively IID label proportions, het=1 -> strong skew
    return 10.0 ** (6.0 - 6.6 * heterogeneity)


def _true_label(w: np.ndarray, b: float, x: np.ndarray) -> int:
    return int(w @ x + b > 0.0)


def generate_fleet(
    seed: int,
    n_nodes: int,
    samples_per_node: int,
    feature_dim: int,
    heterogeneity: float,
) -> FleetDataset:
    """Deterministically generate a heterogeneous fleet dataset.

    heterogeneity=0 draws every partition from one distribution;
    heterogeneity=1 applies per-node label skew and feature shift.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    if samples_per_node < 1:
        raise ValueError("samples_per_node must be >= 1: empty partitions are forbidden")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError("heterogeneity must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    w = rng.normal(size=feature_dim)
    w /= np.linalg.norm(w)
    b = 0.1 * rng.normal()

    alpha = _dirichlet_alpha(heterogeneity)
    label_props = rng.dirichlet([alpha, alpha], size=n_nodes)

    partitions = []
    for i in range(n_nodes):
        shift = heterogeneity * rng.normal(size=feature_dim)
        feats = np.empty((samples_per_node, feature_dim))
        labels = np.empty(samples_per_node, dtype=np.int64)
        p_one = label_props[i, 1]
        for k in range(samples_per_node):
            want = int(rng.random() < p_one)
            for _ in range(_MAX_DRAWS):
                x = shift + rng.normal(size=feature_dim)
                if _true_label(w, b, x) == want:
                    break
            feats[k] = x
            labels[k] = _true_label(w, b, x)
        flips = rng.random(samples_per_node) < LABEL_FLIP_RATE
        labels[flips] = 1 - labels[flips]
        partitions.append(NodePartition(f"node-{i}", feats, labels))

    variances = [location_variance(p) for p in partitions]
    lo, hi = min(variances), max(variances)
    for p, v in zip(partitions, variances):
        p.sensitivity = sensitivity_score(p, lo, hi)

    return FleetDataset(partitions, feature_dim, true_weights=w, true_bias=b)


def generate_holdout(fleet: FleetDataset, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Held-out evaluation set from the fleet-wide distribution, labelled by the
    same ground-truth hyperplane (with label-flip noise, matching the ceiling)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, fleet.feature_dim))
    y = (X @ fleet.true_weights + fleet.true_bias > 0.0).astype(np.int64)
    flips = rng.random(n) < LABEL_FLIP_RATE
    y[flips] = 1 - y[flips]
    return X, y


def location_variance(partition: NodePartition) -> float:
    """Raw variance of the designated location-like feature column."""
    return float(np.var(partition.features[:, LOCATION_FEATURE]))


def sensitivity_score(partition: NodePartition, lo: float = 0.0, hi: float = 1.0) -> float:
    """Min-max scaled location-feature variance, clipped to [0, 1].

    (lo, hi) are the fleet-wide min and max raw variances; the globally
    most-variant partition scores 1.0, a zero-variance partition scores 0.0.
    """
    v = location_variance(partition)
    if hi <= lo:
        # degenerate fleet range: all partitions equally variant
        return 0.0 if v <= lo or v == 0.0 else 1.0
    return float(np.clip((v - lo) / (hi - lo), 0.0, 1.0))

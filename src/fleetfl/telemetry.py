"""Synthetic vehicle telemetry: fleet generation, non-IID partitioning, sensitivity scoring.

The generator draws features from per-node Gaussians, labels them with a fixed
random hyperplane plus 5% label-flip noise (so a linear model has a known 0.95
accuracy ceiling), and skews label proportions across nodes with a Dirichlet
prior whose concentration is controlled by the heterogeneity knob.

The hyperplane comes from the fleet's own stream, `default_rng(seed)`. Each
node then draws from its own stream, `default_rng(sub_seed(seed, "fleet", i))`,
in a fixed order: its Dirichlet label share, its feature shift, its n wanted
labels, candidate blocks of 2n rows until every wanted label is matched (at
most `_MAX_DRAWS` blocks), then one block for any rows still unmatched, which
keep the true labels of their features, and finally its label flips. So a
node's data does not depend on the other nodes, and the first k nodes of a
fleet are a k-node fleet. Only `sensitivity` differs, since it is min-max
scaled over the whole fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import sub_seed

# column treated as the location-like sensitive signal
LOCATION_FEATURE = 0
LABEL_FLIP_RATE = 0.05
# rejection-sampling cap: candidate blocks a node draws to match its wanted labels
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


def _node_data(
    rng: np.random.Generator,
    w: np.ndarray,
    b: float,
    alpha: float,
    n: int,
    heterogeneity: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One node's (features, labels), drawn from its own stream."""
    d = len(w)
    p_one = rng.dirichlet([alpha, alpha])[1]
    shift = heterogeneity * rng.normal(size=d)
    labels = (rng.random(n) < p_one).astype(np.int64)
    feats = np.full((n, d), np.nan)
    # rows still waiting for a candidate of their wanted class, in row order
    pending = [np.flatnonzero(labels == c) for c in (0, 1)]
    for _ in range(_MAX_DRAWS):
        if not any(len(rows) for rows in pending):
            break
        X = shift + rng.normal(size=(2 * n, d))
        y = X @ w + b > 0.0
        for c in (0, 1):
            cand = X[y == c][: len(pending[c])]
            feats[pending[c][: len(cand)]] = cand
            pending[c] = pending[c][len(cand) :]
    # rows of a class the node did not reach keep their candidates' true labels
    rest = np.concatenate(pending)
    X = shift + rng.normal(size=(len(rest), d))
    feats[rest] = X
    labels[rest] = X @ w + b > 0.0
    flips = rng.random(n) < LABEL_FLIP_RATE
    labels[flips] = 1 - labels[flips]
    return feats, labels


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
    partitions = []
    for i in range(n_nodes):
        node_rng = np.random.default_rng(sub_seed(seed, "fleet", i))
        feats, labels = _node_data(node_rng, w, b, alpha, samples_per_node, heterogeneity)
        partitions.append(NodePartition(f"node-{i}", feats, labels))

    variances = [location_variance(p) for p in partitions]
    lo, hi = min(variances), max(variances)
    for p, v in zip(partitions, variances):
        p.sensitivity = _scaled_variance(v, lo, hi)

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
    return _scaled_variance(location_variance(partition), lo, hi)


def _scaled_variance(v: float, lo: float, hi: float) -> float:
    if hi <= lo:
        # degenerate fleet range: all partitions equally variant
        return 0.0 if v <= lo or v == 0.0 else 1.0
    return float(np.clip((v - lo) / (hi - lo), 0.0, 1.0))

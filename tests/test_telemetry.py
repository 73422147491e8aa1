"""Synthetic fleet generation: determinism, heterogeneity, sensitivity scoring."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from fleetfl import telemetry
from fleetfl.encoding import sub_seed


def _node_draws(seed, i, n, d, heterogeneity):
    """Node i's Dirichlet share of label 1 and its n wanted labels, replayed from
    its own stream in the documented order: share, feature shift, wanted labels."""
    rng = np.random.default_rng(sub_seed(seed, "fleet", i))
    alpha = telemetry._dirichlet_alpha(heterogeneity)
    share = rng.dirichlet([alpha, alpha])[1]
    rng.normal(size=d)
    return share, (rng.random(n) < share).astype(np.int64)


def _true_labels(fleet, part):
    return (part.features @ fleet.true_weights + fleet.true_bias > 0.0).astype(np.int64)


def test_generate_fleet_is_deterministic():
    a = telemetry.generate_fleet(7, 1, 100, 4, 0.0)
    b = telemetry.generate_fleet(7, 1, 100, 4, 0.0)
    for pa, pb in zip(a.partitions, b.partitions):
        np.testing.assert_array_equal(pa.features, pb.features)
        np.testing.assert_array_equal(pa.labels, pb.labels)
        assert pa.sensitivity == pb.sensitivity
    np.testing.assert_array_equal(a.true_weights, b.true_weights)
    assert a.true_bias == b.true_bias


def test_high_heterogeneity_skews_label_proportions():
    fleet = telemetry.generate_fleet(7, 4, 50, 4, 1.0)
    props = [float(np.mean(p.labels)) for p in fleet.partitions]
    assert max(props) - min(props) > 0.2


def test_zero_samples_per_node_rejected():
    with pytest.raises(ValueError):
        telemetry.generate_fleet(7, 2, 0, 4, 0.0)


def test_fleet_size_is_nodes_times_samples():
    fleet = telemetry.generate_fleet(3, 5, 17, 3, 0.4)
    assert sum(p.n_samples for p in fleet.partitions) == 5 * 17


def test_heterogeneity_out_of_range_rejected():
    with pytest.raises(ValueError):
        telemetry.generate_fleet(7, 2, 10, 4, 1.5)


def test_sensitivity_zero_for_constant_location_feature():
    part = telemetry.NodePartition("n", np.zeros((5, 3)), np.zeros(5, dtype=np.int64))
    assert telemetry.sensitivity_score(part) == 0.0


def test_sensitivity_one_for_most_variant_partition():
    fleet = telemetry.generate_fleet(11, 4, 30, 4, 0.8)
    scores = [p.sensitivity for p in fleet.partitions]
    assert max(scores) == pytest.approx(1.0)
    assert min(scores) == pytest.approx(0.0)


def test_sensitivity_mid_variance_hand_case():
    # location column [0, 1, 2] has variance 2/3; against a fleet-wide range
    # (lo=0, hi=2) the min-max scaled score is exactly 1/3
    feats = np.array([[0.0, 9.0], [1.0, 9.0], [2.0, 9.0]])
    part = telemetry.NodePartition("n", feats, np.array([0, 1, 0]))
    assert telemetry.location_variance(part) == pytest.approx(2.0 / 3.0)
    score = telemetry.sensitivity_score(part, lo=0.0, hi=2.0)
    assert score == pytest.approx(1.0 / 3.0)
    assert 0.0 < score < 1.0


def test_empty_partition_rejected():
    with pytest.raises(ValueError):
        telemetry.NodePartition("n", np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 20), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6),
    ),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
)
def test_sensitivity_always_in_unit_interval(feats, lo, span):
    part = telemetry.NodePartition("n", feats, np.zeros(len(feats), dtype=np.int64))
    score = telemetry.sensitivity_score(part, lo=lo, hi=lo + span)
    assert 0.0 <= score <= 1.0


def test_holdout_matches_generator_ceiling_distribution():
    fleet = telemetry.generate_fleet(9, 2, 20, 4, 0.0)
    X, y = telemetry.generate_holdout(fleet, 123, 400)
    assert X.shape == (400, 4)
    assert set(np.unique(y)) <= {0, 1}
    # true hyperplane labels flipped at ~5%: agreement should sit near 0.95
    clean = (X @ fleet.true_weights + fleet.true_bias > 0.0).astype(np.int64)
    agreement = float(np.mean(clean == y))
    assert 0.90 <= agreement <= 0.99


def test_first_k_nodes_of_a_fleet_are_the_k_node_fleet():
    big = telemetry.generate_fleet(13, 9, 30, 5, 0.7)
    small = telemetry.generate_fleet(13, 4, 30, 5, 0.7)
    np.testing.assert_array_equal(big.true_weights, small.true_weights)
    assert big.true_bias == small.true_bias
    for pb, ps in zip(big.partitions[:4], small.partitions, strict=True):
        assert pb.node_id == ps.node_id
        np.testing.assert_array_equal(pb.features, ps.features)
        np.testing.assert_array_equal(pb.labels, ps.labels)
    # sensitivity alone may differ: it is min-max scaled over the whole fleet


def test_pre_flip_labels_track_each_nodes_dirichlet_share():
    seed, n_nodes, n, d, het = 21, 40, 200, 6, 0.8
    fleet = telemetry.generate_fleet(seed, n_nodes, n, d, het)
    shares = [_node_draws(seed, i, n, d, het)[0] for i in range(n_nodes)]
    assert max(shares) - min(shares) > 0.3  # the shares really are skewed
    # Pearson's statistic over each node's two label cells, shares known
    stat = 0.0
    for part, share in zip(fleet.partitions, shares):
        ones = int(_true_labels(fleet, part).sum())
        stat += (ones - n * share) ** 2 / (n * share * (1.0 - share))
    assert stats.chi2.sf(stat, df=n_nodes) > 1e-3


def test_label_flip_rate_is_five_percent():
    fleet = telemetry.generate_fleet(3, 50, 200, 4, 0.3)
    flipped = sum(int(np.sum(p.labels != _true_labels(fleet, p))) for p in fleet.partitions)
    total = 50 * 200
    assert stats.binomtest(flipped, total, telemetry.LABEL_FLIP_RATE).pvalue > 1e-3


def test_unreachable_class_falls_back_to_true_labels(monkeypatch):
    # one block of 2n candidates cannot match every wanted label of a skewed node
    monkeypatch.setattr(telemetry, "_MAX_DRAWS", 1)
    monkeypatch.setattr(telemetry, "LABEL_FLIP_RATE", 0.0)
    seed, n_nodes, n, d, het = 4, 8, 100, 4, 1.0
    fleet = telemetry.generate_fleet(seed, n_nodes, n, d, het)
    fell_back = 0
    for i, part in enumerate(fleet.partitions):
        assert np.all(np.isfinite(part.features))  # every row was filled
        np.testing.assert_array_equal(part.labels, _true_labels(fleet, part))
        fell_back += int(np.sum(part.labels != _node_draws(seed, i, n, d, het)[1]))
    assert fell_back > 0


def test_small_fleet_bytes_are_pinned():
    fleet = telemetry.generate_fleet(7, 3, 20, 4, 0.5)
    h = hashlib.sha256()
    h.update(fleet.true_weights.astype("<f8").tobytes() + struct.pack("<d", fleet.true_bias))
    for p in fleet.partitions:
        h.update(p.node_id.encode() + p.features.astype("<f8").tobytes())
        h.update(p.labels.astype("<i8").tobytes() + struct.pack("<d", p.sensitivity))
    assert h.hexdigest() == "e325b65832bbb78bcd2fc60f2303f5bb69fb7aedf79883890874a2d4f68cb122"

"""Synthetic fleet generation: determinism, heterogeneity, sensitivity scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fleetfl import telemetry


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

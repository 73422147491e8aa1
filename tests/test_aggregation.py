"""Cloud aggregation: preprocessing, masked sums, FedAvg, global privacy adjustment."""

import inspect
import math

import numpy as np
import pytest

from fleetfl import aggregation, encoding, masking, privacy, telemetry
from fleetfl.channel import FreshnessTag
from fleetfl.models import GradientUpdate, ModelParams, evaluate


def _masked(node, payload, n=1):
    payload = np.asarray(payload, dtype=np.float64)
    from fleetfl.encoding import hash_vector

    return masking.MaskedUpdate(
        node_id=node,
        payload=payload,
        n_samples=n,
        freshness=FreshnessTag(nonce=bytes(16), timestamp=1, round=0),
        payload_hash=hash_vector(payload),
    )


def _mask_and_collect(grads, seed, strength=1.0):
    nodes = sorted(grads)
    dim = len(next(iter(grads.values())))
    masks = masking.derive_masks(seed, nodes, dim, strength)
    out = []
    for n in nodes:
        upd = GradientUpdate(grad=np.asarray(grads[n], dtype=np.float64), n_samples=1)
        out.append(
            masking.apply_mask(
                n, upd, masks[n], FreshnessTag(nonce=bytes(16), timestamp=1, round=0)
            )
        )
    return out


def test_preprocess_keeps_all_valid_updates():
    ups = [_masked("b", [1.0, 2.0]), _masked("a", [3.0, 4.0])]
    cleaned, report = aggregation.preprocess_updates(ups, 2)
    assert [u.node_id for u in cleaned] == ["a", "b"]
    assert report == []


def test_preprocess_drops_non_finite_payload():
    ups = [_masked("a", [1.0, np.nan]), _masked("b", [1.0, 2.0])]
    cleaned, report = aggregation.preprocess_updates(ups, 2)
    assert [u.node_id for u in cleaned] == ["b"]
    assert report == [("a", "non-finite payload")]


def test_preprocess_drops_dimension_mismatch():
    ups = [_masked("a", [1.0, 2.0, 3.0, 4.0]), _masked("b", [1.0, 2.0, 3.0, 4.0, 5.0])]
    cleaned, report = aggregation.preprocess_updates(ups, 4)
    assert [u.node_id for u in cleaned] == ["a"]
    assert report[0][0] == "b" and "5" in report[0][1]


def test_smpc_sum_two_nodes_with_opposite_masks():
    grads = {"A": np.array([1.0, -2.0]), "B": np.array([3.0, 4.0])}
    total = aggregation.smpc_sum(_mask_and_collect(grads, seed=5), ["A", "B"])
    np.testing.assert_allclose(total, [4.0, 2.0], atol=1e-12)


def test_smpc_sum_single_node_zero_mask():
    total = aggregation.smpc_sum(_mask_and_collect({"A": [7.0, -1.0]}, seed=1), ["A"])
    np.testing.assert_allclose(total, [7.0, -1.0], atol=1e-15)


def test_smpc_sum_five_nodes_matches_raw_oracle():
    rng = np.random.default_rng(13)
    grads = {f"n{i}": rng.normal(size=8) for i in range(5)}
    oracle = sum(grads.values())
    total = aggregation.smpc_sum(_mask_and_collect(grads, seed=77, strength=5.0), sorted(grads))
    np.testing.assert_allclose(total, oracle, atol=1e-9)


def test_smpc_sum_is_invariant_to_masking_seed():
    rng = np.random.default_rng(23)
    grads = {f"n{i}": rng.normal(size=6) for i in range(4)}
    oracle = sum(grads.values())
    for seed in range(100):
        total = aggregation.smpc_sum(_mask_and_collect(grads, seed=seed), sorted(grads))
        np.testing.assert_allclose(total, oracle, atol=1e-9)


def test_smpc_sum_roster_mismatch_aborts():
    ups = _mask_and_collect({"A": [1.0], "B": [2.0]}, seed=4)
    with pytest.raises(aggregation.ParticipantMismatch):
        aggregation.smpc_sum(ups, ["A", "B", "C"])
    with pytest.raises(aggregation.AggregationAbort):
        aggregation.smpc_sum([], [])


def test_fedavg_single_update_is_identity_weighting():
    base = ModelParams(np.array([1.0]), 0.5, version=3)
    g = aggregation.fedavg([(np.array([2.0, -1.0]), 10)], base)
    np.testing.assert_allclose(g.params.as_vector(), [3.0, -0.5])
    assert g.params.version == 4


def test_fedavg_hand_weighted_example():
    base = ModelParams.zeros(1)
    g = aggregation.fedavg([(np.array([1.0, 3.0]), 100), (np.array([5.0, 7.0]), 300)], base)
    np.testing.assert_allclose(g.delta, [4.0, 6.0], atol=1e-12)


def test_fedavg_equal_counts_is_plain_mean():
    base = ModelParams.zeros(1)
    g = aggregation.fedavg([(np.array([2.0, 0.0]), 50), (np.array([4.0, 2.0]), 50)], base)
    np.testing.assert_allclose(g.delta, [3.0, 1.0], atol=1e-12)


def test_fedavg_empty_rejected():
    with pytest.raises(aggregation.AggregationAbort):
        aggregation.fedavg([], ModelParams.zeros(1))


def test_fedavg_from_masked_sum_matches_direct_fedavg():
    base = ModelParams.zeros(2)
    deltas = [(np.array([1.0, 3.0, 0.0]), 100), (np.array([5.0, 7.0, 2.0]), 300)]
    direct = aggregation.fedavg(deltas, base)
    summed = sum(n * v for v, n in deltas)
    via_sum = aggregation.fedavg_from_masked_sum(summed, 400, base)
    np.testing.assert_allclose(via_sum.delta, direct.delta, atol=1e-12)
    np.testing.assert_allclose(via_sum.params.as_vector(), direct.params.as_vector(), atol=1e-12)


def test_global_adjust_infinite_epsilon_is_identity():
    base = ModelParams.zeros(1)
    g = aggregation.fedavg([(np.array([1.0, 1.0]), 10)], base)
    assert aggregation.privacy_adjust_global(g, base, math.inf, rng_seed=1) is g


def test_global_adjust_noise_matches_sigma_oracle():
    assert (aggregation.CLIP_GLOBAL, aggregation.DELTA_GLOBAL) == (1.0, 1e-5)
    base = ModelParams.zeros(2)
    sigma = 1.0 * math.sqrt(2.0 * math.log(1.25e5)) / 1.0
    expected_noise = sigma * encoding.normals(encoding.streams([42], 6).reshape(2, 3))
    # a delta of norm 10 is scaled down to norm 1; one of norm 0.5 is kept
    for delta, kept in [([6.0, 8.0, 0.0], [0.6, 0.8, 0.0]), ([0.3, 0.4, 0.0], [0.3, 0.4, 0.0])]:
        g = aggregation.fedavg([(np.array(delta), 10)], base)
        out = aggregation.privacy_adjust_global(g, base, 1.0, rng_seed=42)
        np.testing.assert_allclose(out.delta, np.array(kept) + expected_noise, atol=1e-9)
        np.testing.assert_allclose(out.params.as_vector(), out.delta, atol=1e-9)


@pytest.mark.parametrize("scale", [0.1, 10.0], ids=["within-clip", "clipped"])
def test_global_adjust_is_the_edge_mechanism_bit_for_bit(scale):
    base = ModelParams.zeros(3)
    g = aggregation.fedavg([(np.array([1.0, -2.0, 0.5, 3.0]) * scale, 7)], base)
    out = aggregation.privacy_adjust_global(g, base, 2.0, rng_seed=9)
    clip = aggregation.CLIP_GLOBAL
    ctx = privacy.PrivacyContext(epsilon=2.0, delta=aggregation.DELTA_GLOBAL, clip_norm=clip,
                                 mask_strength=0.0)
    edge = privacy.add_dp_noise(
        privacy.clip_update(GradientUpdate(grad=g.delta, n_samples=7), clip), ctx, rng_seed=9
    )
    assert out.delta.tobytes() == edge.grad.tobytes()


def test_global_adjust_publishes_exactly_base_plus_delta():
    # rebuilding the base as params - delta drifts by ulps in most of these cases
    drifted = []
    for seed in range(500):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 9))
        scale = 10.0 ** int(rng.integers(-3, 4))
        base = ModelParams.from_vector(rng.normal(size=dim + 1) * scale, version=seed)
        g = aggregation.fedavg([(rng.normal(size=dim + 1), 10)], base)
        out = aggregation.privacy_adjust_global(g, base, 2.0, rng_seed=seed)
        assert out.params.version == base.version + 1
        if not np.array_equal(out.params.as_vector(), base.as_vector() + out.delta):
            drifted.append(seed)
    assert drifted == []


def test_global_adjust_small_sigma_barely_moves_accuracy():
    # sigma = 0.01 on a unit-norm delta: held-out accuracy shifts < 2% absolute
    fleet = telemetry.generate_fleet(3, 2, 50, 4, 0.0)
    X, y = telemetry.generate_holdout(fleet, 9, 400)
    delta = np.concatenate([fleet.true_weights * 2.0, [fleet.true_bias]])
    delta = delta / np.linalg.norm(delta)
    base = ModelParams.zeros(4)
    g = aggregation.fedavg([(delta, 10)], base)
    clip, delta = aggregation.CLIP_GLOBAL, aggregation.DELTA_GLOBAL
    eps = clip * math.sqrt(2.0 * math.log(1.25 / delta)) / 0.01
    noisy = aggregation.privacy_adjust_global(g, base, eps, rng_seed=3)
    acc_clean, _ = evaluate(g.params, X, y)
    acc_noisy, _ = evaluate(noisy.params, X, y)
    assert abs(acc_clean - acc_noisy) < 0.02


def test_aggregator_is_structurally_blind_to_raw_updates():
    # the aggregation module must never import or name the unmasked update type
    source = inspect.getsource(aggregation)
    assert "GradientUpdate" not in source
    sig = inspect.signature(aggregation.smpc_sum)
    assert "MaskedUpdate" in str(sig.parameters["masked"].annotation)


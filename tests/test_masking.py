"""Pairwise-cancelling masks: antisymmetry, cancellation, obfuscation, wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfl import masking
from fleetfl.channel import FreshnessTag
from fleetfl.models import GradientUpdate


def _tag(ts=1, rnd=0):
    return FreshnessTag(nonce=bytes(16), timestamp=ts, round=rnd)


def test_two_participant_masks_are_antisymmetric():
    masks = masking.derive_masks(42, ["A", "B"], 5, 1.0)
    np.testing.assert_allclose(masks["A"].values, -masks["B"].values, atol=1e-15)


def test_three_participant_masks_sum_to_zero():
    masks = masking.derive_masks(42, ["A", "B", "C"], 7, 0.5)
    total = sum(m.values for m in masks.values())
    np.testing.assert_allclose(total, np.zeros(7), atol=1e-12)


def test_single_participant_gets_zero_mask():
    masks = masking.derive_masks(42, ["A"], 4, 1.0)
    np.testing.assert_array_equal(masks["A"].values, np.zeros(4))


def test_duplicate_participants_rejected():
    with pytest.raises(ValueError):
        masking.derive_masks(42, ["A", "A"], 4, 1.0)


def test_non_positive_strength_rejected():
    for participants in (["A", "B"], ["A"]):  # one node draws no pair at all
        with pytest.raises(ValueError):
            masking.derive_masks(42, participants, 4, 0.0)


def test_pair_strength_takes_the_stricter_node():
    # with per-node strengths {A: 0.001, B: 50} the shared pair vector must be
    # drawn at strength 50, so A's mask is far larger than its own setting
    masks = masking.derive_masks(42, ["A", "B"], 64, {"A": 0.001, "B": 50.0})
    assert float(np.std(masks["A"].values)) > 10.0


def test_masks_are_deterministic_per_seed():
    a = masking.derive_masks(1, ["A", "B"], 6, 1.0)
    b = masking.derive_masks(1, ["A", "B"], 6, 1.0)
    c = masking.derive_masks(2, ["A", "B"], 6, 1.0)
    np.testing.assert_array_equal(a["A"].values, b["A"].values)
    assert not np.array_equal(a["A"].values, c["A"].values)


def test_masks_differ_across_rounds_for_same_seed_material():
    a = masking.derive_masks(1, ["A", "B"], 6, 1.0, round=0)
    b = masking.derive_masks(1, ["A", "B"], 6, 1.0, round=1)
    assert not np.array_equal(a["A"].values, b["A"].values)
    assert b["A"].round == 1


def test_apply_zero_mask_is_identity():
    upd = GradientUpdate(grad=np.array([1.0, -2.0, 3.0]), n_samples=4)
    mask = masking.MaskVector("A", 0, np.zeros(3))
    out = masking.apply_mask(upd, mask, _tag())
    np.testing.assert_array_equal(out.payload, upd.grad)
    assert out.n_samples == 4


def test_mask_is_an_additive_inverse():
    upd = GradientUpdate(grad=np.array([1.0, -2.0, 3.0]), n_samples=1)
    mask = masking.MaskVector("A", 0, np.array([0.5, 0.5, -0.5]))
    out = masking.apply_mask(upd, mask, _tag())
    np.testing.assert_allclose(out.payload - mask.values, upd.grad, atol=1e-15)


def test_two_node_payload_sum_equals_grad_sum():
    grads = {"A": np.array([1.0, 2.0, 3.0]), "B": np.array([-4.0, 5.0, 0.25])}
    masks = masking.derive_masks(7, ["A", "B"], 3, 2.0)
    payloads = {
        n: masking.apply_mask(GradientUpdate(grad=grads[n], n_samples=1), masks[n], _tag()).payload
        for n in grads
    }
    np.testing.assert_allclose(
        payloads["A"] + payloads["B"], grads["A"] + grads["B"], atol=1e-12
    )


def test_apply_mask_dimension_mismatch():
    upd = GradientUpdate(grad=np.zeros(3), n_samples=1)
    with pytest.raises(ValueError):
        masking.apply_mask(upd, masking.MaskVector("A", 0, np.zeros(4)), _tag())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 32),
    st.integers(1, 64),
    st.floats(0.01, 100.0),
)
def test_cancellation_over_sizes_and_dims(seed, size, dim, strength):
    participants = [f"n{i}" for i in range(size)]
    rng = np.random.default_rng(seed)
    grads = {p: rng.normal(size=dim) for p in participants}
    masks = masking.derive_masks(seed, participants, dim, strength)
    total = sum(grads[p] + masks[p].values for p in participants)
    raw = sum(grads.values())
    np.testing.assert_allclose(total, raw, atol=1e-9 * max(1.0, strength * size))


def test_obfuscation_correlation_below_0_2():
    dim = 4
    raws = np.empty((1000, dim))
    payloads = np.empty((1000, dim))
    rng = np.random.default_rng(11)
    for t in range(1000):
        u = rng.normal(size=dim)
        strength = 10.0 * float(np.linalg.norm(u))
        masks = masking.derive_masks(t, ["A", "B"], dim, strength)
        raws[t] = u
        payloads[t] = u + masks["A"].values
    for j in range(dim):
        corr = np.corrcoef(raws[:, j], payloads[:, j])[0, 1]
        assert abs(corr) < 0.2


def test_masked_update_wire_round_trip():
    upd = GradientUpdate(grad=np.array([1.5, -0.25]), n_samples=7)
    mask = masking.MaskVector("node-3", 5, np.array([0.125, 8.0]))
    mu = masking.apply_mask(upd, mask, _tag(ts=9, rnd=5))
    back = masking.MaskedUpdate.from_bytes(mu.to_bytes())
    assert back.node_id == mu.node_id
    assert back.round == mu.round
    assert back.n_samples == mu.n_samples
    assert back.freshness == mu.freshness
    assert back.payload_hash == mu.payload_hash
    np.testing.assert_array_equal(back.payload, mu.payload)

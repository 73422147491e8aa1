"""Pairwise-cancelling masks: antisymmetry, cancellation, obfuscation, wire format."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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


@pytest.mark.parametrize(
    "strength",
    [{"A": 1.0, "B": math.nan}, {"A": math.inf, "B": 1.0}, math.inf, math.nan],
)
def test_non_finite_strength_rejected(strength):
    with pytest.raises(ValueError):
        masking.derive_masks(1, ["A", "B"], 3, strength)


def _reference_masks(round_seed, participants, dim, strength, rnd):
    """One pair at a time in pure Python: SHAKE-128 of the pair key, the top 53
    bits of each big-endian word, then the Box–Muller cos branch."""
    s = strength if isinstance(strength, dict) else dict.fromkeys(participants, strength)

    def enc_str(x):
        b = x.encode("utf-8")
        return struct.pack(">I", len(b)) + b

    masks = {p: [0.0] * dim for p in participants}
    for i, a in enumerate(participants):
        for b in participants[i + 1 :]:
            key = struct.pack(">QQ", round_seed % 2**64, rnd) + enc_str(a) + enc_str(b)
            words = struct.unpack(f">{2 * dim}Q", hashlib.shake_128(key).digest(16 * dim))
            for k in range(dim):
                u1 = ((words[k] >> 11) + 1) * 2.0**-53
                u2 = (words[dim + k] >> 11) * 2.0**-53
                z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                masks[a][k] += z * max(s[a], s[b])
                masks[b][k] -= z * max(s[a], s[b])
    return masks


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-(2**63), 2**70),
    st.integers(0, 2**20),
    st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=20, unique=True),
    st.integers(1, 16),
    st.one_of(
        st.floats(0.01, 100.0),
        st.lists(st.floats(0.01, 100.0), min_size=20, max_size=20),
    ),
)
def test_masks_match_the_pure_python_reference(seed, rnd, participants, dim, strength):
    if isinstance(strength, list):
        strength = dict(zip(participants, strength))
    got = masking.derive_masks(seed, participants, dim, strength, round=rnd)
    ref = _reference_masks(seed, participants, dim, strength, rnd)
    top = max(strength.values()) if isinstance(strength, dict) else strength
    for p in participants:
        # node masks are sums over n - 1 pairs, taken in another order
        np.testing.assert_allclose(
            got[p].values, ref[p], rtol=1e-12, atol=1e-12 * top * len(participants)
        )


@pytest.mark.parametrize(
    "seed, rnd, strength",
    [(0, 0, 1.5), (7, 3, 1.5), (2**64 + 5, 11, {"A": 0.5, "B": 2.0, "C": 1.0, "D": 3.0})],
)
def test_each_pair_vector_depends_only_on_its_pair(seed, rnd, strength):
    # e.g. masks(ABCD)[A] == masks(AB)[A] + masks(AC)[A] + masks(AD)[A]
    roster = ["A", "B", "C", "D"]
    full = masking.derive_masks(seed, roster, 6, strength, round=rnd)
    for x in roster:
        pairs = [sorted([x, y], key=roster.index) for y in roster if y != x]
        parts = [masking.derive_masks(seed, pair, 6, strength, round=rnd)[x] for pair in pairs]
        np.testing.assert_allclose(
            full[x].values, sum(m.values for m in parts), rtol=1e-12, atol=1e-12
        )


def test_two_node_mask_is_standard_normal_times_strength():
    draws = np.concatenate([
        masking.derive_masks(seed, ["A", "B"], 1 + seed % 16, 3.0)["A"].values / 3.0
        for seed in range(400)
    ])
    assert draws.size > 3000
    assert stats.kstest(draws, "norm").pvalue > 1e-3


def test_masks_of_a_large_roster_are_drawn_one_node_at_a_time():
    # 256 nodes at dim 9 is 32,640 pairs: stacking every pair's 144 stream
    # bytes and normal row at once would take more than 2 MB
    roster = [f"node-{i}" for i in range(256)]
    tracemalloc.start()
    try:
        masking.derive_masks(5, roster, 9, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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

"""Pairwise-cancelling masks: antisymmetry, cancellation, obfuscation, wire format."""

import hashlib
import itertools
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fleetfl import masking
from fleetfl.channel import FreshnessTag
from fleetfl.encoding import enc_str, enc_u32, enc_u64, normals
from fleetfl.models import GradientUpdate


def _tag(ts=1, rnd=0):
    return FreshnessTag(nonce=bytes(16), timestamp=ts, round=rnd)


def test_two_participant_masks_are_antisymmetric():
    masks = masking.derive_masks(42, ["A", "B"], 5, 1.0)
    np.testing.assert_allclose(masks["A"], -masks["B"], atol=1e-15)


def test_three_participant_masks_sum_to_zero():
    masks = masking.derive_masks(42, ["A", "B", "C"], 7, 0.5)
    total = sum(masks.values())
    np.testing.assert_allclose(total, np.zeros(7), atol=1e-12)


def test_single_participant_gets_zero_mask():
    masks = masking.derive_masks(42, ["A"], 4, 1.0)
    np.testing.assert_array_equal(masks["A"], np.zeros(4))


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


def _reference_masks(round_seed, participants, dim, strength, rnd, threat=1.0):
    """One pair at a time in pure Python: SHAKE-128 of the pair key, the top 53
    bits of each big-endian word, then the Box–Muller cos branch. Nodes are
    paired iff their circular distance in the roster is at most h, and a
    sparse graph's pair vectors are rescaled by sqrt((n - 1) / 2h)."""
    s = strength if isinstance(strength, dict) else dict.fromkeys(participants, strength)
    n = len(participants)
    h = _h(n, threat)
    scale = math.sqrt((n - 1) / (2 * h)) if 2 * h < n - 1 else 1.0

    def enc_str(x):
        b = x.encode("utf-8")
        return struct.pack(">I", len(b)) + b

    masks = {p: [0.0] * dim for p in participants}
    for i, a in enumerate(participants):
        for j, b in enumerate(participants[i + 1 :], start=i + 1):
            if min(j - i, n - (j - i)) > h:
                continue
            key = struct.pack(">QQ", round_seed % 2**64, rnd) + enc_str(a) + enc_str(b)
            words = struct.unpack(f">{2 * dim}Q", hashlib.shake_128(key).digest(16 * dim))
            for k in range(dim):
                u1 = ((words[k] >> 11) + 1) * 2.0**-53
                u2 = (words[dim + k] >> 11) * 2.0**-53
                z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                masks[a][k] += z * max(s[a], s[b]) * scale
                masks[b][k] -= z * max(s[a], s[b]) * scale
    return masks


def _h(n, threat):
    """The mask graph's half-degree, from its definition."""
    return max(math.ceil(math.log2(n)) if n > 1 else 0, math.ceil(threat * (n - 1) / 2))


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
            got[p], ref[p], rtol=1e-12, atol=1e-12 * top * len(participants)
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
            full[x], sum(parts), rtol=1e-12, atol=1e-12
        )


def test_two_node_mask_is_standard_normal_times_strength():
    draws = np.concatenate([
        masking.derive_masks(seed, ["A", "B"], 1 + seed % 16, 3.0)["A"] / 3.0
        for seed in range(400)
    ])
    assert draws.size > 3000
    assert stats.kstest(draws, "norm").pvalue > 1e-3


def test_masks_of_a_large_roster_are_drawn_in_bounded_blocks():
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
    assert float(np.std(masks["A"])) > 10.0


def test_masks_are_deterministic_per_seed():
    a = masking.derive_masks(1, ["A", "B"], 6, 1.0)
    b = masking.derive_masks(1, ["A", "B"], 6, 1.0)
    c = masking.derive_masks(2, ["A", "B"], 6, 1.0)
    np.testing.assert_array_equal(a["A"], b["A"])
    assert not np.array_equal(a["A"], c["A"])


def test_masks_differ_across_rounds_for_same_seed_material():
    a = masking.derive_masks(1, ["A", "B"], 6, 1.0, round=0)
    b = masking.derive_masks(1, ["A", "B"], 6, 1.0, round=1)
    assert not np.array_equal(a["A"], b["A"])


def test_apply_zero_mask_is_identity():
    upd = GradientUpdate(grad=np.array([1.0, -2.0, 3.0]), n_samples=4)
    out = masking.apply_mask("A", upd, np.zeros(3), _tag())
    np.testing.assert_array_equal(out.payload, upd.grad)
    assert out.n_samples == 4


def test_mask_is_an_additive_inverse():
    upd = GradientUpdate(grad=np.array([1.0, -2.0, 3.0]), n_samples=1)
    mask = np.array([0.5, 0.5, -0.5])
    out = masking.apply_mask("A", upd, mask, _tag())
    np.testing.assert_allclose(out.payload - mask, upd.grad, atol=1e-15)


def test_two_node_payload_sum_equals_grad_sum():
    grads = {"A": np.array([1.0, 2.0, 3.0]), "B": np.array([-4.0, 5.0, 0.25])}
    masks = masking.derive_masks(7, ["A", "B"], 3, 2.0)
    payloads = {
        n: masking.apply_mask(n, GradientUpdate(grad=grads[n], n_samples=1), masks[n], _tag())
        .payload
        for n in grads
    }
    np.testing.assert_allclose(
        payloads["A"] + payloads["B"], grads["A"] + grads["B"], atol=1e-12
    )


def test_apply_mask_dimension_mismatch():
    upd = GradientUpdate(grad=np.zeros(3), n_samples=1)
    with pytest.raises(ValueError):
        masking.apply_mask("A", upd, np.zeros(4), _tag())


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
    total = sum(grads[p] + masks[p] for p in participants)
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
        payloads[t] = u + masks["A"]
    for j in range(dim):
        corr = np.corrcoef(raws[:, j], payloads[:, j])[0, 1]
        assert abs(corr) < 0.2


def test_masked_update_wire_round_trip():
    upd = GradientUpdate(grad=np.array([1.5, -0.25]), n_samples=7)
    mu = masking.apply_mask("node-3", upd, np.array([0.125, 8.0]), _tag(ts=9, rnd=5))
    back = masking.MaskedUpdate.from_bytes(mu.to_bytes())
    assert back.node_id == mu.node_id
    assert back.n_samples == mu.n_samples
    assert back.freshness == mu.freshness
    assert back.payload_hash == mu.payload_hash
    np.testing.assert_array_equal(back.payload, mu.payload)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32), st.integers(1, 500))
def test_the_fleet_encoding_of_each_row_is_apply_masks(n, dim, seed, n_samples):
    rng = np.random.default_rng(seed)
    ids = [f"node-{i}" for i in range(n)]
    updates, masks = rng.normal(size=(n, dim)), rng.normal(size=(n, dim)) * 1e3
    tags = [FreshnessTag(nonce=bytes([i]) * 16, timestamp=seed + i, round=seed) for i in range(n)]
    wires = masking.encode_updates(ids, updates + masks, n_samples, tags)
    for k, node in enumerate(ids):
        mu = masking.apply_mask(node, GradientUpdate(grad=updates[k], n_samples=n_samples),
                                masks[k], tags[k])
        assert wires[k] == mu.to_bytes()


# -- the threat-sized mask graph ----------------------------------------------

THREATS = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-(2**63), 2**70),
    st.integers(0, 2**20),
    st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=40, unique=True),
    st.integers(1, 16),
    st.one_of(
        st.floats(0.01, 100.0),
        st.lists(st.floats(0.01, 100.0), min_size=40, max_size=40),
    ),
    THREATS,
)
def test_graph_masks_match_the_pure_python_reference(
    seed, rnd, participants, dim, strength, threat
):
    if isinstance(strength, list):
        strength = dict(zip(participants, strength))
    got = masking.derive_masks(seed, participants, dim, strength, round=rnd, threat=threat)
    ref = _reference_masks(seed, participants, dim, strength, rnd, threat)
    top = max(strength.values()) if isinstance(strength, dict) else strength
    for p in participants:
        np.testing.assert_allclose(
            got[p], ref[p], rtol=1e-12, atol=1e-12 * top * len(participants)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 64),
    st.integers(1, 64),
    st.floats(0.01, 100.0),
    THREATS,
)
def test_graph_masks_cancel_at_every_threat(seed, size, dim, strength, threat):
    participants = [f"n{i:02d}" for i in range(size)]
    rng = np.random.default_rng(seed)
    grads = {p: rng.normal(size=dim) for p in participants}
    masks = masking.derive_masks(seed, participants, dim, strength, threat=threat)
    total = sum(grads[p] + masks[p] for p in participants)
    raw = sum(grads.values())
    # criterion 01's bound on the residual
    assert float(np.max(np.abs(total - raw))) < 1e-9 * max(1.0, strength * size)


def _adjacency(n, h):
    adj = {i: set() for i in range(n)}
    for i, later in enumerate(masking.mask_graph(n, h)):
        for j in later:
            assert j > i
            adj[i].add(int(j))
            adj[int(j)].add(i)
    return adj


@pytest.mark.parametrize("threat", [0.0, 0.1, 0.37, 0.5, 0.9, 1.0])
def test_every_node_has_min_2h_or_n_minus_1_neighbours(threat):
    for n in [*range(1, 41), 64, 100, 255, 256]:
        h = _h(n, threat)
        assert masking.half_degree(n, threat) == h
        adj = _adjacency(n, h)
        assert {len(nb) for nb in adj.values()} == {min(2 * h, n - 1)}, (n, h)


def _connected(nodes, adj):
    nodes = set(nodes)
    if not nodes:
        return True
    seen, todo = set(), [min(nodes)]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(adj[x] & nodes)
    return seen == nodes


@pytest.mark.parametrize("n", range(2, 13))
def test_removing_fewer_than_2h_nodes_leaves_the_rest_connected(n):
    # H_{2h,n} is 2h-connected: no 2h - 1 colluders split the honest nodes
    for h in sorted({masking.half_degree(n, t / 20) for t in range(21)}):
        adj = _adjacency(n, h)
        k = min(2 * h - 1, n - 1)
        for removed in itertools.combinations(range(n), k):
            assert _connected(set(range(n)) - set(removed), adj), (n, h, removed)


def test_the_graph_is_every_pair_at_threat_one_and_for_small_fleets():
    for n in range(1, 60):
        assert 2 * masking.half_degree(n, 1.0) >= n - 1
    for n in range(1, 8):
        assert 2 * masking.half_degree(n, 0.1) >= n - 1
    assert 2 * masking.half_degree(8, 0.1) < 7


@pytest.mark.parametrize(
    "n, threat, pairs",
    [(256, 0.1, 3_328), (64, 0.1, 384), (16, 0.1, 64), (12, 0.0, 48), (12, 1.0, 66),
     (256, 1.0, 32_640)],
)
def test_pairs_per_round(n, threat, pairs):
    graph = masking.mask_graph(n, masking.half_degree(n, threat))
    assert sum(len(later) for later in graph) == pairs


@pytest.mark.parametrize("threat", [-0.1, 1.5, math.nan, math.inf])
def test_threat_outside_the_unit_interval_rejected(threat):
    with pytest.raises(ValueError):
        masking.derive_masks(1, ["A", "B", "C"], 3, 1.0, threat=threat)


def test_sparse_masks_keep_the_every_pair_variance():
    # 64 nodes at threat 0 pair each node with 12 of 63; the rescale keeps a
    # node's summed mask at n - 1 pairs' variance, so it reads N(0, 63) at strength 1
    roster = [f"n{i:02d}" for i in range(64)]
    assert 2 * masking.half_degree(64, 0.0) == 12
    draws = np.concatenate([
        masking.derive_masks(seed, roster, 8, 1.0, threat=0.0)[roster[seed % 64]]
        for seed in range(400)
    ]) / math.sqrt(63)
    assert stats.kstest(draws, "norm").pvalue > 1e-3


def test_a_sparse_large_roster_is_drawn_in_bounded_blocks():
    roster = [f"node-{i}" for i in range(256)]
    tracemalloc.start()
    try:
        masking.derive_masks(5, roster, 9, 2.0, threat=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_threat_one_masks_are_bit_identical_to_the_every_pair_masks():
    # sha256 of these masks as drawn over every pair before the graph existed
    roster = [f"node-{i}" for i in range(40)]
    strength = {p: 0.5 + 0.25 * i for i, p in enumerate(roster)}
    for kwargs in ({}, {"threat": 1.0}):
        masks = masking.derive_masks(2**40 + 17, roster, 9, strength, round=3, **kwargs)
        digest = hashlib.sha256(b"".join(masks[p].astype("<f8").tobytes() for p in roster))
        assert digest.hexdigest() == (
            "5a9443d8f030487c78cb292f1ea79086fcd411766163b4cc387aaccc5a96920f"
        )


# -- the blocked pass against the per-node loop --------------------------------


def _per_node_masks(round_seed, participants, dim, strength, round=0, threat=1.0):
    """derive_masks as it was drawn one node at a time, kept as the reference
    whose float additions the blocked pass must repeat exactly."""
    if isinstance(strength, dict):
        s = np.array([float(strength[p]) for p in participants])
    else:
        s = np.full(len(participants), float(strength))
    n = len(participants)
    h = masking.half_degree(n, threat)
    if 2 * h < n - 1:  # a sparse graph: each node's mask keeps the variance of n - 1 pairs
        s = s * math.sqrt((n - 1) / (2 * h))
    prefix = enc_u64(round_seed & 0xFFFFFFFFFFFFFFFF) + enc_u64(round)
    ids = [enc_str(p) for p in participants]
    nbytes = 16 * dim
    masks = np.zeros((n, dim))
    # one node's pairs at a time: the transient rows stay (n - 1) × dim at most,
    # not pairs × dim, whose size would show in the process's peak memory
    for i, later in enumerate(masking.mask_graph(n, h)[:-1]):
        key = prefix + ids[i]
        stream = b"".join([hashlib.shake_128(key + ids[j]).digest(nbytes) for j in later])
        rows = normals(np.frombuffer(stream, dtype=">u8").reshape(len(later), 2, dim))
        rows *= np.maximum(s[i], s[later])[:, None]
        masks[i] += rows.sum(axis=0)
        masks[later] -= rows
    return dict(zip(participants, masks))


def _same_bytes(got, ref, participants):
    return all(got[p].tobytes() == ref[p].tobytes() for p in participants)


def _block_count(n, threat):
    graph = masking.mask_graph(n, masking.half_degree(n, threat))[:-1]
    return len(list(masking._blocks([len(later) for later in graph])))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(-(2**63), 2**70),
    st.integers(0, 2**20),
    st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=80, unique=True),
    st.integers(1, 12),
    st.one_of(
        st.floats(0.01, 100.0),
        st.lists(st.floats(0.01, 100.0), min_size=80, max_size=80),
    ),
    THREATS,
    st.integers(1, 600),
)
@example(1, 0, ["A"], 3, 1.0, 0.5, 512)
@example(1, 0, ["A", "B"], 1, 1.0, 0.0, 512)
@example(2, 1, ["A", "B"], 9, [2.0] * 80, 1.0, 1)
@example(3, 2, [f"n{i}" for i in range(40)], 9, 1.5, 1.0, 512)  # 780 pairs: two blocks
def test_blocked_masks_are_bit_identical_to_the_per_node_loop(
    seed, rnd, participants, dim, strength, threat, block_pairs
):
    if isinstance(strength, list):
        strength = dict(zip(participants, strength))
    with mock.patch.object(masking, "BLOCK_PAIRS", block_pairs):
        got = masking.derive_masks(seed, participants, dim, strength, round=rnd, threat=threat)
    ref = _per_node_masks(seed, participants, dim, strength, round=rnd, threat=threat)
    assert _same_bytes(got, ref, participants)


@pytest.mark.parametrize("threat", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("dim", [1, 9])
def test_a_256_node_roster_spans_many_blocks_and_matches_the_loop(threat, dim):
    roster = [f"node-{i}" for i in range(256)]
    strength = {p: 0.5 + 0.25 * (i % 11) for i, p in enumerate(roster)}
    assert _block_count(256, threat) > 1
    got = masking.derive_masks(99, roster, dim, strength, round=4, threat=threat)
    assert _same_bytes(got, _per_node_masks(99, roster, dim, strength, 4, threat), roster)


def test_a_block_holds_whole_nodes_within_the_pair_bound():
    sizes = [255, 254, 300, 1, 1, 700, 200, 200, 112]
    runs = list(masking._blocks(sizes))
    assert runs == [(0, 2), (2, 5), (5, 6), (6, 9)]
    assert all(sum(sizes[a:b]) <= masking.BLOCK_PAIRS or b - a == 1 for a, b in runs)


# -- the wire form the cloud forwards to the ledger ------------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308]
WORDS = st.one_of(
    st.sampled_from(SPECIAL).map(lambda x: struct.pack(">d", x)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(
        lambda x: struct.pack(">d", x)
    ),
    st.integers(0, 2**64 - 1).map(lambda w: struct.pack(">Q", w)),  # every NaN payload
)


@settings(max_examples=200, deadline=None)
@given(
    st.text(max_size=12),
    st.lists(WORDS, max_size=24),
    st.integers(0, 2**64 - 1),
    st.binary(min_size=16, max_size=16),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.binary(min_size=32, max_size=32),
)
@example("n", [struct.pack(">d", x) for x in SPECIAL], 3, bytes(16), 1, 0, bytes(32))
def test_masked_update_bytes_survive_a_decode_and_re_encode(
    node_id, words, n_samples, nonce, ts, rnd, digest
):
    b = (
        enc_str(node_id) + enc_u32(len(words)) + b"".join(words) + enc_u64(n_samples)
        + nonce + enc_u64(ts) + enc_u64(rnd) + digest
    )
    assert masking.MaskedUpdate.from_bytes(b).to_bytes() == b


# -- the cached plan against the blocked loop it replaced --------------------------


def _blocked_masks(round_seed, participants, dim, strength, round=0, threat=1.0):
    """derive_masks as drawn before its plan was cached: the mask graph rebuilt
    on each call and each node's own rows summed on their own, in blocks of
    whole nodes. Kept as the reference whose float additions the cached plan
    must repeat exactly."""
    if isinstance(strength, dict):
        s = np.array([float(strength[p]) for p in participants])
    else:
        s = np.full(len(participants), float(strength))
    n = len(participants)
    h = masking.half_degree(n, threat)
    if 2 * h < n - 1:
        s = s * math.sqrt((n - 1) / (2 * h))
    prefix = enc_u64(round_seed & 0xFFFFFFFFFFFFFFFF) + enc_u64(round)
    ids = [enc_str(p) for p in participants]
    keys = [prefix + x for x in ids]
    nbytes = 16 * dim
    masks = np.zeros((n, dim))
    graph = masking.mask_graph(n, h)[:-1]
    sizes = [len(later) for later in graph]
    for a, b in masking._blocks(sizes):
        counts = sizes[a:b]
        I = np.repeat(np.arange(a, b), counts)
        J = np.concatenate(graph[a:b])
        stream = b"".join([
            hashlib.shake_128(keys[i] + ids[j]).digest(nbytes)
            for i, j in zip(I.tolist(), J.tolist())
        ])
        rows = normals(np.frombuffer(stream, dtype=">u8").reshape(len(J), 2, dim))
        rows *= np.maximum(s[I], s[J])[:, None]
        np.subtract.at(masks, J, rows)
        starts = np.cumsum(counts) - counts
        masks[a:b] += np.stack([rows[o : o + k].sum(axis=0) for o, k in zip(starts, counts)])
    return dict(zip(participants, masks))


PLAN_THREATS = st.sampled_from([0.0, 0.1, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-(2**63), 2**70),
    st.integers(0, 2**20),
    st.integers(1, 300),
    st.integers(1, 12),
    st.one_of(st.floats(0.01, 100.0), st.lists(st.floats(0.01, 100.0), min_size=1)),
    PLAN_THREATS,
)
@example(1, 0, 1, 1, 1.0, 0.0)
@example(2, 1, 2, 1, [2.0, 0.5], 1.0)
@example(3, 2, 300, 1, 1.5, 0.1)  # h = 15: nodes of 15 rows, which one column sums pairwise
@example(4, 3, 300, 12, [0.5, 1.0, 3.0], 0.5)
@example(5, 4, 256, 9, 2.0, 1.0)
def test_cached_plan_masks_are_bit_identical_to_the_blocked_loop(
    seed, rnd, n, dim, strength, threat
):
    participants = [f"v{i}" for i in range(n)]
    if isinstance(strength, list):  # cycled over the roster
        strength = {p: strength[i % len(strength)] for i, p in enumerate(participants)}
    got = masking.derive_masks(seed, participants, dim, strength, round=rnd, threat=threat)
    ref = _blocked_masks(seed, participants, dim, strength, round=rnd, threat=threat)
    assert _same_bytes(got, ref, participants)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(2, 120),
    st.integers(1, 9),
    st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), min_size=2, max_size=6),
)
@example(7, 120, 9, [0.1, 1.0, 0.1, 0.5])
def test_a_threat_schedule_that_changes_h_between_rounds_keeps_every_round_exact(
    seed, n, dim, schedule
):
    participants = [f"node-{i}" for i in range(n)]
    strength = {p: 0.5 + 0.25 * (i % 7) for i, p in enumerate(participants)}
    for rnd, threat in enumerate(schedule):
        got = masking.derive_masks(seed, participants, dim, strength, round=rnd, threat=threat)
        ref = _blocked_masks(seed, participants, dim, strength, round=rnd, threat=threat)
        assert _same_bytes(got, ref, participants)
    assert masking._plan.cache_info().currsize <= masking._plan.cache_info().maxsize


def test_a_plan_is_built_once_per_graph_and_block_bound():
    masking._plan.cache_clear()
    roster = [f"node-{i}" for i in range(64)]
    for rnd in range(3):
        masking.derive_masks(rnd, roster, 4, 1.0, round=rnd, threat=0.1)
    masking.derive_masks(0, roster, 4, 1.0, threat=1.0)
    assert masking._plan.cache_info().misses == 2
    with mock.patch.object(masking, "BLOCK_PAIRS", 1):
        masking.derive_masks(0, roster, 4, 1.0, threat=1.0)
    assert masking._plan.cache_info().misses == 3


# -- the stacked decode against per-message from_bytes -----------------------------


def _update_bytes(node_id, words, n_samples, nonce, ts, rnd, digest):
    return (
        enc_str(node_id) + enc_u32(len(words)) + b"".join(words) + enc_u64(n_samples)
        + nonce + enc_u64(ts) + enc_u64(rnd) + digest
    )


UPDATES = st.tuples(
    st.text(max_size=12),
    st.lists(WORDS, max_size=12),
    st.integers(0, 2**64 - 1),
    st.binary(min_size=16, max_size=16),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.binary(min_size=32, max_size=32),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(UPDATES, max_size=20))
@example([])
@example([("a", [struct.pack(">d", x) for x in SPECIAL], 3, bytes(16), 1, 0, bytes(32)),
          ("", [], 0, bytes(16), 0, 0, bytes(32))])
def test_the_stacked_decode_equals_per_message_from_bytes(updates):
    blobs = [_update_bytes(*u) for u in updates]
    got = masking.decode_updates(blobs, [f"s{k}" for k in range(len(blobs))])
    assert len(got) == len(blobs)
    for mu, b in zip(got, blobs):
        ref = masking.MaskedUpdate.from_bytes(b)
        assert (mu.node_id, mu.n_samples, mu.freshness, mu.payload_hash) == (
            ref.node_id, ref.n_samples, ref.freshness, ref.payload_hash
        )
        assert mu.payload.dtype == ref.payload.dtype and mu.payload.shape == ref.payload.shape
        assert mu.payload.tobytes() == ref.payload.tobytes()
        assert mu.to_bytes() == b


@pytest.mark.parametrize("extra", [b"\x00", b"junk"])
def test_bytes_past_the_layout_are_a_value_error(extra):
    b = _update_bytes("node-0", [struct.pack(">d", 1.5)] * 3, 7, bytes(16), 1, 0, bytes(32))
    with pytest.raises(ValueError, match="run past"):
        masking.MaskedUpdate.from_bytes(b + extra)
    with pytest.raises(ValueError, match="run past"):
        masking.MaskedUpdate.payload_encoding(b + extra)
    with pytest.raises(ValueError, match="update from node-0: .* run past"):
        masking.decode_updates([b + extra], ["node-0"])


def test_bytes_short_of_the_layout_are_a_value_error():
    b = _update_bytes("node-0", [struct.pack(">d", 1.5)] * 3, 7, bytes(16), 1, 0, bytes(32))
    for cut in range(len(b)):
        with pytest.raises(ValueError, match="stop short of"):
            masking.MaskedUpdate.from_bytes(b[:cut])
        with pytest.raises(ValueError, match="update from node-1: .* stop short of"):
            masking.decode_updates([b, b[:cut]], ["node-0", "node-1"])

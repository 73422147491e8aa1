"""Canonical encoding and hashing: byte layouts, round trips, digest properties."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from conftest import ref_permutations, ref_words
from fleetfl import encoding

# published SHA-256 test vector for the empty input
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_scalar_encodings_are_big_endian_fixed_width():
    assert encoding.enc_u32(1) == b"\x00\x00\x00\x01"
    assert encoding.enc_u64(1) == b"\x00" * 7 + b"\x01"
    assert encoding.enc_bytes(b"ab") == b"\x00\x00\x00\x02ab"
    assert encoding.enc_str("ab") == encoding.enc_bytes(b"ab")


def test_canonical_hash_matches_published_empty_vector():
    assert encoding.canonical_hash(b"").hex() == SHA256_EMPTY


def test_canonical_hash_is_deterministic():
    assert encoding.canonical_hash(b"payload") == encoding.canonical_hash(b"payload")


def test_one_bit_difference_changes_digest_over_1000_trials():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        data = rng.integers(0, 256, size=32, dtype=np.uint8).tobytes()
        bit = int(rng.integers(len(data) * 8))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert encoding.canonical_hash(data) != encoding.canonical_hash(bytes(flipped))


def test_enc_vec_layout_is_count_prefixed_big_endian_doubles():
    b = encoding.enc_vec(np.array([1.0]))
    assert b == b"\x00\x00\x00\x01" + b"\x3f\xf0\x00\x00\x00\x00\x00\x00"


def test_enc_vec_rejects_matrices():
    try:
        encoding.enc_vec(np.zeros((2, 2)))
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(0, 64),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_vec_round_trip(v):
    decoded, off = encoding.dec_vec(encoding.enc_vec(v))
    assert off == 4 + 8 * v.size
    np.testing.assert_array_equal(decoded, v)


def test_sub_seed_is_the_first_8_bytes_of_the_joined_parts_digest():
    digest = hashlib.sha256(b"explain:7:3").digest()
    assert encoding.sub_seed("explain", 7, 3) == int.from_bytes(digest[:8], "big")
    assert encoding.sub_seed(7, "holdout") != encoding.sub_seed("holdout", 7)


def test_hash_vector_matches_manual_composition():
    v = np.array([1.5, -2.0])
    assert encoding.hash_vector(v) == hashlib.sha256(encoding.enc_vec(v)).digest()


SEEDS = st.integers(0, 2**64 - 1)


@given(st.lists(SEEDS, min_size=1, max_size=4), st.integers(0, 40))
@example([0, 2**64 - 1], 3)
def test_streams_are_each_seeds_shake128_words(seeds, n_words):
    words = encoding.streams(seeds, n_words)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), n_words)
    for row, seed in zip(words, seeds):
        assert row.tolist() == ref_words(seed, n_words)
        assert encoding.streams([seed], n_words)[0].tolist() == row.tolist()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_raises(seed):
    with pytest.raises(ValueError, match="2\\^64"):
        encoding.streams([seed], 2)
    with pytest.raises(ValueError, match="2\\^64"):
        encoding.permutations([seed], 1, 3)


def test_uniforms_lie_in_the_half_open_unit_interval_0_1():
    words = np.array([0, 2**11 - 1, 2**11, 2**64 - 1], dtype=np.uint64)
    assert encoding.uniforms(words).tolist() == [2.0**-53, 2.0**-53, 2.0**-52, 1.0]
    w = ref_words(4, 100)
    got = encoding.uniforms(encoding.streams([4], 100)[0])
    assert got.tolist() == [((x >> 11) + 1) * 2.0**-53 for x in w]


def test_normals_are_the_box_muller_cos_branch():
    d = 500
    w = ref_words(3, 2 * d)
    want = [
        math.sqrt(-2.0 * math.log(((w[k] >> 11) + 1) * 2.0**-53))
        * math.cos(2.0 * math.pi * (w[d + k] >> 11) * 2.0**-53)
        for k in range(d)
    ]
    got = encoding.normals(encoding.streams([3], 2 * d).reshape(2, d))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_100k_normals_pass_a_ks_test():
    z = encoding.normals(encoding.streams([2024], 200_000).reshape(2, 100_000))
    assert stats.kstest(z, "norm").pvalue > 1e-3
    assert abs(z.mean()) < 0.02 and abs(z.std() - 1.0) < 0.02


def test_permutations_of_3_items_pass_a_chi_squared_test():
    orders = list(itertools.permutations(range(3)))
    perms = encoding.permutations([6], 60_000, 3)[0]
    counts = np.zeros(len(orders))
    for p in map(tuple, perms.tolist()):
        counts[orders.index(p)] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


@settings(max_examples=60, deadline=None)
@given(st.lists(SEEDS, min_size=1, max_size=4), st.integers(1, 4), st.integers(1, 30))
def test_permutations_equal_the_scalar_reference(seeds, count, n):
    got = encoding.permutations(seeds, count, n)
    assert got.shape == (len(seeds), count, n)
    for perms, seed in zip(got, seeds):
        assert perms.tolist() == ref_permutations(seed, count, n)

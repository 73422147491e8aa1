"""Canonical encoding and hashing: byte layouts, round trips, digest properties."""

import hashlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fleetfl import encoding

# published SHA-256 test vector for the empty input
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_scalar_encodings_are_big_endian_fixed_width():
    assert encoding.enc_u32(1) == b"\x00\x00\x00\x01"
    assert encoding.enc_u64(1) == b"\x00" * 7 + b"\x01"
    assert encoding.enc_f64(1.0) == b"\x3f\xf0\x00\x00\x00\x00\x00\x00"
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

"""Authenticated envelopes: round trips, tamper/replay/stale rejections, bindings."""

import hashlib

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfl import channel
from fleetfl.encoding import enc_str, enc_u64

KEY = bytes(range(32))
OTHER_KEY = bytes(range(1, 33))
LINK = channel.Link("P", "C", KEY)


def _tag(n=0, ts=5, rnd=0):
    nonce = n.to_bytes(16, "big") if isinstance(n, int) else n
    return channel.FreshnessTag(nonce=nonce, timestamp=ts, round=rnd)


def _open(env, window=100, seen=None, now=10, link=LINK):
    return channel.open_envelope(link, env, window, seen if seen is not None else set(), now)


def test_round_trip_returns_payload():
    env = channel.seal(LINK, _tag(), b"hello")
    assert _open(env) == b"hello"


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=512), st.integers(0, 2**127))
def test_round_trip_arbitrary_payloads(payload, nonce_int):
    env = channel.seal(LINK, _tag(nonce_int), payload)
    assert _open(env) == payload


@settings(max_examples=50, deadline=None)
@given(
    st.binary(min_size=1, max_size=64), st.integers(0, 2**128 - 1),
    st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=16),
)
def test_freshness_tag_round_trips_at_an_offset(prefix, nonce_int, ts, rnd, suffix):
    tag = _tag(nonce_int, ts, rnd)
    raw = tag.to_bytes()
    assert len(raw) == 32  # 16-byte nonce, u64 timestamp, u64 round
    back, end = channel.FreshnessTag.from_bytes(prefix + raw + suffix, len(prefix))
    assert back == tag
    assert end == len(prefix) + len(raw)


def test_wrong_key_fails_authentication():
    env = channel.seal(LINK, _tag(), b"hello")
    with pytest.raises(channel.TamperedError):
        _open(env, link=channel.Link("P", "C", OTHER_KEY))


def test_replayed_nonce_rejected_on_second_open():
    env = channel.seal(LINK, _tag(), b"hello")
    seen = set()
    _open(env, seen=seen)
    with pytest.raises(channel.ReplayedError):
        _open(env, seen=seen)


def test_stale_timestamp_rejected():
    env = channel.seal(LINK, _tag(ts=5), b"hello")
    with pytest.raises(channel.StaleError):
        _open(env, window=10, now=16)
    # exactly at the window edge still passes
    env2 = channel.seal(LINK, _tag(n=1, ts=5), b"hello")
    assert _open(env2, window=10, now=15) == b"hello"


def test_hundred_random_bit_flips_all_tampered():
    payload = bytes(np.random.default_rng(2).integers(0, 256, size=64, dtype=np.uint8))
    rng = np.random.default_rng(3)
    for i in range(100):
        env = channel.seal(LINK, _tag(n=i), payload)
        blob = bytearray(env.ciphertext)
        bit = int(rng.integers(len(blob) * 8))
        blob[bit // 8] ^= 1 << (bit % 8)
        env.ciphertext = bytes(blob)
        with pytest.raises(channel.TamperedError):
            _open(env)


def test_flipped_auth_tag_is_tampered():
    env = channel.seal(LINK, _tag(), b"hello")
    env.auth_tag = bytes([env.auth_tag[0] ^ 1]) + env.auth_tag[1:]
    with pytest.raises(channel.TamperedError):
        _open(env)


def test_sender_receiver_binding_in_associated_data():
    env = channel.seal(LINK, _tag(), b"hello")
    env.sender, env.receiver = env.receiver, env.sender
    with pytest.raises(channel.TamperedError):
        _open(env)


def test_freshness_binding_in_associated_data():
    env = channel.seal(LINK, _tag(ts=5), b"hello")
    env.freshness = channel.FreshnessTag(env.freshness.nonce, 6, env.freshness.round)
    with pytest.raises(channel.TamperedError):
        _open(env)


def test_distinct_nonces_give_distinct_ciphertexts():
    a = channel.seal(LINK, _tag(n=0), b"same payload")
    b = channel.seal(LINK, _tag(n=1), b"same payload")
    assert a.ciphertext != b.ciphertext


def test_sender_side_nonce_reuse_rejected():
    used = set()
    channel.seal(LINK, _tag(n=7), b"x", used_nonces=used)
    with pytest.raises(channel.NonceReuseError):
        channel.seal(LINK, _tag(n=7), b"y", used_nonces=used)


def test_plaintext_never_appears_in_envelope_bytes():
    payload = b"very-secret-telemetry-coordinates"
    env = channel.seal(LINK, _tag(), payload)
    assert payload not in env.to_bytes()


def test_nonce_source_is_deterministic_and_unique():
    a = channel.NonceSource("P", 1)
    b = channel.NonceSource("P", 1)
    seq_a = [a.next() for _ in range(10)]
    seq_b = [b.next() for _ in range(10)]
    assert seq_a == seq_b
    assert len(set(seq_a)) == 10


def test_key_registry_unknown_party():
    reg = channel.KeyRegistry.generate(["node-0"], seed=1)
    assert len(reg.edge_cloud_key("node-0")) == 32
    with pytest.raises(channel.UnknownPartyError):
        reg.edge_cloud_key("ghost")


def test_bad_nonce_length_rejected():
    with pytest.raises(ValueError):
        channel.FreshnessTag(nonce=b"\x00" * 8, timestamp=0, round=0)


# -- the link ------------------------------------------------------------------


def test_a_link_rejects_a_key_that_is_not_32_bytes():
    for key in (b"", KEY[:31], KEY + b"\x00"):
        with pytest.raises(ValueError, match="key must be 32 bytes"):
            channel.Link("P", "C", key)


def test_a_link_prefixes_the_associated_data_with_its_endpoints():
    tag = _tag()
    env = channel.seal(LINK, tag, b"hello")
    aad = enc_str("P") + enc_str("C") + tag.to_bytes()
    assert ChaCha20Poly1305(KEY).decrypt(
        tag.cipher_nonce, env.ciphertext + env.auth_tag, aad
    ) == b"hello"


def test_an_envelope_opens_only_on_the_link_it_was_sealed_on():
    env = channel.seal(LINK, _tag(), b"hello")
    # the same endpoints under another key: the AEAD fails
    with pytest.raises(channel.TamperedError, match="failed authentication"):
        _open(env, link=channel.Link("P", "C", OTHER_KEY))
    env.sender, env.receiver = env.receiver, env.sender
    # endpoints swapped after sealing, under the link the envelope now names:
    # the associated data differ, so the AEAD fails
    with pytest.raises(channel.TamperedError, match="failed authentication"):
        _open(env, link=channel.Link("C", "P", KEY))
    # under the link it was sealed on, the endpoints do not match
    with pytest.raises(channel.TamperedError, match="opened on link P->C"):
        _open(env)


def test_a_warm_cache_still_rejects_an_envelope_opened_under_another_key():
    links = [channel.Link("P", "C", key) for key in (KEY, OTHER_KEY)]
    for link in links:  # each link's cipher has already sealed and opened
        env = channel.seal(link, _tag(n=1), b"warm")
        assert _open(env, link=link) == b"warm"
    env = channel.seal(links[0], _tag(n=2), b"hello")
    with pytest.raises(channel.TamperedError):
        _open(env, link=links[1])


def test_a_warm_cache_still_rejects_endpoints_swapped_after_sealing():
    links = {(s, r): channel.Link(s, r, KEY) for s, r in (("P", "C"), ("C", "P"))}
    for link in links.values():  # each link's endpoint prefix has already been used
        assert _open(channel.seal(link, _tag(n=1), b"warm"), link=link) == b"warm"
    env = channel.seal(links["P", "C"], _tag(n=2), b"hello")
    env.sender, env.receiver = env.receiver, env.sender
    with pytest.raises(channel.TamperedError):
        _open(env, link=links["C", "P"])


def test_nonce_source_keeps_the_sha256_of_sender_seed_and_counter():
    # sha256(enc_str("P") + enc_u64(1) + enc_u64(counter))[:16] for counters 0, 1, 2
    src = channel.NonceSource("P", 1)
    assert [src.next().hex() for _ in range(3)] == [
        "629e951a34bce069e968c39846505236",
        "4a7bf3b72b60fd5ebb74e271f4b7ef27",
        "0bdf116f78afe85279879f6b9b3e5bd2",
    ]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_a_tag_computes_its_cipher_nonce_once_when_first_sealed(nonce_int, ts, rnd):
    tag = _tag(nonce_int, ts, rnd)
    assert tag.to_bytes() == tag.nonce + enc_u64(ts) + enc_u64(rnd)
    assert "cipher_nonce" not in vars(tag)  # a decoded tag that is never sealed hashes nothing
    channel.seal(LINK, tag, b"x")
    cached = vars(tag)["cipher_nonce"]
    assert cached == hashlib.sha256(tag.nonce).digest()[:12]
    assert tag.cipher_nonce is cached

"""Canonical byte encoding shared by the channel, masking, and ledger layers.

Every structure that gets hashed or put on the simulated wire is serialized
through these helpers: fixed field order, length-prefixed variable fields,
big-endian integers, IEEE-754 big-endian doubles. Two runs (or two
implementations) that agree on the field values produce identical bytes and
therefore identical digests.

The module also holds the one randomness rule of a round. A draw is keyed by
a 64-bit seed from ``sub_seed``, and its stream is the SHAKE-128 (FIPS 202)
output of ``enc_u64(seed)``, read as big-endian uint64 words. From the words:

- a uniform in (0, 1] is (top 53 bits + 1)·2^-53 of one word
  (``uniforms``);
- a standard normal takes two words, word k and word d + k of a 2·d-word
  block: u1, the uniform of word k, and u2 in [0, 1), the top 53 bits of
  word d + k times 2^-53, by the Box–Muller cos branch alone,
  sqrt(-2 ln u1)·cos(2π u2) (``normals``);
- a permutation of n items is the stable argsort of n words, and the j-th of
  a run of permutations sorts words j·n .. (j + 1)·n − 1, so a shorter run is
  a prefix of a longer one (``permutations``).

Each form takes a list of seeds and draws every stream in one SHAKE pass per
seed and one stacked transform; row i equals the draw of seed i alone.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE


def enc_u32(n: int) -> bytes:
    return struct.pack(">I", n)


def enc_u64(n: int) -> bytes:
    return struct.pack(">Q", n)


def enc_bytes(b: bytes) -> bytes:
    return enc_u32(len(b)) + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def enc_vec(v: np.ndarray) -> bytes:
    """Length-prefixed big-endian float64 encoding of a 1-D vector."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {arr.shape}")
    return enc_u32(arr.size) + arr.astype(">f8").tobytes()


def dec_vec(b: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of enc_vec; returns (vector, next offset)."""
    (n,) = struct.unpack_from(">I", b, offset)
    offset += 4
    arr = np.frombuffer(b, dtype=">f8", count=n, offset=offset).astype(np.float64)
    return arr, offset + 8 * n


def canonical_hash(payload: bytes) -> bytes:
    """SHA-256 digest of already-canonical bytes."""
    return hashlib.sha256(payload).digest()


def hash_vector(v: np.ndarray) -> bytes:
    return canonical_hash(enc_vec(v))


def sub_seed(*parts) -> int:
    """A 64-bit seed derived from the ':'-joined parts: the one rule by which
    every random stream of a run is keyed."""
    h = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


_U53 = 2.0**-53  # one step of a 53-bit uniform


def _digest(seed: int, n_words: int) -> bytes:
    if not 0 <= seed < 1 << 64:
        raise ValueError("a stream seed must lie in [0, 2^64)")
    return hashlib.shake_128(enc_u64(seed)).digest(8 * n_words)


def streams(seeds, n_words: int) -> np.ndarray:
    """The first n_words words of each seed's stream: (len(seeds), n_words) uint64."""
    raw = b"".join([_digest(seed, n_words) for seed in seeds])
    return np.frombuffer(raw, dtype=">u8").reshape(len(seeds), n_words).astype(np.uint64)


def uniforms(words: np.ndarray) -> np.ndarray:
    """One uniform in (0, 1] per word: (top 53 bits + 1)·2^-53."""
    return ((words >> np.uint64(11)) + np.uint64(1)) * _U53


def normals(words: np.ndarray) -> np.ndarray:
    """Standard normals by the Box–Muller cos branch from words (..., 2, d):
    u1 from words[..., 0, :] and u2 from words[..., 1, :] -> (..., d)."""
    u1 = uniforms(words[..., 0, :])
    u2 = (words[..., 1, :] >> np.uint64(11)) * _U53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def permutations(seeds, count: int, n: int) -> np.ndarray:
    """count permutations of range(n) from each seed's stream, the j-th the
    stable argsort of words j·n .. (j + 1)·n − 1: (len(seeds), count, n)."""
    keys = streams(seeds, count * n).reshape(len(seeds), count, n)
    return np.argsort(keys, axis=2, kind="stable")

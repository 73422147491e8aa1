"""Canonical byte encoding shared by the channel, masking, and ledger layers.

Every structure that gets hashed or put on the simulated wire is serialized
through these helpers: fixed field order, length-prefixed variable fields,
big-endian integers, IEEE-754 big-endian doubles. Two runs (or two
implementations) that agree on the field values produce identical bytes and
therefore identical digests.
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


def enc_f64(x: float) -> bytes:
    return struct.pack(">d", x)


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

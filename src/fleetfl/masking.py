"""Pairwise-cancelling dynamic masks over model updates.

For each unordered participant pair (i, j) a shared pseudo-random vector is
derived from (round_seed, round, i, j); node i adds it, node j subtracts it, so
the coordinate-wise sum of all masks telescopes to zero. Mask magnitude adapts
to the per-node context strength; a shared pair uses the stricter of the two.

The pair PRG is SHAKE-128 over the pair key
``enc_u64(round_seed mod 2^64) + enc_u64(round) + enc_str(i) + enc_str(j)``,
read as 2·dim big-endian uint64 words. The top 53 bits of word k and of word
dim + k become uniforms u1 in (0, 1] and u2 in [0, 1), and the Box–Muller cos
branch alone, sqrt(-2 ln u1)·cos(2π u2), gives coordinate k of a standard
normal vector, scaled by the pair's strength.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channel import FreshnessTag
from .encoding import enc_str, enc_u64, enc_vec, hash_vector
from .models import GradientUpdate


@dataclass
class MaskVector:
    node_id: str
    round: int
    values: np.ndarray


@dataclass
class MaskedUpdate:
    node_id: str
    round: int
    payload: np.ndarray  # clipped + noised update plus mask
    n_samples: int
    freshness: FreshnessTag
    payload_hash: bytes

    def to_bytes(self) -> bytes:
        return (
            enc_str(self.node_id)
            + enc_u64(self.round)
            + enc_vec(self.payload)
            + enc_u64(self.n_samples)
            + self.freshness.to_bytes()
            + self.payload_hash
        )

    @classmethod
    def from_bytes(cls, b: bytes) -> "MaskedUpdate":
        from .encoding import dec_vec
        import struct

        (nlen,) = struct.unpack_from(">I", b, 0)
        node_id = b[4 : 4 + nlen].decode("utf-8")
        off = 4 + nlen
        (rnd,) = struct.unpack_from(">Q", b, off)
        off += 8
        payload, off = dec_vec(b, off)
        (n_samples,) = struct.unpack_from(">Q", b, off)
        off += 8
        nonce = b[off : off + 16]
        off += 16
        ts, frnd = struct.unpack_from(">QQ", b, off)
        off += 16
        digest = b[off : off + 32]
        return cls(
            node_id=node_id,
            round=rnd,
            payload=payload,
            n_samples=n_samples,
            freshness=FreshnessTag(nonce=nonce, timestamp=ts, round=frnd),
            payload_hash=digest,
        )


_U53 = 2.0**-53  # one step of a 53-bit uniform


def _pair_normals(stream: bytes, pairs: int, dim: int) -> np.ndarray:
    """Standard normal rows, one per pair, from that pair's 16·dim stream bytes."""
    words = np.frombuffer(stream, dtype=">u8").reshape(pairs, 2, dim) >> np.uint64(11)
    u1 = (words[:, 0] + np.uint64(1)) * _U53
    u2 = words[:, 1] * _U53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_masks(
    round_seed: int,
    participants: list[str],
    dim: int,
    strength: float | Mapping[str, float],
    round: int = 0,
) -> dict[str, MaskVector]:
    """Per-node masks that sum to zero across the full participant set."""
    if len(participants) == 0:
        raise ValueError("need at least one participant")
    if len(set(participants)) != len(participants):
        raise ValueError("duplicate node ids among participants")
    if dim < 1:
        raise ValueError("dim must be positive")

    if isinstance(strength, Mapping):
        s = np.array([float(strength[p]) for p in participants])
    else:
        s = np.full(len(participants), float(strength))
    if not np.all((s > 0) & np.isfinite(s)):
        raise ValueError("mask strength must be positive and finite")

    prefix = enc_u64(round_seed & 0xFFFFFFFFFFFFFFFF) + enc_u64(round)
    ids = [enc_str(p) for p in participants]
    nbytes = 16 * dim
    masks = np.zeros((len(participants), dim))
    # one node's pairs at a time: the transient rows stay (n - 1) × dim, not
    # n(n - 1)/2 × dim, whose size would show in the process's peak memory
    for i in range(len(participants) - 1):
        key = prefix + ids[i]
        stream = b"".join([hashlib.shake_128(key + b).digest(nbytes) for b in ids[i + 1 :]])
        rows = _pair_normals(stream, len(ids) - 1 - i, dim)
        rows *= np.maximum(s[i], s[i + 1 :])[:, None]
        masks[i] += rows.sum(axis=0)
        masks[i + 1 :] -= rows
    return {
        p: MaskVector(node_id=p, round=round, values=masks[k]) for k, p in enumerate(participants)
    }


def apply_mask(update: GradientUpdate, mask: MaskVector, freshness: FreshnessTag) -> MaskedUpdate:
    """Add the mask and hash the canonical payload serialization."""
    if update.grad.shape != mask.values.shape:
        raise ValueError("update/mask dimension mismatch")
    payload = update.grad + mask.values
    return MaskedUpdate(
        node_id=mask.node_id,
        round=mask.round,
        payload=payload,
        n_samples=update.n_samples,
        freshness=freshness,
        payload_hash=hash_vector(payload),
    )

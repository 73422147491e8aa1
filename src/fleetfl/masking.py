"""Pairwise-cancelling dynamic masks over model updates.

For each unordered participant pair (i, j) a shared pseudo-random vector is
derived from (round_seed, i, j); node i adds it, node j subtracts it, so the
coordinate-wise sum of all masks telescopes to zero. Mask magnitude adapts to
the per-node context strength; a shared pair uses the stricter of the two.
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


def _pair_seed(round_seed: int, rnd: int, a: str, b: str) -> np.random.Generator:
    digest = hashlib.sha256(
        enc_u64(round_seed & 0xFFFFFFFFFFFFFFFF) + enc_u64(rnd) + enc_str(a) + enc_str(b)
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


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
        s = {p: strength[p] for p in participants}
    else:
        s = dict.fromkeys(participants, float(strength))
    if any(v <= 0 for v in s.values()):
        raise ValueError("mask strength must be positive")

    masks = {p: np.zeros(dim) for p in participants}
    for i, a in enumerate(participants):
        for b in participants[i + 1 :]:
            pair_strength = max(s[a], s[b])
            s_ij = _pair_seed(round_seed, round, a, b).normal(0.0, pair_strength, size=dim)
            masks[a] += s_ij
            masks[b] -= s_ij
    return {p: MaskVector(node_id=p, round=round, values=masks[p]) for p in participants}


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

"""Pairwise-cancelling dynamic masks over model updates.

For each pair (i, j) of the round's mask graph a shared pseudo-random vector is
derived from (round_seed, round, i, j); node i adds it, node j subtracts it, so
the coordinate-wise sum of all masks telescopes to zero. Mask magnitude adapts
to the per-node context strength; a shared pair uses the stricter of the two.

The mask graph adapts to the round's threat level θ in [0, 1]. Over the roster
in participant order, with n nodes and h = max(⌈log₂ n⌉, ⌈θ·(n−1)/2⌉), nodes i
and j are paired iff their circular distance min(|i−j|, n−|i−j|) is at most h:
the circulant (Harary) graph H_{2h,n}, of degree min(2h, n−1). When 2h ≥ n−1,
which holds at θ = 1 and for every fleet of up to 7 nodes at θ = 0.1, that is
every pair (Bonawitz et al., CCS 2017). Otherwise each pair vector is also
multiplied by √((n−1)/2h), so that at equal strengths a node's mask has the
variance it would have over every pair (Bell et al., CCS 2020, show that a
graph of logarithmic degree keeps the aggregator blind).

What the sparse graph trades is the collusion threshold. H_{2h,n} is
2h-connected: an aggregator colluding with up to min(2h−1, n−2) nodes still
learns only the sum of the honest nodes, and exposing one node takes all of
its neighbours. Over every pair that threshold is n−2.

    nodes  θ     h   degree  pairs    colluders tolerated
    16     0.1   4   8       64       7   (every pair: 14)
    64     0.1   6   12      384      11  (every pair: 62)
    256    0.1   13  26      3,328    25  (every pair: 254)
    256    0.5   64  128     16,384   127
    n      1.0   -   n−1     n(n−1)/2 n−2

In this simulator every pair seed is derived from the public round seed, so
the threshold is a property of the modelled protocol, not of the simulation.

The pair PRG is SHAKE-128 over the pair key
``enc_u64(round_seed mod 2^64) + enc_u64(round) + enc_str(i) + enc_str(j)``,
read as 2·dim big-endian uint64 words. ``encoding.normals`` turns them into a
standard normal vector, coordinate k from word k and word dim + k, which is
scaled by the pair's strength.

derive_masks draws the pairs in blocks of whole nodes, in roster order, each
of at most BLOCK_PAIRS = 512 pairs or else of one node: one SHAKE pass, one
normal transform and one strength product per block. A block subtracts its
rows from the later nodes' masks in pair order, then adds each of its nodes'
own rows. Consecutive nodes of a block with equal later-neighbour counts form
a run, and a run of g nodes with c rows each is summed by one
``reshape(g, c, dim).sum(axis=1)``, which adds each node's rows as a
``sum(axis=0)`` over that node's slice does. On a sparse graph nearly every
node has h later neighbours, so a block is a few runs. Every float addition
so happens in the order of a loop over one node at a time, and the masks are
bit-identical to that loop's. The graph, its blocks and their runs depend
only on (n, h): they are built by a fleet's first call and kept in a bounded
cache. A block's transient arrays take under 1 KB a pair at dim 9, so the
peak is that of max(512, n − 1) pairs, not of every pair: at 256 nodes and
dim 9, tracemalloc stays under 1 MB at θ = 0.1 and at θ = 1, about 0.26 MB of
which is the graph's later-neighbour array.

A MaskedUpdate's bytes are its node id, its payload's ``enc_vec``, its sample
count, its freshness tag and its payload hash, and nothing else: bytes that
run past or stop short of that layout are a ValueError. ``decode_updates``
decodes a batch of them with one ``frombuffer`` over every payload;
``MaskedUpdate.from_bytes`` is its one-update form.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .channel import NONCE_SIZE, FreshnessTag
from .encoding import (
    DIGEST_SIZE, canonical_hash, enc_rows, enc_str, enc_u64, enc_vec, hash_vector, normals,
)
from .models import GradientUpdate


@dataclass
class MaskedUpdate:
    node_id: str
    payload: np.ndarray  # clipped + noised update plus mask
    n_samples: int
    freshness: FreshnessTag
    payload_hash: bytes

    def to_bytes(self) -> bytes:
        return _update_bytes(
            self.node_id, enc_vec(self.payload), self.n_samples, self.freshness, self.payload_hash
        )

    @staticmethod
    def payload_encoding(b: bytes) -> bytes:
        """The ``enc_vec`` bytes of the payload inside the update's encoding b,
        sliced out without decoding; ValueError unless the layout fills b."""
        off, n = _vector_span(b)
        return b[off : off + 4 + 8 * n]

    @classmethod
    def from_bytes(cls, b: bytes) -> "MaskedUpdate":
        """The update ``to_bytes`` wrote as b; ValueError unless its layout
        fills b exactly."""
        off, n = _vector_span(b)
        payload = np.frombuffer(b, dtype=">f8", count=n, offset=off + 4).astype(np.float64)
        return _decoded(b, off, n, payload)


_U32 = struct.Struct(">I")
# what follows the payload: n_samples, the tag's nonce, timestamp and round, the payload hash
_TAIL = struct.Struct(f">Q{NONCE_SIZE}sQQ{DIGEST_SIZE}s")


def _vector_span(b: bytes) -> tuple[int, int]:
    """(offset, coordinate count) of the payload's ``enc_vec`` inside a
    MaskedUpdate's bytes b. Raises ValueError unless the layout those counts
    give fills b exactly."""
    try:
        (nlen,) = _U32.unpack_from(b, 0)
        (n,) = _U32.unpack_from(b, 4 + nlen)
    except struct.error:
        raise ValueError(f"{len(b)} bytes stop short of a masked update's layout") from None
    size = 8 + nlen + 8 * n + _TAIL.size
    if len(b) != size:
        side = "run past" if len(b) > size else "stop short of"
        raise ValueError(f"{len(b)} bytes {side} a masked update's layout of {size}")
    return 4 + nlen, n


def _decoded(b: bytes, off: int, n: int, payload: np.ndarray) -> MaskedUpdate:
    """The update in b whose payload, decoded as given, has n coordinates at off."""
    n_samples, nonce, timestamp, rnd, digest = _TAIL.unpack_from(b, off + 4 + 8 * n)
    return MaskedUpdate(
        node_id=b[4:off].decode("utf-8"),
        payload=payload,
        n_samples=n_samples,
        freshness=FreshnessTag(nonce=nonce, timestamp=timestamp, round=rnd),
        payload_hash=digest,
    )


def decode_updates(blobs: list[bytes], senders: list[str]) -> list[MaskedUpdate]:
    """``MaskedUpdate.from_bytes`` of each of blobs, with every payload read by
    one ``frombuffer`` over their joined coordinates; each payload is its own
    slice of that array. senders only label the blobs: one whose layout does
    not fill it exactly raises ValueError naming its sender."""
    spans = []
    for b, sender in zip(blobs, senders):
        try:
            spans.append(_vector_span(b))
        except ValueError as e:
            raise ValueError(f"update from {sender}: {e}") from None
    coords = np.frombuffer(
        b"".join([b[off + 4 : off + 4 + 8 * n] for b, (off, n) in zip(blobs, spans)]), dtype=">f8"
    ).astype(np.float64)
    ends = np.cumsum([n for _, n in spans]).tolist()
    return [
        _decoded(b, off, n, coords[end - n : end])
        for b, (off, n), end in zip(blobs, spans, ends)
    ]


def _update_bytes(node_id: str, payload_encoding: bytes, n_samples: int,
                  freshness: FreshnessTag, payload_hash: bytes) -> bytes:
    """A MaskedUpdate's canonical layout, given its payload's ``enc_vec`` bytes."""
    return (
        enc_str(node_id) + payload_encoding + enc_u64(n_samples) + freshness.to_bytes()
        + payload_hash
    )


def half_degree(n: int, threat: float) -> int:
    """h = max(⌈log₂ n⌉, ⌈θ·(n−1)/2⌉): the mask graph pairs nodes within
    circular distance h, so each node has min(2h, n − 1) neighbours."""
    if not 0.0 <= threat <= 1.0:
        raise ValueError("threat must lie in [0, 1]")
    return max((n - 1).bit_length(), math.ceil(threat * (n - 1) / 2))


def mask_graph(n: int, h: int) -> list[np.ndarray]:
    """Each node's later neighbours: entry i holds, in order, the j > i within
    circular distance h of i, that is the near run i+1 .. i+h and the
    wrap-around run n−h+i .. n−1."""
    return [
        np.array([*range(i + 1, min(i + h + 1, n)), *range(max(i + h + 1, n - h + i), n)],
                 dtype=np.intp)
        for i in range(n)
    ]


BLOCK_PAIRS = 512  # pairs drawn together by derive_masks; a block holds at least one node


def _blocks(counts: list[int]):
    """(start, stop) of each run of consecutive nodes whose pair counts sum to
    at most BLOCK_PAIRS, or of one node that alone has more."""
    start = 0
    while start < len(counts):
        stop, size = start + 1, counts[start]
        while stop < len(counts) and size + counts[stop] <= BLOCK_PAIRS:
            size += counts[stop]
            stop += 1
        yield start, stop
        start = stop


class _Block(NamedTuple):
    start: int  # the block's first node
    counts: tuple[int, ...]  # each of its nodes' later-neighbour count
    later: np.ndarray  # its pairs' later nodes, in pair order (read-only)
    runs: list[tuple[int, int]]  # (nodes, count) of each run of equal counts, in order


@functools.lru_cache(maxsize=16)
def _plan(n: int, h: int, block_pairs: int) -> tuple[_Block, ...]:
    """The blocks of the mask graph of n nodes and half-degree h, each with its
    runs of consecutive nodes whose later-neighbour counts are equal. The graph
    depends on (n, h) alone, so the plan is built on first use and kept;
    block_pairs, the BLOCK_PAIRS it is split under, keys it too."""
    graph = mask_graph(n, h)[:-1]
    sizes = [len(later) for later in graph]
    later = np.concatenate(graph) if graph else np.zeros(0, dtype=np.intp)
    later.flags.writeable = False  # every later call reads the cached array
    plan, lo = [], 0
    for a, b in _blocks(sizes):
        hi = lo + sum(sizes[a:b])
        runs = [(len(list(run)), c) for c, run in itertools.groupby(sizes[a:b])]
        plan.append(_Block(a, tuple(sizes[a:b]), later[lo:hi], runs))
        lo = hi
    return tuple(plan)


def derive_masks(
    round_seed: int,
    participants: list[str],
    dim: int,
    strength: float | Mapping[str, float],
    round: int = 0,
    threat: float = 1.0,
) -> dict[str, np.ndarray]:
    """Per-node masks that sum to zero across the full participant set, drawn
    over the mask graph of the given threat level."""
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

    n = len(participants)
    h = half_degree(n, threat)
    if 2 * h < n - 1:  # a sparse graph: each node's mask keeps the variance of n - 1 pairs
        s = s * math.sqrt((n - 1) / (2 * h))
    prefix = enc_u64(round_seed & 0xFFFFFFFFFFFFFFFF) + enc_u64(round)
    ids = [enc_str(p) for p in participants]
    keys = [prefix + x for x in ids]
    nbytes = 16 * dim
    masks = np.zeros((n, dim))
    # blocks of whole nodes, at most BLOCK_PAIRS pairs each unless one node has
    # more: the transient rows stay max(BLOCK_PAIRS, n - 1) × dim, not
    # pairs × dim, whose size would show in the process's peak memory. Each
    # node's mask is its earlier neighbours' rows subtracted in roster order,
    # then its own rows summed as that loop sums them and added: the additions
    # of a loop over one node at a time, in that loop's order. A run of g nodes
    # with c rows each is summed as one (g, c, dim) array along its c axis,
    # which adds each node's rows as a sum over that node's own slice does
    for a, counts, J, runs in _plan(n, h, BLOCK_PAIRS):
        I = np.repeat(np.arange(a, a + len(counts)), counts)
        stream = b"".join([
            hashlib.shake_128(keys[i] + ids[j]).digest(nbytes)
            for i, j in zip(I.tolist(), J.tolist())
        ])
        rows = normals(np.frombuffer(stream, dtype=">u8").reshape(len(J), 2, dim))
        rows *= np.maximum(s[I], s[J])[:, None]
        np.subtract.at(masks, J, rows)
        own, o = [], 0
        for g, c in runs:
            own.append(rows[o : o + g * c].reshape(g, c, dim).sum(axis=1))
            o += g * c
        masks[a : a + len(counts)] += np.concatenate(own)
    return dict(zip(participants, masks))


def apply_mask(
    node_id: str, update: GradientUpdate, mask: np.ndarray, freshness: FreshnessTag
) -> MaskedUpdate:
    """Add the node's mask and hash the canonical payload serialization."""
    if update.grad.shape != mask.shape:
        raise ValueError("update/mask dimension mismatch")
    payload = update.grad + mask
    return MaskedUpdate(
        node_id=node_id,
        payload=payload,
        n_samples=update.n_samples,
        freshness=freshness,
        payload_hash=hash_vector(payload),
    )


def encode_updates(
    node_ids: list[str], payloads: np.ndarray, n_samples: int, tags: list[FreshnessTag]
) -> list[bytes]:
    """Each node's MaskedUpdate bytes, for its row of the stacked masked
    payloads and its tag, with the hash taken over the row's encoding: one
    ``enc_rows`` pass for the fleet. Row k's bytes equal those of
    ``apply_mask`` for node k."""
    return [
        _update_bytes(node, vec, n_samples, tag, canonical_hash(vec))
        for node, vec, tag in zip(node_ids, enc_rows(payloads), tags)
    ]

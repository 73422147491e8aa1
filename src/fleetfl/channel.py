"""Authenticated, replay-protected message envelopes between edge, aggregator, ledger.

ChaCha20-Poly1305 with pre-shared 32-byte pairwise keys; the (sender, receiver,
nonce, timestamp, round) tuple is bound as associated data, so re-routing or
reflecting an envelope fails authentication. Receivers keep a seen-nonce set
and a freshness window over the simulated clock.

Each directed link holds its key's cipher and its encoded (sender, receiver)
prefix of the associated data, both built with the link, and each tag computes
its cipher nonce once: per message only its nonce, tag and AEAD call remain.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .encoding import enc_bytes, enc_str, enc_u64

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 16


class ChannelError(Exception):
    """Base class for typed channel rejections."""


class TamperedError(ChannelError):
    """Authentication failed: wrong key, modified bits, or mismatched binding."""


class ReplayedError(ChannelError):
    """Nonce already seen by this receiver."""


class StaleError(ChannelError):
    """Timestamp outside the freshness window."""


class NonceReuseError(ChannelError):
    """Sender attempted to reuse a nonce."""


class UnknownPartyError(ChannelError):
    """No key registered for the claimed party."""


@dataclass(frozen=True)
class FreshnessTag:
    nonce: bytes  # 128-bit, unique per sender
    timestamp: int  # simulated clock tick
    round: int

    def __post_init__(self):
        if len(self.nonce) != NONCE_SIZE:
            raise ValueError("nonce must be 16 bytes")
        if self.timestamp < 0 or self.round < 0:
            raise ValueError("timestamp and round must be non-negative")

    @functools.cached_property
    def cipher_nonce(self) -> bytes:
        """The 128-bit protocol nonce compressed into the cipher's 96-bit nonce,
        so that every distinct protocol nonce yields a distinct keystream;
        computed once, by the first seal or open of the tag."""
        return hashlib.sha256(self.nonce).digest()[:12]

    def to_bytes(self) -> bytes:
        return self.nonce + struct.pack(">QQ", self.timestamp, self.round)

    @classmethod
    def from_bytes(cls, b: bytes, offset: int) -> tuple["FreshnessTag", int]:
        """The tag that to_bytes wrote at the offset, and the offset after it."""
        nonce = b[offset : offset + NONCE_SIZE]
        timestamp, rnd = struct.unpack_from(">QQ", b, offset + NONCE_SIZE)
        return cls(nonce=nonce, timestamp=timestamp, round=rnd), offset + NONCE_SIZE + 16


@dataclass
class Envelope:
    sender: str
    receiver: str
    freshness: FreshnessTag
    ciphertext: bytes
    auth_tag: bytes

    def to_bytes(self) -> bytes:
        """Canonical wire layout: fixed field order, length-prefixed, big-endian."""
        return (
            enc_str(self.sender)
            + enc_str(self.receiver)
            + self.freshness.to_bytes()
            + enc_bytes(self.ciphertext)
            + enc_bytes(self.auth_tag)
        )


def _derive_key(label: str, party: str, seed: int) -> bytes:
    return hashlib.sha256(enc_str(label) + enc_str(party) + enc_u64(seed)).digest()


@dataclass
class KeyRegistry:
    """Pre-shared pairwise keys: per-node edge<->cloud (k_pc) and cloud<->ledger (k_bc)."""

    k_pc: dict[str, bytes]
    k_bc: bytes

    @classmethod
    def generate(cls, node_ids: list[str], seed: int) -> "KeyRegistry":
        return cls(
            k_pc={n: _derive_key("k_pc", n, seed) for n in node_ids},
            k_bc=_derive_key("k_bc", "B-C", seed),
        )

    def edge_cloud_key(self, node_id: str) -> bytes:
        try:
            return self.k_pc[node_id]
        except KeyError:
            raise UnknownPartyError(f"no edge-cloud key registered for {node_id}") from None


class NonceSource:
    """Deterministic unique nonces for one sender: sha256 of the sender, the
    seed and a counter, cut to NONCE_SIZE bytes."""

    def __init__(self, sender: str, seed: int):
        self._prefix = hashlib.sha256(enc_str(sender) + enc_u64(seed))
        self._counter = 0

    def next(self) -> bytes:
        h = self._prefix.copy()
        h.update(enc_u64(self._counter))
        self._counter += 1
        return h.digest()[:NONCE_SIZE]


@dataclass(frozen=True)
class Link:
    """One directed link under its pre-shared key, with the key's cipher and the
    encoded endpoints that prefix the associated data, built once with it."""

    sender: str
    receiver: str
    key: bytes
    cipher: ChaCha20Poly1305 = field(init=False, repr=False, compare=False)
    endpoints: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.key) != KEY_SIZE:
            raise ValueError("key must be 32 bytes")
        object.__setattr__(self, "cipher", ChaCha20Poly1305(self.key))
        object.__setattr__(self, "endpoints", enc_str(self.sender) + enc_str(self.receiver))


def seal(
    link: Link,
    freshness: FreshnessTag,
    payload: bytes,
    used_nonces: set[bytes] | None = None,
) -> Envelope:
    """Authenticated encryption of payload bound to the link's endpoints and freshness."""
    if used_nonces is not None:
        if freshness.nonce in used_nonces:
            raise NonceReuseError(f"sender {link.sender} reused a nonce")
        used_nonces.add(freshness.nonce)
    blob = link.cipher.encrypt(
        freshness.cipher_nonce, payload, link.endpoints + freshness.to_bytes()
    )
    return Envelope(
        sender=link.sender,
        receiver=link.receiver,
        freshness=freshness,
        ciphertext=blob[:-TAG_SIZE],
        auth_tag=blob[-TAG_SIZE:],
    )


def open_envelope(
    link: Link,
    env: Envelope,
    window: int,
    seen: set[bytes],
    now: int,
) -> bytes:
    """Return the payload iff the envelope names the link's endpoints and the
    authentication, replay, and freshness checks pass.

    On success the nonce is added to the receiver's seen set.
    """
    if (env.sender, env.receiver) != (link.sender, link.receiver):
        raise TamperedError(
            f"envelope {env.sender}->{env.receiver} opened on link {link.sender}->{link.receiver}"
        )
    try:
        payload = link.cipher.decrypt(
            env.freshness.cipher_nonce,
            env.ciphertext + env.auth_tag,
            link.endpoints + env.freshness.to_bytes(),
        )
    except InvalidTag:
        raise TamperedError(f"envelope {env.sender}->{env.receiver} failed authentication") from None
    if env.freshness.nonce in seen:
        raise ReplayedError(f"nonce replayed on {env.sender}->{env.receiver}")
    if now - env.freshness.timestamp > window:
        raise StaleError(
            f"envelope timestamp {env.freshness.timestamp} outside window {window} at tick {now}"
        )
    seen.add(env.freshness.nonce)
    return payload

"""Hash-chained ledger with stake-weighted validator committees and contract rules.

Blocks are SHA-256 hash-chained over a canonical byte layout. Each block is
checked against the contract rules once, when it is staged: payload-hash
integrity, freshness, privacy budget, an update-norm poisoning guard and a
declared sample count. A round's staged blocks are committed as one unit: one
stake-weighted committee, drawn by keys from one ``encoding`` stream, attests
once, with keyed digests (a signature stand-in), to the closing block's core.
That core holds its predecessor's hash, so the one attestation binds the whole
round and everything before it. If attesting stake falls short of the quorum
fraction of the committee, no block of the unit is appended.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .channel import FreshnessTag
from .encoding import (
    ZERO_DIGEST,
    canonical_hash,
    enc_str,
    enc_u32,
    enc_u64,
    streams,
    uniforms,
)
from .privacy import BudgetLedger

BLOCK_KINDS = ("genesis", "local_update", "global_model", "feedback")
QUORUM_FRACTION = 2.0 / 3.0  # the share of a committee's stake that must attest validly
# round, then the freshness tag (16-byte nonce, timestamp, round), epsilon, model version
_META_FIELDS = struct.Struct(">Q16sQQdQ")


class ContractRejected(RuntimeError):
    def __init__(self, reasons: list[str]):
        super().__init__(f"contract rejected update: {reasons}")
        self.reasons = reasons


class QuorumNotReached(RuntimeError):
    """Attesting stake fell below the quorum fraction; distinct from contract failure."""


@dataclass
class BlockMeta:
    kind: str
    actor_id: str  # node id or aggregator id
    round: int
    freshness: FreshnessTag
    epsilon_charged: float
    model_version: int

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")

    def to_bytes(self) -> bytes:
        f = self.freshness
        return enc_str(self.kind) + enc_str(self.actor_id) + _META_FIELDS.pack(
            self.round, f.nonce, f.timestamp, f.round, self.epsilon_charged, self.model_version
        )


@dataclass
class LedgerBlock:
    index: int
    prev_hash: bytes
    payload_hash: bytes
    meta: BlockMeta
    attestations: list[tuple[str, bytes]]
    block_hash: bytes


@dataclass
class ValidatorSet:
    stakes: dict[str, float]
    secret_seed: int = 0
    byzantine_refuse: set[str] = field(default_factory=set)
    byzantine_false: set[str] = field(default_factory=set)

    def __post_init__(self):
        if not self.stakes:
            raise ValueError("validator set is empty")
        if any(s < 0 for s in self.stakes.values()) or sum(self.stakes.values()) <= 0:
            raise ValueError("stakes must be non-negative with positive total")

    def secret(self, validator_id: str) -> bytes:
        return hashlib.sha256(
            enc_str("validator-secret") + enc_str(validator_id) + enc_u64(self.secret_seed)
        ).digest()


@dataclass
class ContractRules:
    freshness_window: int
    max_update_norm: float
    max_declared_samples: int | None = None

    def __post_init__(self):
        if self.freshness_window <= 0 or self.max_update_norm <= 0:
            raise ValueError("contract rule bounds must be positive")


@dataclass
class ValidationState:
    """Mutable admission-control state owned by the orchestrator."""

    seen_nonces: set[bytes]
    budget: BudgetLedger
    now: int
    payload: bytes | None = None  # raw bytes the payload_hash claims to cover
    update_norm: float | None = None
    n_samples: int | None = None


@dataclass
class ValidationResult:
    accepted: bool
    reasons: list[str] = field(default_factory=list)


def _attestation_bytes(attestations: list[tuple[str, bytes]]) -> bytes:
    out = enc_u32(len(attestations))
    for vid, digest in attestations:
        out += enc_str(vid) + digest
    return out


def _preimage_core(index: int, prev_hash: bytes, payload_hash: bytes, meta: BlockMeta) -> bytes:
    return enc_u64(index) + prev_hash + payload_hash + meta.to_bytes()


def compute_block_hash(
    index: int,
    prev_hash: bytes,
    payload_hash: bytes,
    meta: BlockMeta,
    attestations: list[tuple[str, bytes]],
) -> bytes:
    return canonical_hash(
        _preimage_core(index, prev_hash, payload_hash, meta) + _attestation_bytes(attestations)
    )


def attestation_digest(validator_id: str, preimage_core: bytes, secret: bytes) -> bytes:
    return canonical_hash(enc_str(validator_id) + preimage_core + secret)


def select_committee(vset: ValidatorSet, round_seed: int, committee_size: int) -> list[str]:
    """Stake-weighted sampling without replacement by keys (Efraimidis &
    Spirakis, IPL 2006): the v-th validator in id order takes the uniform u_v
    of word v of round_seed's stream and the key ln(u_v)/stake_v, and the
    committee is the committee_size largest keys, largest first. That order is
    successive sampling: each next member is drawn with probability
    proportional to its stake among those left. Zero-stake validators come
    after every staked one, largest u first."""
    ids = sorted(vset.stakes)
    if committee_size < 1 or committee_size > len(ids):
        raise ValueError("committee_size out of range")
    stakes = np.array([vset.stakes[v] for v in ids], dtype=np.float64)
    keys = np.log(uniforms(streams([round_seed & 0xFFFFFFFFFFFFFFFF], len(ids))[0]))
    staked = stakes > 0
    # a subnormal stake's key overflows to -inf, which sorts after every finite key
    with np.errstate(over="ignore"):
        keys[staked] /= stakes[staked]
    order = np.lexsort((-keys, ~staked))
    return [ids[i] for i in order[:committee_size]]


def contract_validate(
    meta: BlockMeta,
    payload_hash: bytes,
    rules: ContractRules,
    state: ValidationState,
) -> ValidationResult:
    """Deterministic admission predicates; every violated rule is reported."""
    reasons = []
    if state.payload is not None and canonical_hash(state.payload) != payload_hash:
        reasons.append("hash_mismatch")
    if meta.freshness.nonce in state.seen_nonces:
        reasons.append("replay")
    if state.now - meta.freshness.timestamp > rules.freshness_window:
        reasons.append("stale")
    if meta.epsilon_charged > 0 and not state.budget.can_charge(
        meta.actor_id, meta.epsilon_charged
    ):
        reasons.append("budget_exceeded")
    if state.update_norm is not None and state.update_norm > rules.max_update_norm:
        reasons.append("norm_bound")
    if (
        rules.max_declared_samples is not None
        and state.n_samples is not None
        and state.n_samples > rules.max_declared_samples
    ):
        reasons.append("declared_samples")
    return ValidationResult(accepted=not reasons, reasons=reasons)


def genesis_block(payload_hash: bytes) -> LedgerBlock:
    meta = BlockMeta(
        kind="genesis",
        actor_id="genesis",
        round=0,
        freshness=FreshnessTag(nonce=b"\x00" * 16, timestamp=0, round=0),
        epsilon_charged=0.0,
        model_version=0,
    )
    block_hash = compute_block_hash(0, ZERO_DIGEST, payload_hash, meta, [])
    return LedgerBlock(
        index=0,
        prev_hash=ZERO_DIGEST,
        payload_hash=payload_hash,
        meta=meta,
        attestations=[],
        block_hash=block_hash,
    )


def _attest(vset: ValidatorSet, committee: list[str], core: bytes) -> list[tuple[str, bytes]]:
    """The committee's attestations to one block core; raises QuorumNotReached
    unless valid attesting stake reaches the quorum fraction of its stake."""
    attestations: list[tuple[str, bytes]] = []
    valid_stake = 0
    for vid in committee:
        if vid in vset.byzantine_refuse:
            continue
        expected = attestation_digest(vid, core, vset.secret(vid))
        digest = expected
        if vid in vset.byzantine_false:
            digest = canonical_hash(b"false-attestation" + expected)
        attestations.append((vid, digest))
        if digest == expected:
            valid_stake += vset.stakes[vid]

    committee_stake = sum(vset.stakes[v] for v in committee)
    if valid_stake + 1e-12 < QUORUM_FRACTION * committee_stake:
        raise QuorumNotReached(
            f"attesting stake {valid_stake} < quorum "
            f"{QUORUM_FRACTION} x {committee_stake}"
        )
    return attestations


def stage_block(
    pending: list[tuple[bytes, BlockMeta]],
    payload_hash: bytes,
    meta: BlockMeta,
    rules: ContractRules,
    state: ValidationState,
) -> ValidationResult:
    """Check one block against the contract; an accepted block joins the
    pending list and its nonce is recorded as seen. The block's only check."""
    result = contract_validate(meta, payload_hash, rules, state)
    if result.accepted:
        state.seen_nonces.add(meta.freshness.nonce)
        pending.append((payload_hash, meta))
    return result


def commit_blocks(
    chain: list[LedgerBlock],
    pending: list[tuple[bytes, BlockMeta]],
    vset: ValidatorSet,
    committee_seed: int,
    committee_size: int | None = None,
) -> list[LedgerBlock]:
    """Append the staged blocks as one unit, attested once at the closing block.

    One committee, drawn by committee_seed, attests to the closing block's
    core (index, prev hash, payload hash and meta); every other block carries
    no attestation. Raises QuorumNotReached with the chain unchanged.
    """
    if not chain:
        raise ValueError("chain must start from a genesis block")
    if not pending:
        raise ValueError("no staged block to commit")
    size = committee_size if committee_size is not None else min(5, len(vset.stakes))
    committee = select_committee(vset, committee_seed, size)

    blocks: list[LedgerBlock] = []
    prev_hash = chain[-1].block_hash
    for k, (payload_hash, meta) in enumerate(pending):
        index = len(chain) + k
        attestations: list[tuple[str, bytes]] = []
        if k == len(pending) - 1:
            core = _preimage_core(index, prev_hash, payload_hash, meta)
            attestations = _attest(vset, committee, core)
        block_hash = compute_block_hash(index, prev_hash, payload_hash, meta, attestations)
        blocks.append(LedgerBlock(index, prev_hash, payload_hash, meta, attestations, block_hash))
        prev_hash = block_hash
    chain.extend(blocks)
    return blocks


def append_block(
    chain: list[LedgerBlock],
    payload_hash: bytes,
    meta: BlockMeta,
    vset: ValidatorSet,
    rules: ContractRules,
    state: ValidationState,
    committee_seed: int,
    committee_size: int | None = None,
) -> LedgerBlock:
    """Stage one block and commit it alone: the one-block case of a round
    commit, so its own committee attests to it.

    Raises ContractRejected or QuorumNotReached, with the chain unchanged; the
    nonce of a block that passed the contract stays recorded as seen.
    """
    pending: list[tuple[bytes, BlockMeta]] = []
    result = stage_block(pending, payload_hash, meta, rules, state)
    if not result.accepted:
        raise ContractRejected(result.reasons)
    [block] = commit_blocks(chain, pending, vset, committee_seed, committee_size)
    return block


def verify_chain(chain: list[LedgerBlock]) -> int | None:
    """Recompute every index, prev-hash link and block hash; return the first
    bad index, or None. A chain that does not open with a genesis block, or
    holds no block at all, is bad at index 0. Attestation digests and quorum
    are not checked."""
    if not chain or chain[0].meta.kind != "genesis":
        return 0
    for k, block in enumerate(chain):
        if block.index != k:
            return k
        expected_prev = ZERO_DIGEST if k == 0 else chain[k - 1].block_hash
        if block.prev_hash != expected_prev:
            return k
        recomputed = compute_block_hash(
            block.index, block.prev_hash, block.payload_hash, block.meta, block.attestations
        )
        if recomputed != block.block_hash:
            return k
    return None


# One block of json.dumps(records, sort_keys=True, indent=0), the chain.json layout
_BLOCK_JSON = (
    '{\n"attestations": %s,\n"block_hash": "%s",\n"index": %d,\n"meta": {\n'
    '"actor_id": %s,\n"epsilon_charged": %s,\n"freshness_round": %d,\n"kind": %s,\n'
    '"model_version": %d,\n"nonce": "%s",\n"round": %d,\n"timestamp": %d\n},\n'
    '"payload_hash": "%s",\n"prev_hash": "%s"\n}'
)


def export_chain(chain: list[LedgerBlock]) -> str:
    """JSON array of blocks with hex digests, byte for byte as json.dumps with
    sort_keys=True and indent=0 writes it; read from the live blocks each call."""
    out = []
    for b in chain:
        m, f = b.meta, b.meta.freshness
        eps = m.epsilon_charged  # json's number rule: float repr unless int, inf or nan
        finite = isinstance(eps, float) and math.isfinite(eps)
        att = ",\n".join('[\n%s,\n"%s"\n]' % (_json_str(v), d.hex()) for v, d in b.attestations)
        out.append(_BLOCK_JSON % (
            f"[\n{att}\n]" if b.attestations else "[]", b.block_hash.hex(), b.index,
            _json_str(m.actor_id), float.__repr__(eps) if finite else json.dumps(eps), f.round,
            _json_str(m.kind), m.model_version, f.nonce.hex(), m.round, f.timestamp,
            b.payload_hash.hex(), b.prev_hash.hex(),
        ))
    return "[\n" + ",\n".join(out) + "\n]" if out else "[]"


def import_chain(text: str) -> list[LedgerBlock]:
    """Parse export_chain's JSON; ValueError("malformed chain: ...") for any
    record that does not have its shape or does not encode."""
    try:
        records = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"malformed chain: not JSON: {exc}") from None
    if not isinstance(records, list):
        raise ValueError("malformed chain: expected a JSON array of blocks")
    chain = []
    for i, rec in enumerate(records):
        try:
            m = rec["meta"]
            numbers = (rec["index"], m["round"], m["timestamp"], m["freshness_round"],
                       m["model_version"], m["epsilon_charged"])
            if any(isinstance(x, bool) for x in numbers):  # enc_u64(True) packs as 1
                raise TypeError("a JSON boolean is not a number")
            meta = BlockMeta(
                kind=m["kind"],
                actor_id=m["actor_id"],
                round=m["round"],
                freshness=FreshnessTag(
                    nonce=bytes.fromhex(m["nonce"]),
                    timestamp=m["timestamp"],
                    round=m["freshness_round"],
                ),
                epsilon_charged=m["epsilon_charged"],
                model_version=m["model_version"],
            )
            block = LedgerBlock(
                index=rec["index"],
                prev_hash=bytes.fromhex(rec["prev_hash"]),
                payload_hash=bytes.fromhex(rec["payload_hash"]),
                meta=meta,
                attestations=[(vid, bytes.fromhex(d)) for vid, d in rec["attestations"]],
                block_hash=bytes.fromhex(rec["block_hash"]),
            )
            # an ill-typed or out-of-range field fails here, not later in verify_chain
            compute_block_hash(block.index, block.prev_hash, block.payload_hash, meta,
                               block.attestations)
        except (KeyError, TypeError, ValueError, AttributeError, struct.error) as exc:
            raise ValueError(f"malformed chain: block record {i}: {exc!r}") from None
        chain.append(block)
    return chain

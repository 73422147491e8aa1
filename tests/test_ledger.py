"""Hash-chained ledger: committees, contract rules, quorum, tamper evidence."""

import collections
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from conftest import make_cfg, ref_words
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetfl import ledger
from fleetfl.channel import FreshnessTag
from fleetfl.encoding import ZERO_DIGEST, canonical_hash, enc_str, enc_u64
from fleetfl.orchestrator import Simulator
from fleetfl.privacy import BudgetLedger

RULES = ledger.ContractRules(freshness_window=100, max_update_norm=10.0)


def _vset(**kw):
    return ledger.ValidatorSet(stakes={"A": 1.0, "B": 1.0, "C": 2.0}, **kw)


def _meta(nonce_int=1, ts=1, kind="local_update", actor="node-0", eps=0.0, version=1, rnd=0):
    return ledger.BlockMeta(
        kind=kind,
        actor_id=actor,
        round=rnd,
        freshness=FreshnessTag(nonce=nonce_int.to_bytes(16, "big"), timestamp=ts, round=rnd),
        epsilon_charged=eps,
        model_version=version,
    )


def _state(now=1, seen=None, budget=None, payload=None, norm=None, n=None):
    return ledger.ValidationState(
        seen_nonces=seen if seen is not None else set(),
        budget=budget or BudgetLedger(budget_cap=20.0),
        now=now,
        payload=payload,
        update_norm=norm,
        n_samples=n,
    )


def _build_chain(n_blocks, vset=None, seed_base=0):
    vset = vset or _vset()
    chain = [ledger.genesis_block(canonical_hash(b"genesis-model"))]
    state = _state(now=1)
    for i in range(1, n_blocks):
        kind = ("local_update", "global_model", "feedback")[i % 3]
        payload = f"payload-{i}".encode()
        ledger.append_block(
            chain,
            canonical_hash(payload),
            _meta(nonce_int=i, ts=1, kind=kind, actor=f"actor-{i % 4}", version=i, rnd=i // 3),
            vset,
            RULES,
            dataclasses.replace(state, payload=payload),
            committee_seed=seed_base + i,
        )
    return chain


def test_single_validator_always_selected():
    vset = ledger.ValidatorSet(stakes={"solo": 3.0})
    for seed in range(20):
        assert ledger.select_committee(vset, seed, 1) == ["solo"]


def test_zero_stake_validator_never_selected():
    vset = ledger.ValidatorSet(stakes={"A": 1.0, "B": 0.0})
    for seed in range(200):
        assert ledger.select_committee(vset, seed, 1) == ["A"]


def test_committee_is_deterministic_and_without_replacement():
    vset = _vset()
    a = ledger.select_committee(vset, 99, 3)
    b = ledger.select_committee(vset, 99, 3)
    assert a == b
    assert sorted(a) == ["A", "B", "C"]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text("abcdef", min_size=1, max_size=3),
                       st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5]), min_size=1, max_size=6)
       .filter(lambda stakes: sum(stakes.values()) > 0),
       st.integers(0, 2**64 - 1), st.data())
def test_committee_is_the_largest_stake_weighted_keys(stakes, seed, data):
    # validator v (in id order) keys ln(u_v)/stake_v on the (0, 1] uniform of
    # word v of the seed's stream; zero stakes follow, largest u first
    ids = sorted(stakes)
    u = [((w >> 11) + 1) * 2.0**-53 for w in ref_words(seed, len(ids))]
    def key(v):
        stake = stakes[ids[v]]
        return (1, -u[v]) if stake == 0 else (0, -math.log(u[v]) / stake)

    order = [ids[v] for v in sorted(range(len(ids)), key=key)]
    size = data.draw(st.integers(1, len(ids)))
    assert ledger.select_committee(ledger.ValidatorSet(stakes=stakes), seed, size) == order[:size]


def test_committee_pairs_follow_successive_stake_weighted_sampling():
    # exact successive sampling of 2 from stakes {A: 1, B: 1, C: 2}: the first
    # member with probability stake/4, the second stake/(4 - first's stake)
    vset = _vset()
    n = 20_000
    counts = collections.Counter(tuple(ledger.select_committee(vset, seed, 2))
                                 for seed in range(n))
    expected = {("C", "A"): 1 / 4, ("C", "B"): 1 / 4, ("A", "C"): 1 / 6, ("B", "C"): 1 / 6,
                ("A", "B"): 1 / 12, ("B", "A"): 1 / 12}
    assert set(counts) == set(expected)
    for pair, p in expected.items():
        assert abs(counts[pair] / n - p) < 0.015, (pair, counts[pair] / n)


def test_zero_stake_validators_are_drawn_last_and_uniformly():
    vset = ledger.ValidatorSet(stakes={"A": 1.0, "B": 3.0, "X": 0.0, "Y": 0.0, "Z": 0.0})
    n = 12_000
    tails = collections.Counter()
    for seed in range(n):
        committee = ledger.select_committee(vset, seed, 5)
        assert sorted(committee[:2]) == ["A", "B"]
        tails[tuple(committee[2:])] += 1
    assert len(tails) == 6
    for tail, count in tails.items():
        assert abs(count / n - 1 / 6) < 0.015, (tail, count / n)


def test_a_subnormal_stake_is_drawn_after_every_normal_one():
    # ln(u)/5e-324 overflows to -inf for every u < 1
    vset = ledger.ValidatorSet(stakes={"A": 5e-324, "B": 1.0})
    assert all(ledger.select_committee(vset, seed, 2) == ["B", "A"] for seed in range(50))


def test_committee_size_out_of_range():
    with pytest.raises(ValueError):
        ledger.select_committee(_vset(), 1, 4)


def test_empty_validator_set_rejected():
    with pytest.raises(ValueError):
        ledger.ValidatorSet(stakes={})


def test_contract_accepts_clean_update():
    payload = b"fine"
    result = ledger.contract_validate(
        _meta(), canonical_hash(payload), RULES, _state(payload=payload, norm=1.0, n=10)
    )
    assert result.accepted and result.reasons == []


def test_contract_rejects_replayed_nonce():
    meta = _meta(nonce_int=5)
    result = ledger.contract_validate(
        meta, canonical_hash(b"x"), RULES, _state(seen={meta.freshness.nonce}, payload=b"x")
    )
    assert not result.accepted and result.reasons == ["replay"]


def test_contract_rejects_stale_timestamp():
    result = ledger.contract_validate(
        _meta(ts=1), canonical_hash(b"x"), RULES, _state(now=500, payload=b"x")
    )
    assert result.reasons == ["stale"]


def test_contract_rejects_oversized_norm():
    result = ledger.contract_validate(
        _meta(), canonical_hash(b"x"), RULES, _state(payload=b"x", norm=10 * RULES.max_update_norm)
    )
    assert result.reasons == ["norm_bound"]


def test_contract_rejects_budget_overrun():
    budget = BudgetLedger(budget_cap=20.0, spent={"node-0": 19.5})
    result = ledger.contract_validate(
        _meta(eps=1.0), canonical_hash(b"x"), RULES, _state(budget=budget, payload=b"x")
    )
    assert result.reasons == ["budget_exceeded"]


def test_contract_rejects_hash_mismatch():
    result = ledger.contract_validate(
        _meta(), canonical_hash(b"claimed"), RULES, _state(payload=b"actual")
    )
    assert result.reasons == ["hash_mismatch"]


def test_contract_reports_every_violated_rule():
    meta = _meta(nonce_int=5, ts=1)
    state = _state(
        now=500, seen={meta.freshness.nonce}, payload=b"actual", norm=1e6
    )
    result = ledger.contract_validate(meta, canonical_hash(b"claimed"), RULES, state)
    assert set(result.reasons) == {"hash_mismatch", "replay", "stale", "norm_bound"}


def test_append_extends_chain_and_links_hashes():
    chain = _build_chain(3)
    assert len(chain) == 3
    assert chain[1].prev_hash == chain[0].block_hash
    assert chain[2].prev_hash == chain[1].block_hash
    assert ledger.verify_chain(chain) is None


def test_append_rejected_update_raises_with_reasons():
    chain = [ledger.genesis_block(canonical_hash(b"g"))]
    with pytest.raises(ledger.ContractRejected) as exc:
        ledger.append_block(
            chain, canonical_hash(b"x"), _meta(), _vset(), RULES,
            _state(payload=b"not-x"), committee_seed=0,
        )
    assert "hash_mismatch" in exc.value.reasons
    assert len(chain) == 1


def test_quorum_failure_is_distinct_from_contract_failure():
    vset = ledger.ValidatorSet(
        stakes={"A": 1.0, "B": 1.0, "C": 1.0}, byzantine_refuse={"A", "B"}
    )
    chain = [ledger.genesis_block(canonical_hash(b"g"))]
    with pytest.raises(ledger.QuorumNotReached):
        ledger.append_block(
            chain, canonical_hash(b"x"), _meta(), vset, RULES,
            _state(payload=b"x"), committee_seed=0, committee_size=3,
        )
    assert len(chain) == 1


def test_false_attestations_do_not_count_toward_quorum():
    vset = ledger.ValidatorSet(
        stakes={"A": 1.0, "B": 1.0, "C": 1.0}, byzantine_false={"A", "B"}
    )
    chain = [ledger.genesis_block(canonical_hash(b"g"))]
    with pytest.raises(ledger.QuorumNotReached):
        ledger.append_block(
            chain, canonical_hash(b"x"), _meta(), vset, RULES,
            _state(payload=b"x"), committee_seed=0, committee_size=3,
        )


def test_one_byzantine_false_attester_tolerated():
    vset = ledger.ValidatorSet(stakes={"A": 1.0, "B": 1.0, "C": 1.0}, byzantine_false={"A"})
    chain = [ledger.genesis_block(canonical_hash(b"g"))]
    block = ledger.append_block(
        chain, canonical_hash(b"x"), _meta(), vset, RULES,
        _state(payload=b"x"), committee_seed=0, committee_size=3,
    )
    assert len(chain) == 2
    assert ledger.verify_chain(chain) is None
    assert len(block.attestations) == 3


def _pending(n):
    return [(canonical_hash(f"p-{i}".encode()), _meta(nonce_int=i, version=i)) for i in range(n)]


def test_commit_attests_only_the_closing_block():
    vset = _vset()
    chain = [ledger.genesis_block(canonical_hash(b"g"))]
    blocks = ledger.commit_blocks(chain, _pending(4), vset, committee_seed=3)
    assert chain[1:] == blocks and ledger.verify_chain(chain) is None
    assert [len(b.attestations) for b in blocks] == [0, 0, 0, 3]
    closing = blocks[-1]
    core = ledger._preimage_core(closing.index, closing.prev_hash, closing.payload_hash,
                                 closing.meta)
    assert closing.attestations == [
        (vid, ledger.attestation_digest(vid, core, vset.secret(vid)))
        for vid in ledger.select_committee(vset, 3, 3)
    ]


def test_commit_without_quorum_appends_nothing():
    vset = ledger.ValidatorSet(stakes={"A": 1.0, "B": 1.0, "C": 1.0}, byzantine_refuse={"A", "B"})
    chain = [ledger.genesis_block(canonical_hash(b"g"))]
    with pytest.raises(ledger.QuorumNotReached):
        ledger.commit_blocks(chain, _pending(3), vset, committee_seed=0, committee_size=3)
    assert len(chain) == 1


def test_stage_checks_once_and_keeps_only_accepted_blocks():
    pending, state = [], _state(payload=b"x")
    meta = _meta(nonce_int=9)
    assert ledger.stage_block(pending, canonical_hash(b"x"), meta, RULES, state).accepted
    assert pending == [(canonical_hash(b"x"), meta)]
    assert meta.freshness.nonce in state.seen_nonces
    replayed = ledger.stage_block(pending, canonical_hash(b"x"), meta, RULES, state)
    assert replayed.reasons == ["replay"] and len(pending) == 1


def test_verify_untampered_100_block_chain():
    chain = _build_chain(100)
    assert ledger.verify_chain(chain) is None


def test_verify_genesis_only_chain():
    assert ledger.verify_chain([ledger.genesis_block(canonical_hash(b"g"))]) is None


def test_an_empty_chain_is_bad_at_index_0():
    assert ledger.verify_chain([]) == 0


def test_a_chain_that_does_not_open_with_genesis_is_bad_at_index_0():
    # a local-update block at index 0, linked to the zero digest and hashed
    # consistently: only its kind says it is not the chain's origin
    meta, payload_hash = _meta(), canonical_hash(b"x")
    head = ledger.LedgerBlock(
        index=0, prev_hash=ZERO_DIGEST, payload_hash=payload_hash, meta=meta, attestations=[],
        block_hash=ledger.compute_block_hash(0, ZERO_DIGEST, payload_hash, meta, []),
    )
    assert ledger.verify_chain([head]) == 0
    # the same with a well-formed chain behind it
    tail = _build_chain(3)[1:]
    assert ledger.verify_chain([head, *tail]) == 0


def test_meta_bit_flip_in_block_17_reports_index_17():
    chain = _build_chain(30)
    for bit in range(8):
        mutated = _build_chain(30)
        b = mutated[17]
        b.meta = dataclasses.replace(b.meta, round=b.meta.round ^ (1 << bit))
        assert ledger.verify_chain(mutated) == 17


def test_export_import_round_trip():
    chain = _build_chain(8)
    text = ledger.export_chain(chain)
    back = ledger.import_chain(text)
    assert ledger.verify_chain(back) is None
    assert [b.block_hash for b in back] == [b.block_hash for b in chain]
    assert back[3].meta == chain[3].meta


def test_import_rejects_text_that_is_not_json():
    text = ledger.export_chain(_build_chain(3))
    with pytest.raises(ValueError, match="malformed chain: not JSON: "):
        ledger.import_chain(text[: len(text) // 2])


def _reference_export_chain(chain):
    """The dict-building exporter: json.dumps(records, sort_keys=True, indent=0)."""
    out = []
    for b in chain:
        out.append(
            {
                "index": b.index,
                "prev_hash": b.prev_hash.hex(),
                "payload_hash": b.payload_hash.hex(),
                "meta": {
                    "kind": b.meta.kind,
                    "actor_id": b.meta.actor_id,
                    "round": b.meta.round,
                    "nonce": b.meta.freshness.nonce.hex(),
                    "timestamp": b.meta.freshness.timestamp,
                    "freshness_round": b.meta.freshness.round,
                    "epsilon_charged": b.meta.epsilon_charged,
                    "model_version": b.meta.model_version,
                },
                "attestations": [[vid, d.hex()] for vid, d in b.attestations],
                "block_hash": b.block_hash.hex(),
            }
        )
    return json.dumps(out, sort_keys=True, indent=0)


U64 = st.integers(0, 2**64 - 1)
TEXT = st.text(st.characters(exclude_categories=("Cs",)))  # json.dumps output is never a surrogate
HEX32 = st.binary(min_size=32, max_size=32).map(bytes.hex)
# every branch of json's number rule: float repr, signed zero, subnormal, the
# largest finite magnitudes, Infinity/-Infinity/NaN and an int
SPECIAL_EPS = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0, 2**63]
EPSILON = st.one_of(st.sampled_from(SPECIAL_EPS), st.floats(), st.integers(-(2**63), 2**63))


def _record(eps, actor="a\"b\\c\n\x00\u00e9\u65e5\U0001f600", attestations=2):
    return {
        "index": 1, "prev_hash": "00" * 32, "payload_hash": "11" * 32, "block_hash": "22" * 32,
        "meta": {"kind": "local_update", "actor_id": actor, "round": 2**64 - 1,
                 "nonce": "33" * 16, "timestamp": 0, "freshness_round": 7,
                 "epsilon_charged": eps, "model_version": 3},
        "attestations": [[actor + str(i), "44" * 32] for i in range(attestations)],
    }


RECORDS = st.lists(
    st.fixed_dictionaries({
        "index": U64, "prev_hash": HEX32, "payload_hash": HEX32, "block_hash": HEX32,
        "meta": st.fixed_dictionaries({
            "kind": st.sampled_from(ledger.BLOCK_KINDS), "actor_id": TEXT, "round": U64,
            "nonce": st.binary(min_size=16, max_size=16).map(bytes.hex), "timestamp": U64,
            "freshness_round": U64, "epsilon_charged": EPSILON, "model_version": U64,
        }),
        "attestations": st.lists(st.tuples(TEXT, HEX32), max_size=5),
    }),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(RECORDS)
@example([])
@example([_record(eps, attestations=k % 2) for k, eps in enumerate(SPECIAL_EPS)])
def test_export_matches_the_dict_building_reference(records):
    chain = ledger.import_chain(json.dumps(records))
    assert ledger.export_chain(chain) == _reference_export_chain(chain)


def _reference_meta_bytes(meta):
    return (
        enc_str(meta.kind)
        + enc_str(meta.actor_id)
        + enc_u64(meta.round)
        + meta.freshness.to_bytes()
        + struct.pack(">d", meta.epsilon_charged)
        + enc_u64(meta.model_version)
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ledger.BLOCK_KINDS), TEXT, U64, st.binary(min_size=16, max_size=16),
       U64, U64, EPSILON, U64)
def test_meta_bytes_match_the_field_by_field_encoding(kind, actor, rnd, nonce, ts, f_rnd, eps,
                                                      version):
    meta = ledger.BlockMeta(kind, actor, rnd, FreshnessTag(nonce, ts, f_rnd), eps, version)
    assert meta.to_bytes() == _reference_meta_bytes(meta)


@pytest.mark.parametrize("field, value", [
    *[(f, v) for f in ("round", "model_version") for v in (-1, 2**64, 1.5)],
    # a tag's negative timestamp or round is refused when the tag is built
    *[(f, v) for f in ("timestamp", "freshness_round") for v in (2**64, 1.5)],
    ("epsilon_charged", "x"),
])
def test_meta_bytes_reject_what_the_field_by_field_encoding_rejects(field, value):
    meta = _meta()
    if field in ("timestamp", "freshness_round"):
        tag_field = field.removeprefix("freshness_")
        meta.freshness = dataclasses.replace(meta.freshness, **{tag_field: value})
    else:
        setattr(meta, field, value)
    with pytest.raises(struct.error):
        _reference_meta_bytes(meta)
    with pytest.raises(struct.error):
        meta.to_bytes()


def test_export_and_verify_read_blocks_mutated_in_place():
    sim = Simulator(make_cfg(rounds=1))
    sim.run()
    chain = sim.chain
    k = next(i for i, b in enumerate(chain) if i and b.attestations)
    ledger.export_chain(chain)
    assert ledger.verify_chain(chain) is None
    chain[k].meta.round += 1
    vid, digest = chain[k].attestations[0]
    chain[k].attestations[0] = (vid, bytes(len(digest)))
    chain[k].attestations.append(("intruder", digest))
    rec = json.loads(ledger.export_chain(chain))[k]
    assert rec["meta"]["round"] == chain[k].meta.round
    assert rec["attestations"][0] == [vid, "00" * len(digest)]
    assert rec["attestations"][-1] == ["intruder", digest.hex()]
    assert ledger.verify_chain(ledger.import_chain(ledger.export_chain(chain))) == k


@pytest.mark.parametrize("field, value", [
    ("round", "x"), ("round", -1), ("actor_id", 5),
    # a JSON boolean in a numeric field would encode as 0 or 1
    ("index", True), ("round", False), ("timestamp", True), ("freshness_round", True),
    ("model_version", True), ("epsilon_charged", True),
])
def test_import_rejects_a_record_that_does_not_encode(field, value):
    recs = json.loads(ledger.export_chain(_build_chain(3)))
    # index is the one top-level field named here; the rest are meta fields
    (recs[1] if field in recs[1] else recs[1]["meta"])[field] = value
    with pytest.raises(ValueError, match="malformed chain: block record 1"):
        ledger.import_chain(json.dumps(recs))


def test_admission_soundness_post_hoc():
    # every appended block still satisfies the contract predicates it was
    # admitted under (re-checked against a fresh state with its own nonce unseen)
    chain = _build_chain(20)
    for b in chain[1:]:
        result = ledger.contract_validate(
            b.meta, b.payload_hash, RULES, _state(now=b.meta.freshness.timestamp)
        )
        assert result.accepted

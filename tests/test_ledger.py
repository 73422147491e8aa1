"""Hash-chained ledger: committees, contract rules, quorum, tamper evidence."""

import dataclasses
import json

import numpy as np
import pytest

from fleetfl import ledger
from fleetfl.channel import FreshnessTag
from fleetfl.encoding import ZERO_DIGEST, canonical_hash
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

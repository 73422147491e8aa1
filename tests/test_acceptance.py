"""Acceptance gate: one test per release criterion, each at its stated tolerance.

Every test here checks an end-to-end guarantee against an independent oracle
(hand arithmetic, finite differences, Monte Carlo statistics, or exhaustive
enumeration). A pass/fail line per criterion is emitted by the conftest hook.
"""

import copy
import dataclasses
import math
import struct

import numpy as np
import pytest
from conftest import make_cfg

from fleetfl import (
    aggregation,
    attacks,
    config,
    feedback,
    ledger,
    masking,
    models,
    orchestrator,
    privacy,
    telemetry,
)
from fleetfl.channel import FreshnessTag
from fleetfl.encoding import canonical_hash
from fleetfl.models import GradientUpdate, ModelParams


def _mask_round(grads, seed, strength=1.0):
    nodes = sorted(grads)
    dim = len(next(iter(grads.values())))
    masks = masking.derive_masks(seed, nodes, dim, strength)
    tag = FreshnessTag(nonce=bytes(16), timestamp=1, round=0)
    return [
        masking.apply_mask(n, GradientUpdate(grad=grads[n], n_samples=1), masks[n], tag)
        for n in nodes
    ]


def test_criterion_01_mask_cancellation_100_random_triples():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        size = int(rng.integers(1, 33))
        dim = int(rng.integers(1, 65))
        seed = int(rng.integers(2**32))
        grads = {f"n{i:02d}": rng.normal(size=dim) for i in range(size)}
        payload_sum = sum(mu.payload for mu in _mask_round(grads, seed))
        raw_sum = sum(grads.values())
        assert float(np.max(np.abs(payload_sum - raw_sum))) < 1e-9


def test_criterion_02_fedavg_equals_centralized_full_batch_step():
    fleet = telemetry.generate_fleet(31, 3, 60, 5, 0.4)
    rng = np.random.default_rng(1)
    base = ModelParams(rng.normal(scale=0.2, size=5), 0.05)
    lr = 0.3

    deltas = []
    for part in fleet.partitions:
        upd = models.train_local(base, part, lr=lr, epochs=1, batch=part.n_samples, seed=0)
        deltas.append((part.node_id, upd.grad, part.n_samples))

    pooled = telemetry.NodePartition(
        "pooled",
        np.vstack([p.features for p in fleet.partitions]),
        np.concatenate([p.labels for p in fleet.partitions]),
    )
    central = models.train_local(base, pooled, lr=lr, epochs=1, batch=pooled.n_samples, seed=0)
    oracle = base.as_vector() + central.grad

    # direct sample-weighted FedAvg
    g = aggregation.fedavg([(d, n) for _, d, n in deltas], base)
    np.testing.assert_allclose(g.params.as_vector(), oracle, atol=1e-6)

    # through the masked-sum path (sender-side scaling by sample count)
    scaled = {node: d * n for node, d, n in deltas}
    total_n = sum(n for _, _, n in deltas)
    summed = aggregation.smpc_sum(_mask_round(scaled, seed=9, strength=2.0), sorted(scaled))
    g2 = aggregation.fedavg_from_masked_sum(summed, total_n, base)
    np.testing.assert_allclose(g2.params.as_vector(), oracle, atol=1e-6)


def test_criterion_03_gradient_matches_finite_differences():
    def loss(vec, X, y):
        z = X @ vec[:-1] + vec[-1]
        return float(np.mean(np.log(1.0 + np.exp(z)) - y * z))

    rng = np.random.default_rng(55)
    h = 1e-5
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        n = int(rng.integers(1, 10))
        params = models.ModelParams(rng.normal(scale=0.5, size=dim), float(rng.normal(scale=0.5)))
        X = rng.normal(size=(n, dim))
        y = rng.integers(0, 2, size=n).astype(np.int64)
        vec = params.as_vector()
        numeric = np.zeros_like(vec)
        for j in range(len(vec)):
            up, dn = vec.copy(), vec.copy()
            up[j] += h
            dn[j] -= h
            numeric[j] = (loss(up, X, y) - loss(dn, X, y)) / (2 * h)
        analytic = models.gradient(params, X, y)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        assert rel < 1e-5


def test_criterion_04_dp_noise_calibration():
    sigma = privacy.gaussian_sigma(1.0, 1.0, 1e-5)
    assert sigma == pytest.approx(math.sqrt(2.0 * math.log(1.25 / 1e-5)), abs=1e-12)
    assert abs(sigma - 4.8239) / 4.8239 < 0.02

    ctx = privacy.PrivacyContext(
        epsilon=1.0, delta=1e-5, clip_norm=1.0, mask_strength=0.1,
    )
    upd = GradientUpdate(grad=np.zeros(100_000), n_samples=1)
    draws = privacy.add_dp_noise(upd, ctx, rng_seed=321).grad
    assert abs(float(np.std(draws)) - sigma) / sigma < 0.02
    assert abs(float(np.std(draws)) - 4.8239) / 4.8239 < 0.02

    inf_ctx = dataclasses.replace(ctx, epsilon=math.inf)
    src = GradientUpdate(grad=np.array([0.25, -0.5]), n_samples=2)
    out = privacy.add_dp_noise(src, inf_ctx, rng_seed=321)
    assert out is src
    assert out.grad.tobytes() == src.grad.tobytes()


def _build_50_block_chain():
    vset = ledger.ValidatorSet(stakes={"A": 1.0, "B": 1.0, "C": 2.0})
    rules = ledger.ContractRules(freshness_window=10**6, max_update_norm=1e9)
    chain = [ledger.genesis_block(canonical_hash(b"genesis"))]
    budget = privacy.BudgetLedger(budget_cap=100.0)
    for i in range(1, 50):
        payload = f"block-{i}".encode()
        meta = ledger.BlockMeta(
            kind=("local_update", "global_model", "feedback")[i % 3],
            actor_id=f"actor-{i % 5}",
            round=i // 3,
            freshness=FreshnessTag(nonce=i.to_bytes(16, "big"), timestamp=i, round=i // 3),
            epsilon_charged=0.25 * (i % 4),
            model_version=i,
        )
        state = ledger.ValidationState(
            seen_nonces=set(), budget=budget, now=i, payload=payload
        )
        ledger.append_block(chain, canonical_hash(payload), meta, vset, rules, state,
                            committee_seed=i)
    return chain


def _flip_digest_bit(digest: bytes, bit: int) -> bytes:
    out = bytearray(digest)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _mutate(block, field: str, i: int):
    """Apply the i-th (of 10) single-bit mutation to the given block field."""
    if field == "index":
        block.index ^= 1 << i
    elif field in ("prev_hash", "payload_hash", "block_hash"):
        bit = (i * 29) % 256
        setattr(block, field, _flip_digest_bit(getattr(block, field), bit))
    elif field == "meta":
        m = block.meta
        sub = i % 5
        if sub == 0:
            block.meta = dataclasses.replace(m, round=m.round ^ (1 << i))
        elif sub == 1:
            block.meta = dataclasses.replace(m, model_version=m.model_version ^ (1 << i))
        elif sub == 2:
            raw = bytearray(struct.pack(">d", m.epsilon_charged))
            raw[i % 8] ^= 1 << (i % 7)
            block.meta = dataclasses.replace(
                m, epsilon_charged=struct.unpack(">d", bytes(raw))[0]
            )
        elif sub == 3:
            nonce = bytearray(m.freshness.nonce)
            nonce[i % 16] ^= 1 << (i % 8)
            block.meta = dataclasses.replace(
                m,
                freshness=FreshnessTag(bytes(nonce), m.freshness.timestamp, m.freshness.round),
            )
        else:
            block.meta = dataclasses.replace(
                m,
                freshness=FreshnessTag(
                    m.freshness.nonce, m.freshness.timestamp ^ (1 << i), m.freshness.round
                ),
            )
    elif field == "attestations":
        if block.attestations:
            vid, digest = block.attestations[i % len(block.attestations)]
            block.attestations[i % len(block.attestations)] = (
                vid, _flip_digest_bit(digest, (i * 31) % 256)
            )
        else:
            block.attestations.append((f"intruder-{i}", bytes(32)))
    else:
        raise AssertionError(field)


def test_criterion_05_tamper_evidence_every_block_every_field():
    pristine = _build_50_block_chain()
    assert ledger.verify_chain(pristine) is None
    fields = ["index", "prev_hash", "payload_hash", "meta", "attestations", "block_hash"]
    checked = 0
    for k in range(len(pristine)):
        for field in fields:
            for i in range(10):
                chain = copy.deepcopy(pristine)
                _mutate(chain[k], field, i)
                assert ledger.verify_chain(chain) == k, (k, field, i)
                checked += 1
    assert checked == 50 * 6 * 10


def test_criterion_06_attack_suite_full_detection():
    reports = attacks.run_attack_suite(make_cfg(), seeds=list(range(100)))
    by_kind = {r.kind: r for r in reports}
    assert set(by_kind) == set(attacks.ATTACK_KINDS)
    for kind, rep in by_kind.items():
        if kind == "eavesdrop":
            assert rep.leaked is False
        else:
            assert rep.injected == 100
            assert rep.detected == 100, f"{kind}: {rep.detected}/100"


def test_criterion_07_learning_sanity_reaches_90_percent():
    cfg = config.from_dict({
        "seed": 1, "rounds": 50,
        "fleet": {"n_nodes": 4, "samples_per_node": 200, "feature_dim": 8,
                  "heterogeneity": 0.0},
        "train": {"lr": 0.5, "epochs": 2, "batch": 32},
        "privacy": {"eps_max": "inf", "clip_norm": 10.0},
        "feedback": {"enabled": True, "max_validation_samples": 4, "explain_repeats": 3},
        "holdout_samples": 500,
    })
    reports = orchestrator.run(cfg)
    assert not any(rep.aborted for rep in reports)
    assert reports[-1].global_accuracy >= 0.90


def test_criterion_08_privacy_utility_monotonicity():
    def mean_acc(eps_max):
        accs = []
        for seed in (11, 12, 13, 14, 15):
            cfg = config.from_dict({
                "seed": seed, "rounds": 20,
                "fleet": {"n_nodes": 8, "samples_per_node": 100, "feature_dim": 6,
                          "heterogeneity": 0.0},
                "train": {"lr": 0.5, "epochs": 1, "batch": 32},
                "privacy": {"eps_min": min(0.5, eps_max), "eps_max": eps_max,
                            "clip_norm": 2.0, "budget_cap": 10000.0},
                "feedback": {"enabled": False},
                "threat_schedule": 0.1,
                "holdout_samples": 1000,
            })
            reports = orchestrator.run(cfg)
            accs.append(np.mean([r.global_accuracy for r in reports[-3:]]))
        return float(np.mean(accs))

    means = [mean_acc(e) for e in (8.0, 2.0, 1.0, 0.5)]
    inversions = [max(0.0, b - a) for a, b in zip(means, means[1:])]
    assert sum(1 for inv in inversions if inv > 0) <= 1
    assert all(inv <= 0.01 for inv in inversions), means


def test_criterion_09_weighted_integration_and_fpr():
    # boxed-equation exactness on hand vectors
    w = feedback.IntegrationWeights(0.3, 0.7)
    np.testing.assert_array_equal(
        feedback.integrate(np.array([10.0, 0.0]), np.array([0.0, 10.0]), w),
        np.array([3.0, 7.0]),
    )

    fpr_global, fpr_integrated = [], []
    for seed in (101, 102, 103, 104, 105):
        cfg = config.from_dict({
            "seed": seed, "rounds": 3,
            "fleet": {"n_nodes": 4, "samples_per_node": 80, "feature_dim": 6,
                      "heterogeneity": 0.3},
            "train": {"lr": 0.5, "epochs": 1, "batch": 16},
            "privacy": {"eps_max": "inf"},
            "feedback": {"enabled": True, "max_validation_samples": 4, "explain_repeats": 3},
            "holdout_samples": 400,
        })
        reports = orchestrator.run(cfg)
        for rep in reports:
            w_l, w_g = rep.w_local_mean, rep.w_global_mean
            assert w_l + w_g == pytest.approx(1.0, abs=1e-12)
        fpr_global.append(reports[-1].fpr_global)
        fpr_integrated.append(reports[-1].fpr_integrated)
    assert float(np.mean(fpr_integrated)) <= float(np.mean(fpr_global)) + 0.01


def test_criterion_10_determinism_byte_identical_artifacts(tmp_path):
    outputs = []
    for sub in ("first", "second"):
        cfg = make_cfg(rounds=3, output_dir=str(tmp_path / sub))
        sim = orchestrator.Simulator(cfg)
        sim.run()
        outputs.append(
            (
                (tmp_path / sub / "metrics.jsonl").read_bytes(),
                (tmp_path / sub / "chain.json").read_bytes(),
                sim.chain[-1].block_hash,
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]


def test_criterion_11_committee_frequencies_track_stake():
    vset = ledger.ValidatorSet(stakes={"A": 1.0, "B": 1.0, "C": 2.0})
    counts = {"A": 0, "B": 0, "C": 0}
    n = 100_000
    for seed in range(n):
        counts[ledger.select_committee(vset, seed, 1)[0]] += 1
    expected = {"A": 0.25, "B": 0.25, "C": 0.5}
    for vid, target in expected.items():
        assert abs(counts[vid] / n - target) < 0.01, (vid, counts[vid] / n)


def test_criterion_12_explanation_sanity():
    params = ModelParams(np.array([2.0, 0.0]), 0.0)
    rng = np.random.default_rng(8)
    for trial in range(5):
        background = rng.normal(size=(40, 2))
        expl = feedback.explain(params, np.array([0.3, -0.3]), background, 50, seed=trial)
        assert expl.attributions[1] < 0.01

    m = ModelParams(np.array([1.0, -0.5]), 0.1)
    X = rng.normal(size=(6, 2))
    report = feedback.validate_predictions(
        m, m, X, n_repeats=5, seed=0
    )
    assert report.agreement_rate == 1.0
    assert report.flagged == []

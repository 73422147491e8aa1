"""Round loop: determinism, ledger ordering, budget closure, abort behavior."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from conftest import make_cfg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetfl import (
    attacks, channel, config, encoding, feedback, ledger, masking, models, orchestrator, privacy,
    telemetry,
)
from fleetfl.encoding import canonical_hash, enc_str, hash_vector, sub_seed
from fleetfl.orchestrator import Simulator, run

NODES = ["node-0", "node-1", "node-2"]
# local updates in, their one ledger batch and the global model's, then distribution
WIRE_HEAD = (
    [("local_update", n, "cloud") for n in NODES]
    + [("ledger_log", "cloud", "ledger")] * 2
    + [("global_distribution", "cloud", n) for n in NODES]
)


def test_zero_rounds_leaves_genesis_only():
    cfg = make_cfg(rounds=0)
    sim = Simulator(cfg)
    reports, _ = sim.run()
    assert reports == []
    assert len(sim.chain) == 1
    assert sim.chain[0].meta.kind == "genesis"


def test_identical_configs_produce_identical_artifacts(tmp_path):
    digests = []
    for sub in ("a", "b"):
        cfg = make_cfg(output_dir=str(tmp_path / sub))
        run(cfg)
        metrics = (tmp_path / sub / "metrics.jsonl").read_bytes()
        chain = (tmp_path / sub / "chain.json").read_bytes()
        digests.append((metrics, chain))
    assert digests[0] == digests[1]


def test_different_seeds_differ():
    a = run(make_cfg(seed=1))
    b = run(make_cfg(seed=2))
    assert a[-1].global_loss != b[-1].global_loss


def test_chain_verifies_and_orders_blocks_per_round(tmp_path):
    cfg = make_cfg(rounds=3, output_dir=str(tmp_path))
    sim = Simulator(cfg)
    sim.run()
    assert ledger.verify_chain(sim.chain) is None
    exported = json.loads((tmp_path / "chain.json").read_text())
    by_round = {}
    for rec in exported[1:]:
        by_round.setdefault(rec["meta"]["round"], []).append(rec)
    for blocks in by_round.values():
        kinds = [b["meta"]["kind"] for b in blocks]
        last_local = max(i for i, k in enumerate(kinds) if k == "local_update")
        global_i = kinds.index("global_model")
        first_feedback = min(i for i, k in enumerate(kinds) if k == "feedback")
        assert last_local < global_i < first_feedback


def test_epsilon_accounting_closes():
    cfg = make_cfg(rounds=4, privacy={"eps_max": 4.0, "budget_cap": 500.0})
    sim = Simulator(cfg)
    reports, _ = sim.run()
    for node in sim.node_ids:
        total = sum(rep.epsilon_charged[node] for rep in reports)
        assert total == pytest.approx(sim.budget.spent_for(node))
        assert total > 0.0
        assert reports[-1].epsilon_spent[node] == pytest.approx(total)


def test_infinite_epsilon_charges_nothing():
    sim = Simulator(make_cfg(rounds=2))
    reports, _ = sim.run()
    assert all(v == 0.0 for rep in reports for v in rep.epsilon_charged.values())


def test_round_aborts_when_contract_rejects_everything():
    cfg = make_cfg(rounds=2, ledger={"max_update_norm": 1e-12})
    sim = Simulator(cfg)
    reports, _ = sim.run()
    assert all(rep.aborted for rep in reports)
    assert all(rep.blocks_appended == 0 for rep in reports)
    assert len(sim.chain) == 1  # nothing beyond genesis
    assert sim.global_params.version == 0
    for rep in reports:
        assert rep.rejected and all("norm_bound" in reasons for _, reasons in rep.rejected)


def test_admission_judges_every_update_at_one_clock_reading():
    # the one ledger batch ticks the clock before any check, so with a
    # 1-tick window node-0's and node-1's updates are stale and node-2's is not
    cfg = make_cfg(rounds=1, privacy={"eps_max": 4.0, "budget_cap": 500.0})
    sim = Simulator(cfg)
    sim.rules.freshness_window = 1
    [report], _ = sim.run()
    assert report.aborted
    assert report.rejected == [("node-0", ["stale"]), ("node-1", ["stale"])]
    assert len(sim.chain) == 1
    assert all(v == 0.0 for v in report.epsilon_spent.values())


def test_rounds_read_the_splits_built_at_construction(monkeypatch):
    sim = Simulator(make_cfg(rounds=2))
    lookups = []
    partition = telemetry.FleetDataset.partition

    def counted(self, node_id):
        lookups.append(node_id)
        return partition(self, node_id)

    monkeypatch.setattr(telemetry.FleetDataset, "partition", counted)
    reports, _ = sim.run()
    assert not any(rep.aborted for rep in reports)
    assert lookups == []


def test_global_dp_run_is_deterministic_and_logs_the_published_model(tmp_path):
    runs = []
    for sub in ("a", "b"):
        sim = Simulator(make_cfg(privacy={"eps_global": 2.0}, output_dir=str(tmp_path / sub)))
        reports, _ = sim.run()
        assert [rep.global_version for rep in reports] == [1, 2]
        assert ledger.verify_chain(sim.chain) is None
        [*_, logged] = [b for b in sim.chain if b.meta.kind == "global_model"]
        assert logged.payload_hash == canonical_hash(orchestrator.params_bytes(sim.global_params))
        runs.append([
            (tmp_path / sub / name).read_bytes()
            for name in ("metrics.jsonl", "chain.json", "explanations.jsonl")
        ])
    assert runs[0] == runs[1]


def test_edge_payload_hash_survives_to_the_ledger():
    sim = Simulator(make_cfg(rounds=1))
    _, trace = sim.run_round(0, record=True)
    logged = {
        b.meta.actor_id: b.payload_hash
        for b in sim.chain
        if b.meta.kind == "local_update"
    }
    assert set(logged) == set(trace.masked)
    for node, mu in trace.masked.items():
        assert logged[node] == mu.payload_hash == hash_vector(mu.payload)


def test_model_version_increments_each_successful_round():
    sim = Simulator(make_cfg(rounds=3))
    reports, _ = sim.run()
    assert [rep.global_version for rep in reports] == [1, 2, 3]


def test_reports_have_convex_fusion_weights():
    reports = run(make_cfg(rounds=2))
    for rep in reports:
        w_l, w_g = rep.w_local_mean, rep.w_global_mean
        assert w_l + w_g == pytest.approx(1.0)
        assert 0.0 <= w_l <= 1.0


@pytest.mark.parametrize("n_nodes, seed", [
    pytest.param(5, 3, id="node"),
    pytest.param(10, 5, id="node-10nodes"),
])
def test_fusion_matches_a_hand_recomputed_oracle(monkeypatch, n_nodes, seed):
    # at these seeds and with 20 validation rows some corrections gain accuracy,
    # so the fusion weights are not pinned at w_min
    sim = Simulator(make_cfg(
        seed=seed, rounds=1, fleet={"n_nodes": n_nodes}, feedback={"max_validation_samples": 20},
    ))
    corrections, global_deltas = [], []
    correct_fleet, fuse_fleet = feedback.correct_fleet, feedback.fuse_fleet

    def recorded_correction(*args, **kwargs):
        out = correct_fleet(*args, **kwargs)
        corrections.extend(out)
        return out

    def recorded_fusion(X, y, *args):
        global_deltas.append(np.array(y, dtype=np.float64))
        return fuse_fleet(X, y, *args)

    monkeypatch.setattr(feedback, "correct_fleet", recorded_correction)
    monkeypatch.setattr(feedback, "fuse_fleet", recorded_fusion)
    prev = sim.global_params.as_vector()
    report, _ = sim.run_round(0)
    assert not report.aborted
    assert len(corrections) == len(sim.node_ids)  # one per node, in node order
    assert any(np.any(c.delta != 0.0) for c in corrections)
    y = global_deltas[0]
    assert all(np.array_equal(d, y) for d in global_deltas)
    np.testing.assert_allclose(sim.global_params.as_vector(), prev + y, rtol=0, atol=1e-12)

    total = sim.train_y.size
    w_min, n_ref = feedback.W_MIN, feedback.N_REF

    def fused(x, gain, stability):
        score_local = max(0.0, gain) * stability
        score_global = math.log1p(total) / math.log1p(n_ref)
        w_local = min(max(score_local / (score_local + score_global), w_min), 1.0 - w_min)
        return prev + w_local * x + (1.0 - w_local) * y, w_local

    # each node's fusion is weighed by the stability of the explanation the round logged
    records = sim.explanation_records
    assert [rec["node"] for rec in records] == sim.node_ids
    expected, w_locals = {}, []
    for node, c, rec in zip(sim.node_ids, corrections, records):
        expected[node], w_local = fused(c.delta, c.accuracy_gain, rec["stability"])
        w_locals.append(w_local)
    assert max(w_locals) > w_min
    for node in sim.node_ids:
        np.testing.assert_allclose(
            sim.node_params[node].as_vector(), expected[node], rtol=0, atol=1e-12
        )
    assert report.w_local_mean == pytest.approx(float(np.mean(w_locals)), abs=1e-12)
    assert [b.meta.actor_id for b in sim.chain if b.meta.kind == "feedback"] == sim.node_ids


def test_small_feedback_run_bytes_are_pinned(tmp_path):
    # a node-site feedback run with DP on: any byte drift in the validation,
    # explanation, correction or fusion path changes a digest
    run(make_cfg(
        fleet={"n_nodes": 6}, feedback={"max_validation_samples": 20},
        privacy={"eps_max": 8.0, "budget_cap": 500.0}, output_dir=str(tmp_path),
    ))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.jsonl", "chain.json", "explanations.jsonl")
    }
    assert digests == {
        "metrics.jsonl": "b7314adbee16d000ec0ecbb99544a581c7a2c27de76bc80b1387342f7afa12e0",
        "chain.json": "e8dc2e3724d4780ed19ea3a2ea633999e7849db9f5783d6e342db50bae1e81df",
        "explanations.jsonl": "a9d832e2b98784f48a5034053340c42aa85f5940e5c645677717a9ba907963bf",
    }


def test_small_feedback_off_run_bytes_are_pinned(tmp_path):
    # the same run with feedback off: the train/holdout split, training, privacy,
    # masking and ledger paths alone; no explanation is logged
    run(make_cfg(
        fleet={"n_nodes": 6}, feedback={"enabled": False, "max_validation_samples": 20},
        privacy={"eps_max": 8.0, "budget_cap": 500.0}, output_dir=str(tmp_path),
    ))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.jsonl", "chain.json")
    }
    assert digests == {
        "metrics.jsonl": "666d77cd22e4698c762ce7e59ea08e23c301bdddb897f4e167f1f025065408c5",
        "chain.json": "3f935a78f799159e136345785678bbdd705e971554f12d652c5c515785ae4fd5",
    }
    assert (tmp_path / "explanations.jsonl").read_bytes() == b""


def test_small_global_dp_run_bytes_are_pinned(tmp_path):
    # global noise on: the digests change with the global mechanism's delta or
    # clip norm, which every other pinned run leaves unused
    run(make_cfg(
        fleet={"n_nodes": 6}, feedback={"enabled": False},
        privacy={"eps_max": 8.0, "budget_cap": 500.0, "eps_global": 2.0}, output_dir=str(tmp_path),
    ))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.jsonl", "chain.json")
    }
    assert digests == {
        "metrics.jsonl": "0d57caf9b1346758eb6e2017f9dba4bce7485011f1cd35667bfa8cab2ccc5f22",
        "chain.json": "2fc830855bcee9edbc8a731218c0e97f1f7baf0dd64ebc75dbd2738f8fe019b7",
    }


def test_small_no_noise_run_bytes_are_pinned(tmp_path):
    # eps_max inf: no node draws noise, so each update is only clipped and
    # scaled; only the split and the batch orders draw from the streams
    run(make_cfg(fleet={"n_nodes": 6}, feedback={"enabled": False}, output_dir=str(tmp_path)))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.jsonl", "chain.json")
    }
    assert digests == {
        "metrics.jsonl": "1992cfd6cde589a91e14a9ab22253f179f867c7e08c8b4497e50be45eacf0d8c",
        "chain.json": "5ba3ed39d6a7e6ece2d1310060506886c771d78470eb55075c16d11a43aeccad",
    }


def _per_node_train_and_privatise(sim, r):
    """Local training and the privacy stage as a loop of one training, one
    assessment, one clip and one noise call per node, returning the
    sample-scaled updates stacked in node order, the contexts in node order
    and the raw updates."""
    cfg, t = sim.cfg, sim.cfg.train
    threat = cfg.threat_for_round(r)
    updates = [
        models.train_local(
            sim.node_params[node], telemetry.NodePartition(node, X, y), t.lr, t.epochs, t.batch,
            sub_seed(cfg.seed, "train", r, node),
        )
        for node, X, y in zip(sim.node_ids, sim.train_X, sim.train_y)
    ]
    scaled, ctxs = [], []
    for node, sensitivity, upd in zip(sim.node_ids, sim.sensitivity, updates):
        ctx = privacy.assess_context(sensitivity, threat, cfg.privacy)
        clipped = privacy.clip_update(upd, ctx.clip_norm)
        noised = privacy.add_dp_noise(clipped, ctx, sub_seed(cfg.seed, "noise", r, node))
        scaled.append(noised.grad * upd.n_samples)
        ctxs.append(ctx)
    return np.stack(scaled), ctxs, updates


# 6 epochs is a run long enough for the removed loss-stall signal to have
# acted; at each clip norm three of the six updates are clipped and three are
# left within it
@pytest.mark.parametrize("epochs, clip", [(2, 0.65), (6, 1.35)], ids=["2-epochs", "6-epochs"])
def test_the_stacked_privacy_stage_equals_a_per_node_loop(epochs, clip):
    sim = Simulator(make_cfg(
        rounds=1, fleet={"n_nodes": 6}, train={"epochs": epochs},
        privacy={"eps_max": 8.0, "budget_cap": 500.0, "clip_norm": clip},
    ))
    starts = [sim.node_params[n].as_vector() for n in sim.node_ids]
    scaled, epsilons, strength, V1 = sim._train_and_privatise(0)
    expected, ctxs, updates = _per_node_train_and_privatise(sim, 0)
    assert list(epsilons) == sim.node_ids
    raw_norms = [float(np.linalg.norm(u.grad)) for u in updates]
    assert sum(norm > clip for norm in raw_norms) == 3
    assert len(set(epsilons.values())) > 1
    assert list(epsilons.values()) == [c.epsilon for c in ctxs]
    assert all(c.mask_strength == strength for c in ctxs)
    assert np.array_equal(scaled, expected)
    # the returned Model 1 is each node's start model plus its raw update
    assert np.array_equal(V1, np.stack([v + u.grad for v, u in zip(starts, updates)]))


def test_a_round_assesses_the_fleet_without_per_node_contexts(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a round assesses its privacy in one fleet pass")

    monkeypatch.setattr(privacy, "assess_context", refused)
    monkeypatch.setattr(privacy, "PrivacyContext", refused)
    sim = Simulator(make_cfg(rounds=1, privacy={"eps_max": 8.0, "budget_cap": 500.0}))
    report, _ = sim.run_round(0)
    assert not report.aborted and report.blocks_appended > 0


def test_every_logged_explanation_is_the_one_validation_compared(monkeypatch):
    sim = Simulator(make_cfg(rounds=2, fleet={"n_nodes": 4}))
    reports, streams = [], []
    validate_fleet, sub_seed_ = feedback.validate_fleet, orchestrator.sub_seed
    sub_seeds_ = orchestrator.sub_seeds

    def recorded_validation(*args, **kwargs):
        out = validate_fleet(*args, **kwargs)
        reports.extend(out)
        return out

    def refused(*args, **kwargs):
        raise AssertionError("a round explains only inside validation")

    def recorded_stream(seed, *parts):
        streams.append(parts[0] if parts else None)
        return sub_seed_(seed, *parts)

    def recorded_streams(prefix, lasts):
        # the per-node streams: (seed, stream, round) + each node
        streams.append(prefix[1] if len(prefix) > 1 else None)
        return sub_seeds_(prefix, lasts)

    monkeypatch.setattr(feedback, "validate_fleet", recorded_validation)
    monkeypatch.setattr(feedback, "explain", refused)
    monkeypatch.setattr(orchestrator, "sub_seed", recorded_stream)
    monkeypatch.setattr(orchestrator, "sub_seeds", recorded_streams)
    sim.run()
    assert {"train", "noise", "model2", "explain"} <= set(streams)
    # the correction is full-batch descent: it draws nothing
    assert "correct" not in streams and "stability" not in streams
    assert len(sim.explanation_records) == len(reports) == 2 * len(sim.node_ids)
    for record, report in zip(sim.explanation_records, reports):
        assert record["sample"] == 0
        assert record["attributions"] == [float(a) for a in report.explanation.attributions]
        assert record["stability"] == report.explanation.stability


def test_feedback_disabled_round_has_fewer_blocks():
    on = Simulator(make_cfg(rounds=1))
    off = Simulator(make_cfg(rounds=1, feedback={"enabled": False}))
    on.run()
    off.run()
    n_nodes = on.cfg.fleet.n_nodes
    assert len(off.chain) == 1 + n_nodes + 1  # genesis + locals + global
    assert len(on.chain) == len(off.chain) + n_nodes  # plus one feedback block per node


@pytest.mark.parametrize("n", range(2, 71))
def test_diversity_of_equal_counts_is_at_most_one(n):
    # n equal train splits have full diversity, which the global score counts as exactly
    # one: no entropy rounding (1 - ulp at 10 or 14 nodes) reaches w_local
    w = feedback.compute_weights(0.3, 0.5, 100 * n)
    score_local = 0.3 * 0.5
    score_global = 1.0 * math.log1p(100 * n) / math.log1p(1000)
    assert 0.05 < w.w_local == score_local / (score_local + score_global) < 0.95


@pytest.mark.parametrize("site", ["node"])
def test_five_equal_nodes_complete_a_feedback_round(site):
    [report] = run(make_cfg(rounds=1, fleet={"n_nodes": 5}, integration_site=site))
    assert not report.aborted


def test_threat_schedule_cycles():
    cfg = make_cfg(threat_schedule=[0.1, 0.9])
    assert cfg.threat_for_round(0) == 0.1
    assert cfg.threat_for_round(1) == 0.9
    assert cfg.threat_for_round(2) == 0.1


def test_artifacts_are_complete(tmp_path):
    cfg = make_cfg(rounds=2, output_dir=str(tmp_path))
    run(cfg)
    for name in ("metrics.jsonl", "chain.json", "explanations.jsonl"):
        assert (tmp_path / name).exists(), name
    assert not (tmp_path / "summary.csv").exists()  # it restated metrics.jsonl
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["w_local_mean"] + rec["w_global_mean"] == pytest.approx(1.0)
    expl = [json.loads(l) for l in (tmp_path / "explanations.jsonl").read_text().splitlines()]
    assert {e["node"] for e in expl} == {f"node-{i}" for i in range(cfg.fleet.n_nodes)}
    assert all(0.0 <= e["stability"] <= 1.0 for e in expl)


@pytest.mark.parametrize(
    "overrides, tail",
    [
        ({}, [("feedback", n, "cloud") for n in NODES] + [("ledger_log", "cloud", "ledger")]),
        ({"feedback": {"enabled": False}}, []),
    ],
    ids=["node-site", "feedback-off"],
)
def test_wire_order_of_one_round(overrides, tail):
    sim = Simulator(make_cfg(rounds=1, **overrides))
    assert sim.node_ids == NODES
    _, trace = sim.run_round(0, record=True)
    assert [
        (m.kind, m.envelope.sender, m.envelope.receiver) for m in trace.messages
    ] == WIRE_HEAD + tail


def test_every_wire_message_is_sealed_and_opened_once(monkeypatch):
    calls = {"seal": 0, "open": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(orchestrator, "seal", counted("seal", channel.seal))
    monkeypatch.setattr(orchestrator, "open_envelope", counted("open", channel.open_envelope))
    _, trace = Simulator(make_cfg(rounds=1)).run_round(0, record=True)
    assert calls["seal"] == calls["open"] == len(trace.messages)


def _load_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_patches_and_restores_every_binding():
    tracing = _load_tracing()
    # every (owner, attribute) the tracer patches by name; a missing one is a KeyError
    bindings = [
        (owner, attr) for _, attr, owners in tracing.SPANS + tracing.COUNTERS for owner in owners
    ] + [(attacks, "copy")]
    before = [vars(owner)[attr] for owner, attr in bindings]
    with tracing.Tracer().installed():
        during = [vars(owner)[attr] for owner, attr in bindings]
    after = [vars(owner)[attr] for owner, attr in bindings]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_benchmark_tracer_bindings_exist():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():  # KeyError when a patched binding is gone
        Simulator(make_cfg(rounds=1)).run()
    calls = tracer.summary()["calls"]
    assert calls["orchestrator.run_round"] == 1
    # validation, explanation and correction run as fleet passes, which have no
    # spans: no per-node call goes through the traced public names
    for name in ("validate_predictions", "explain", "local_correction"):
        assert calls[f"feedback.{name}"] == 0
    assert calls["models.train_local"] == 0
    # fusion is one fleet pass too: its weights and blend go through neither name
    assert calls["feedback.compute_weights"] == calls["feedback.integrate"] == 0
    assert calls["channel.seal"] > 0 and calls["channel.open"] > 0
    assert orchestrator.seal is channel.seal  # restored on exit
    tracer = tracing.Tracer()
    with tracer.installed():  # its attacks.copy has only deepcopy
        attacks.run_attack_suite(make_cfg(rounds=1), [0, 1])
    assert tracer.summary()["calls"]["attacks.inject"] == 6  # three wire kinds, two seeds


def test_divergence_names_the_node_that_diverged_when_it_is_not_the_first():
    sim = Simulator(make_cfg(rounds=1))
    # margins overflow after the first step, so the epoch loss is not finite
    sim.train_X[sim.node_ids.index("node-1")] = 1e200
    with np.errstate(all="ignore"), pytest.raises(
        models.TrainingDivergedError, match="on node node-1 after epoch 1"
    ):
        sim._train_and_privatise(0)


@pytest.mark.parametrize("stage", ["local", "model2", "correction"])
def test_a_diverging_node_is_named_and_leaves_the_round_state_as_it_was(monkeypatch, stage):
    # node-1's training rows diverge in local training (Model 1) and its holdout
    # rows in Model 2's training. Its validation rows, scaled huge, diverge in
    # the correction under a rate the other nodes' rows take in their stride;
    # at seed 1 node-1 has flagged rows
    sim = Simulator(make_cfg(seed=1, rounds=1, privacy={"eps_max": 8.0, "budget_cap": 500.0}))
    k = sim.node_ids.index("node-1")
    if stage == "correction":
        sim.train_X[k, : sim.cfg.feedback.max_validation_samples] *= 1e100
        monkeypatch.setattr(feedback, "CORRECTION_LR", 1e150)
    else:
        {"local": sim.train_X, "model2": sim.hold_X}[stage][k] = 1e200
    global_params, node_params = sim.global_params, dict(sim.node_params)
    with np.errstate(all="ignore"), pytest.raises(
        models.TrainingDivergedError,
        match=f"on node node-1 after {'step' if stage == 'correction' else 'epoch'} 1",
    ):
        sim.run_round(0)
    # Model 2 and the correction run after the local updates and the global
    # model are staged
    assert len(sim.pending) == (0 if stage == "local" else len(sim.node_ids) + 1)
    assert len(sim.chain) == 1
    assert all(sim.budget.spent_for(n) == 0.0 for n in sim.node_ids)
    assert sim.global_params is global_params
    assert all(sim.node_params[n] is node_params[n] for n in sim.node_ids)
    assert sim.explanation_records == []


def test_a_step_that_overflows_a_parameter_raises_value_error():
    sim = Simulator(make_cfg(rounds=1, train={"lr": 1e300}))
    # lr * gradient overflows on the first step of node-2 only
    sim.train_X[sim.node_ids.index("node-2")] = 1e10
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match="model parameters must be finite"
    ):
        sim._train_and_privatise(0)


@pytest.mark.parametrize("enabled, fleet_calls", [(False, 1), (True, 2)], ids=["off", "on"])
def test_a_round_trains_the_fleet_in_stacked_calls(monkeypatch, enabled, fleet_calls):
    calls = {"train_fleet": [], "train_local": 0}

    def fleet(V, *args):
        calls["train_fleet"].append(len(V))
        return models.train_fleet(V, *args)

    def local(*args, **kwargs):
        calls["train_local"] += 1
        return models.train_local(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "train_fleet", fleet)
    monkeypatch.setattr(orchestrator, "train_local", local)
    report, _ = Simulator(make_cfg(rounds=1, feedback={"enabled": enabled})).run_round(0)
    assert not report.aborted
    assert calls == {"train_fleet": [3] * fleet_calls, "train_local": 0}


@pytest.mark.parametrize(
    "overrides, no_negatives",
    [({"feedback": {"enabled": False}}, False), ({}, False), ({}, True)],
    ids=["feedback-off", "node-site", "no-negatives"],
)
def test_finish_round_scores_each_distinct_model_once(monkeypatch, overrides, no_negatives):
    sim = Simulator(make_cfg(rounds=1, fleet={"n_nodes": 6}, **overrides))
    if no_negatives:
        sim.holdout_y = np.ones_like(sim.holdout_y)
    stacked = []

    def counted(V, X, y):
        stacked.append(len(V))
        return models.score_fleet(V, X, y)

    monkeypatch.setattr(orchestrator, "score_fleet", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report, _ = sim.run_round(0)
    # one stacked pass: the global model, plus each node's own when feedback fuses one
    n_models = 1 + sim.cfg.fleet.n_nodes if sim.cfg.feedback.enabled else 1
    assert stacked == [n_models]
    assert len({id(p) for p in (sim.global_params, *sim.node_params.values())}) == n_models
    # the same figures as scoring every node on its own
    X, y = sim.holdout_X, sim.holdout_y
    per_node = [sim.node_params[n] for n in sim.node_ids]
    assert (report.global_accuracy, report.global_loss) == models.evaluate(sim.global_params, X, y)
    assert report.fpr_global == models.false_positive_rate(sim.global_params, X, y)
    assert report.integrated_accuracy_mean == float(
        np.mean([models.evaluate(p, X, y)[0] for p in per_node])
    )
    assert report.fpr_integrated == float(
        np.mean([models.false_positive_rate(p, X, y) for p in per_node])
    )
    if no_negatives:
        assert report.fpr_global == report.fpr_integrated == 0.0


def test_a_feedback_round_builds_no_generator(monkeypatch):
    # training, DP noise, Model 2, validation, correction and the committee draw
    # from SHAKE-128 streams; a round builds no numpy Generator
    n = 6
    sim = Simulator(make_cfg(
        rounds=1, fleet={"n_nodes": n}, privacy={"eps_max": 8.0, "budget_cap": 500.0},
    ))
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    report, _ = sim.run_round(0)
    assert not report.aborted
    assert built == []


# validator v0 refuses to attest; a committee of (v0, v1) misses the 2/3 stake quorum
QUORUM_CFG = {
    "seed": 7, "rounds": 3, "fleet": {"n_nodes": 4}, "privacy": {"budget_cap": 500},
    "ledger": {"committee_size": 2, "byzantine_refuse": ["v0"]},
}


@pytest.mark.parametrize("enabled", [True, False], ids=["feedback-on", "feedback-off"])
def test_a_round_draws_one_committee_and_checks_each_block_once(monkeypatch, enabled):
    draws, checks = [], []
    select, validate = ledger.select_committee, ledger.contract_validate

    def counted_select(vset, seed, size):
        draws.append(seed)
        return select(vset, seed, size)

    def counted_validate(*args):
        checks.append(args[0])
        return validate(*args)

    monkeypatch.setattr(ledger, "select_committee", counted_select)
    monkeypatch.setattr(ledger, "contract_validate", counted_validate)
    n = 5
    sim = Simulator(make_cfg(rounds=2, fleet={"n_nodes": n}, feedback={"enabled": enabled}))
    reports, _ = sim.run()
    assert not any(rep.aborted for rep in reports)
    per_round = 2 * n + 1 if enabled else n + 1
    assert [rep.blocks_appended for rep in reports] == [per_round] * 2
    assert draws == [sub_seed(7, "committee", r) for r in range(2)]
    # one check per staged block, each block's own meta
    assert checks == [b.meta for b in sim.chain[1:]]


def test_a_failed_quorum_aborts_the_round_and_leaves_its_state():
    sim = Simulator(config.from_dict(QUORUM_CFG))
    assert [sim.run_round(r)[0].aborted for r in range(2)] == [False, False]
    n = len(sim.node_ids)
    assert len(sim.chain) == 1 + 2 * (2 * n + 1)
    chain = list(sim.chain)
    spent = {node: sim.budget.spent_for(node) for node in sim.node_ids}
    global_params, node_params = sim.global_params, dict(sim.node_params)
    records = list(sim.explanation_records)

    assert ledger.select_committee(sim.vset, sub_seed(7, "committee", 2), 2) == ["v0", "v1"]
    report, _ = sim.run_round(2)
    assert report.aborted
    assert report.rejected == [("ledger", ["quorum"])]
    assert report.blocks_appended == 0
    assert sim.chain == chain
    assert {node: sim.budget.spent_for(node) for node in sim.node_ids} == spent
    assert report.epsilon_spent == spent
    assert all(eps == 0.0 for eps in report.epsilon_charged.values())
    assert sim.global_params is global_params
    assert report.global_version == global_params.version
    assert all(sim.node_params[node] is node_params[node] for node in sim.node_ids)
    assert sim.explanation_records == records


@pytest.mark.parametrize("enabled", [True, False], ids=["feedback-on", "feedback-off"])
def test_a_round_that_fails_before_its_commit_installs_nothing(monkeypatch, enabled):
    # no stage before the commit writes the models or the records, so a failure
    # that is not a missed quorum leaves them as the last committed round did
    sim = Simulator(make_cfg(
        fleet={"n_nodes": 4}, privacy={"eps_max": 8.0}, feedback={"enabled": enabled}
    ))
    assert not sim.run_round(0)[0].aborted
    chain, spent = list(sim.chain), dict(sim.budget.spent)
    assert spent  # round 0 charged every node, so an early charge would show
    global_params, node_params = sim.global_params, dict(sim.node_params)
    records = list(sim.explanation_records)

    def failing(*args, **kwargs):
        raise RuntimeError("ledger down")

    monkeypatch.setattr(ledger, "commit_blocks", failing)
    with pytest.raises(RuntimeError, match="ledger down"):
        sim.run_round(1)
    assert sim.chain == chain
    assert sim.budget.spent == spent
    assert sim.global_params is global_params
    assert all(sim.node_params[node] is node_params[node] for node in sim.node_ids)
    assert sim.explanation_records == records


def _attestation_is_valid(vset, block, vid, digest):
    core = ledger._preimage_core(block.index, block.prev_hash, block.payload_hash, block.meta)
    return digest == ledger.attestation_digest(vid, core, vset.secret(vid))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_nodes=st.integers(2, 9),
    enabled=st.booleans(),
    rounds=st.integers(1, 3),
    committee_size=st.integers(1, 3),
    refuse=st.sets(st.sampled_from(["v0", "v1", "v2"])),
    false=st.sets(st.sampled_from(["v0", "v1", "v2"])),
)
def test_after_any_run_the_chain_is_genesis_plus_whole_rounds(
    n_nodes, enabled, rounds, committee_size, refuse, false
):
    sim = Simulator(make_cfg(
        rounds=rounds, fleet={"n_nodes": n_nodes}, feedback={"enabled": enabled},
        ledger={"committee_size": committee_size, "byzantine_refuse": sorted(refuse),
                "byzantine_false": sorted(false)},
    ))
    reports, _ = sim.run()
    chain, vset = sim.chain, sim.vset
    assert chain[0].meta.kind == "genesis"
    assert sum(rep.blocks_appended for rep in reports) == len(chain) - 1
    assert ledger.verify_chain(chain) is None

    per_round = 2 * n_nodes + 1 if enabled else n_nodes + 1
    start = 1
    for rep in reports:
        if rep.aborted:
            assert rep.blocks_appended == 0
            continue
        assert rep.blocks_appended == per_round
        blocks = chain[start:start + per_round]
        start += per_round
        assert [b.meta.round for b in blocks] == [rep.round] * per_round
        assert all(b.attestations == [] for b in blocks[:-1])
        closing = blocks[-1]
        committee = ledger.select_committee(
            vset, sub_seed(7, "committee", rep.round), committee_size
        )
        valid = sum(
            vset.stakes[vid] for vid, digest in closing.attestations
            if _attestation_is_valid(vset, closing, vid, digest)
        )
        assert {vid for vid, _ in closing.attestations} <= set(committee)
        assert valid + 1e-12 >= ledger.QUORUM_FRACTION * sum(vset.stakes[v] for v in committee)
    assert start == len(chain)


@pytest.mark.parametrize("enabled", [True, False], ids=["feedback-on", "feedback-off"])
def test_the_contract_rehashes_only_the_local_updates(monkeypatch, enabled):
    # a local update's hash is the node's claim, so the contract re-hashes its
    # payload; a global-model or feedback block carries the hash the ledger took
    # of the bytes it received, which a re-hash could never contradict
    calls = []

    def counted(b):
        calls.append(b)
        return canonical_hash(b)

    monkeypatch.setattr(ledger, "canonical_hash", counted)
    n = 4
    sim = Simulator(make_cfg(rounds=2, fleet={"n_nodes": n}, feedback={"enabled": enabled}))
    for r in range(2):
        calls.clear()
        report, _ = sim.run_round(r)
        assert not report.aborted
        attestations = len(sim.chain[-1].attestations)
        # one hash per block, one per attestation digest, one per local update
        assert len(calls) == report.blocks_appended + attestations + n
        logged = [b.payload_hash for b in sim.chain[-report.blocks_appended:]
                  if b.meta.kind != "local_update"]
        assert len(logged) == (n + 1 if enabled else 1)
        assert not {canonical_hash(b) for b in calls} & set(logged)


def test_each_round_masks_over_its_threat_levels_graph(monkeypatch):
    # round 0 at threat 0 is sparse (h = 4: 48 of 66 pairs), round 1 at threat 1 is complete
    threats = []
    derive = masking.derive_masks

    def recorded(*args, **kwargs):
        threats.append(kwargs["threat"])
        return derive(*args, **kwargs)

    monkeypatch.setattr(masking, "derive_masks", recorded)
    sim = Simulator(make_cfg(rounds=2, fleet={"n_nodes": 12}, threat_schedule=[0.0, 1.0]))
    reports, traces = sim.run(record=True)
    assert threats == [0.0, 1.0]
    assert not any(rep.aborted for rep in reports)
    pairs = [sum(map(len, masking.mask_graph(12, masking.half_degree(12, t)))) for t in threats]
    assert pairs == [48, 66]
    for trace in traces:
        masked = sum(mu.payload for mu in trace.masked.values())
        raw = sum(trace.raw_updates.values())
        assert float(np.max(np.abs(masked - raw))) < 1e-9 * max(1.0, float(np.max(np.abs(raw))))


# -- the protocol's links -----------------------------------------------------


def test_the_only_links_are_node_cloud_both_ways_and_cloud_ledger():
    sim = Simulator(make_cfg())
    assert set(sim.links) == (
        {(n, "cloud") for n in NODES} | {("cloud", n) for n in NODES} | {("cloud", "ledger")}
    )
    assert all((link.sender, link.receiver) == pair for pair, (link, _) in sim.links.items())
    cloud_seen = sim.link(NODES[0], "cloud")[1]
    for n in NODES:
        up, down = sim.link(n, "cloud"), sim.link("cloud", n)
        assert up[0].key == down[0].key == sim.keys.k_pc[n]
        assert up[1] is cloud_seen and down[1] is not cloud_seen
    assert sim.link("cloud", "ledger")[0].key == sim.keys.k_bc
    for sender, receiver in [("node-0", "node-1"), ("node-0", "ledger"), ("ledger", "cloud"),
                             ("cloud", "cloud"), ("ghost", "cloud"), ("cloud", "ghost"),
                             ("ledger", "node-0")]:
        with pytest.raises(channel.UnknownPartyError):
            sim.link(sender, receiver)


def test_the_wire_bytes_of_a_small_feedback_run_are_pinned():
    # the artifacts hash plaintexts only: this digest is what sees a change in
    # a ciphertext, a tag or the associated data the envelopes are sealed under
    sim = Simulator(make_cfg(fleet={"n_nodes": 4}))
    h = hashlib.sha256()
    for r in range(2):
        report, trace = sim.run_round(r, record=True)
        assert not report.aborted
        for m in trace.messages:
            h.update(enc_str(m.kind) + m.envelope.to_bytes())
    assert h.hexdigest() == "e33ec4842c10ba1ce3632ca6fa2e101d4fd2baa52d8aeadf6f4a92e8f7980442"


def test_the_wire_bytes_of_a_small_feedback_off_run_are_pinned():
    # the path of the benchmark's feedback-off workload at 8 nodes and threat
    # 0.1: each round's local updates, their one ledger batch, the global
    # model's ledger log and the distributions
    sim = Simulator(make_cfg(fleet={"n_nodes": 8}, feedback={"enabled": False},
                             threat_schedule=0.1))
    h = hashlib.sha256()
    for r in range(2):
        report, trace = sim.run_round(r, record=True)
        assert not report.aborted
        assert len(trace.messages) == 2 * 8 + 2
        for m in trace.messages:
            h.update(m.envelope.to_bytes())
    assert h.hexdigest() == "b78ebde28c7680876f3c3e26a45e83d3fba50c5732b95e5e8e8865ab341a8b46"


@pytest.mark.parametrize("enabled", [True, False], ids=["feedback-on", "feedback-off"])
def test_every_pipeline_message_goes_through_one_send_path(monkeypatch, enabled):
    sim = Simulator(make_cfg(rounds=1, feedback={"enabled": enabled}))
    send, batches = sim._send, []

    def recorded(trace, r, kind, routes, payloads, tags=None):
        batches.append((kind, len(routes)))
        return send(trace, r, kind, routes, payloads, tags)

    monkeypatch.setattr(sim, "_send", recorded)
    _, trace = sim.run_round(0, record=True)
    # each batch is one run of same-kind messages of the trace, in its order
    assert [kind for kind, k in batches for _ in range(k)] == [m.kind for m in trace.messages]
    n = len(NODES)
    head = [("local_update", n), ("ledger_log", 1), ("ledger_log", 1), ("global_distribution", n)]
    tail = [("feedback", n), ("ledger_log", 1)] if enabled else []
    assert batches == head + tail


def test_each_message_of_a_batch_is_opened_at_the_clock_reading_of_its_tag(monkeypatch):
    # under a one-tick window, a batch opened at the clock of its last tag
    # would find its first messages stale
    sim = Simulator(make_cfg(rounds=1))
    nows = []

    def opening(link, env, window, seen, now):
        nows.append(now)
        return channel.open_envelope(link, env, window, seen, now)

    monkeypatch.setattr(orchestrator, "open_envelope", opening)
    sim.rules = dataclasses.replace(sim.rules, freshness_window=1)
    payloads = [bytes([i]) for i in range(5)]
    assert sim._send(None, 0, "ledger_log", [("cloud", "ledger")] * 5, payloads) == payloads
    assert nows == [sim.clock - 4 + i for i in range(5)]


def _wire_adversary(monkeypatch, fault, withheld):
    """Swap the second envelope the pipeline seals for a faulty one on the
    wire; returns the lists of envelopes sealed and opened."""
    sealed, opened = [], []

    def sealing(link, tag, payload, used_nonces=None):
        env = channel.seal(link, tag, payload, used_nonces=used_nonces)
        sealed.append(env)
        if len(sealed) == 2:
            if fault == "tampered":
                env = channel.Envelope(env.sender, env.receiver, env.freshness,
                                       bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:],
                                       env.auth_tag)
            elif fault == "replayed":
                env = sealed[0]
            else:  # an envelope sealed earlier and held back past the window
                env = withheld
        return env

    def opening(link, env, *args):
        opened.append(env)
        return channel.open_envelope(link, env, *args)

    monkeypatch.setattr(orchestrator, "seal", sealing)
    monkeypatch.setattr(orchestrator, "open_envelope", opening)
    return sealed, opened


@pytest.mark.parametrize("fault, error", [
    ("tampered", channel.TamperedError),
    ("replayed", channel.ReplayedError),
    ("stale", channel.StaleError),
])
def test_a_faulty_envelope_fails_a_batch_as_it_fails_a_per_message_send(monkeypatch, fault, error):
    routes, payloads = [("cloud", "ledger")] * 3, [b"first", b"second", b"third"]
    outcomes = []
    for batched in (True, False):
        sim = Simulator(make_cfg(rounds=1))
        link, _ = sim.link("cloud", "ledger")
        withheld = channel.seal(link, sim._stamp(["cloud"], 0)[0], b"late",
                                used_nonces=sim.sent_nonces["cloud"])
        sim.clock += sim.rules.freshness_window + 1
        with monkeypatch.context() as m:
            sealed, opened = _wire_adversary(m, fault, withheld)
            with pytest.raises(error):
                if batched:
                    sim._send(None, 0, "ledger_log", routes, payloads)
                else:  # each message a batch of one
                    for route, payload in zip(routes, payloads):
                        sim._send(None, 0, "ledger_log", [route], [payload])
        # the faulty second message fails: the third is neither sealed nor opened
        assert len(sealed) == len(opened) == 2
        outcomes.append((sim.sent_nonces, {pair: seen for pair, (_, seen) in sim.links.items()}))
    assert outcomes[0] == outcomes[1]


def test_a_round_builds_no_cipher(monkeypatch):
    # each link builds its cipher with the simulator; a seed no other test uses
    # keeps any cipher built elsewhere out of the count
    built = []

    def counted(key):
        built.append(key)
        return cipher(key)

    cipher = channel.ChaCha20Poly1305
    monkeypatch.setattr(channel, "ChaCha20Poly1305", counted)
    sim = Simulator(make_cfg(seed=8191, fleet={"n_nodes": 4}))
    assert len(built) == len(sim.links) == 2 * 4 + 1
    del built[:]
    for r in range(2):
        report, _ = sim.run_round(r)
        assert not report.aborted
        assert built == []


@pytest.mark.parametrize("receiver", ["node-1", "ledger"])
def test_the_cloud_cannot_speak_for_a_node_on_a_link_the_protocol_lacks(receiver):
    # the cloud holds node-1's edge key and the ledger key; sealing under them
    # "from node-0" must not reach node-1 or the ledger
    sim = Simulator(make_cfg(rounds=1))
    sim.run_round(0)
    key = sim.keys.k_pc["node-1"] if receiver == "node-1" else sim.keys.k_bc
    tag = channel.FreshnessTag(nonce=bytes(16), timestamp=sim.clock, round=0)
    env = channel.seal(channel.Link("node-0", receiver, key), tag, b"forged")
    forged = orchestrator.WireMessage("feedback", env)
    report = attacks._deliver(sim, "forge", [0], lambda i, seed: forged)
    assert report.detected == 1
    assert json.loads(report.notes) == {"UnknownPartyError": 1}


def test_the_ledger_logs_the_bytes_the_cloud_opened():
    sim = Simulator(make_cfg(rounds=1))
    _, trace = sim.run_round(0, record=True)

    def plaintext(msg):
        link, _ = sim.link(msg.envelope.sender, msg.envelope.receiver)
        return channel.open_envelope(link, msg.envelope, sim.rules.freshness_window, set(),
                                     sim.clock)

    opened = {m.envelope.sender: plaintext(m) for m in trace.messages if m.kind == "local_update"}
    # the first ledger log is one batch: each update's bytes, length-prefixed, in node order
    batch = plaintext(next(m for m in trace.messages if m.kind == "ledger_log"))
    assert batch == b"".join(encoding.enc_bytes(opened[n]) for n in NODES)


def test_admission_encodes_no_payload(monkeypatch):
    # the contract hashes the payload's encoding inside the bytes the ledger
    # received, so admitting the roster re-encodes nothing
    sim = Simulator(make_cfg(rounds=1))
    calls, inside = [], []
    enc_vec, admit = encoding.enc_vec, Simulator._admit

    def spy(v):
        if inside:
            calls.append(v)
        return enc_vec(v)

    def admitting(self, *args):
        inside.append(True)
        try:
            return admit(self, *args)
        finally:
            inside.pop()

    for module in (encoding, masking, orchestrator, attacks):
        monkeypatch.setattr(module, "enc_vec", spy)
    monkeypatch.setattr(Simulator, "_admit", admitting)
    report, _ = sim.run_round(0)
    assert not report.aborted and report.blocks_appended > 0
    assert calls == []


def test_the_cloud_encodes_the_updates_in_one_pass_while_masking_and_sending(monkeypatch):
    # the fleet's masked payloads are encoded together, once, and each node's
    # bytes and hash are built from its row; the cloud hashes the payload's
    # encoding inside the bytes it received
    sim = Simulator(make_cfg(rounds=1))
    calls, row_calls, inside = [], [], []
    enc_vec, enc_rows = encoding.enc_vec, encoding.enc_rows
    mask_and_send = Simulator._mask_and_send

    def spy(v):
        if inside:
            calls.append(v)
        return enc_vec(v)

    def rows_spy(m):
        if inside:
            row_calls.append(m)
        return enc_rows(m)

    def sending(self, *args):
        inside.append(True)
        try:
            return mask_and_send(self, *args)
        finally:
            inside.pop()

    for module in (encoding, masking, orchestrator, attacks):
        monkeypatch.setattr(module, "enc_vec", spy)
    for module in (encoding, masking):
        monkeypatch.setattr(module, "enc_rows", rows_spy)
    monkeypatch.setattr(Simulator, "_mask_and_send", sending)
    report, _ = sim.run_round(0)
    assert not report.aborted and report.blocks_appended > 0
    assert calls == []
    assert [m.shape for m in row_calls] == [(len(NODES), sim.dim + 1)]


def _benchmark_cfg(n_nodes, feedback, rounds, output_dir=None, seed=5):
    """A benchmark workload's config at the seed, 5 unless given, built here on its own."""
    return config.from_dict({
        "seed": seed,
        "rounds": rounds,
        "fleet": {"n_nodes": n_nodes, "samples_per_node": 100, "feature_dim": 8,
                  "heterogeneity": 0.3},
        "privacy": {"eps_max": 8.0, "budget_cap": 500.0},
        "feedback": {"enabled": feedback},
        "integration_site": "node",
        "threat_schedule": 0.1,
        "output_dir": output_dir,
    })


def _artifact_digests(cfg):
    Simulator(cfg).run()
    return {name: hashlib.sha256(pathlib.Path(cfg.output_dir, name).read_bytes()).hexdigest()
            for name in ("metrics.jsonl", "chain.json", "explanations.jsonl")}


def test_the_fleet256_benchmark_run_keeps_its_artifact_bytes(tmp_path):
    digests = _artifact_digests(_benchmark_cfg(256, False, 2, str(tmp_path)))
    assert digests == {
        "metrics.jsonl": "672236cf5278d44b0e5edcaedb0ab9b75b4ac6a48a1e137b7b4aaa6a6c627dbf",
        "chain.json": "220e0fd7ba1c2aa761632f71d3313fc4caacb9998858a4acc0fdbc2400fdbbfb",
        "explanations.jsonl": hashlib.sha256(b"").hexdigest(),
    }


def test_the_fleet64_feedback_benchmark_run_keeps_its_artifact_bytes(tmp_path):
    # 64 nodes sort as node-0, node-1, node-10, ...: a pass that mixed node
    # order with generation order would change these digests
    digests = _artifact_digests(_benchmark_cfg(64, True, 2, str(tmp_path)))
    assert digests == {
        "metrics.jsonl": "74be091100f785fe53782a3a02383bffb437782f8d5413a2ea49042866f9b78c",
        "chain.json": "9823e0720e7563bc06dd07b5e5e0df67b106ee5da470c30d5914c742174e4229",
        "explanations.jsonl": "915e88659ec1d21a3f73570be064069444a500af94dd1e08bd20856dd8631271",
    }


def test_the_attack_fleet16_benchmark_run_and_suite_keep_their_bytes(tmp_path):
    digests = _artifact_digests(_benchmark_cfg(16, True, 4, str(tmp_path)))
    assert digests == {
        "metrics.jsonl": "10003b745468d2b2ed0582efff2443055bfd16e66bedabb64c38107aa8c991ec",
        "chain.json": "f5c6832b6205fac5c65ceb344cc4b1fa61ab2c4305cd66cf166854e7e39898d4",
        "explanations.jsonl": "f561669a90b1261bf34f5088e9aa5c46a73a85d06e9eb52eff2da8696ae2e493",
    }
    # the benchmark's 50 injection seeds per kind at seed 5
    seeds = [int.from_bytes(hashlib.sha256(f"attack:5:{i}".encode()).digest()[:4], "big")
             for i in range(50)]
    reports = attacks.run_attack_suite(_benchmark_cfg(16, True, 4), seeds)
    # the harness's 3x honest norm bound admits 43 of the 50 poisons; eavesdrop injects once
    assert {r.kind: (r.detected, r.injected) for r in reports} == {
        **dict.fromkeys(attacks.ATTACK_KINDS, (50, 50)), "poison_update": (7, 50),
        "eavesdrop": (1, 1),
    }
    assert hashlib.sha256(attacks.reports_to_json(reports).encode()).hexdigest() == (
        "0607cad2cb117e98e29049e16478cb3c876251c26d11b770c69d03adba033d8d"
    )


# the benchmark's held-out seed: a change tuned on seed 5 must keep these bytes too
HELD_OUT_DIGESTS = {
    "fleet256-nofeedback": ((256, False, 2), {
        "metrics.jsonl": "7ad35e0535f7e11d49594f5461e3d91d72c7e0582d3a2669d26c2967aa69f1ad",
        "chain.json": "7ac59de2bda7b37f13649744d6b2be0a159692d66f6ad182a597f1c69a7f0cdd",
        "explanations.jsonl": hashlib.sha256(b"").hexdigest(),
    }),
    "fleet64-feedback": ((64, True, 2), {
        "metrics.jsonl": "d41a0f835df23d7b3dfea31c1ca2405a1de68e80e671ef0e5ac475726497d759",
        "chain.json": "45f41e7ad59b9074857f763c0fb8db02c1502e8331fdceeefdfe678e9ddd9d5d",
        "explanations.jsonl": "307b02e48e30755c902fffafe5ec78036dd9e558cd0708ebd32e951c2aa4d746",
    }),
    "attack-fleet16": ((16, True, 4), {
        "metrics.jsonl": "35893f15752535028abae69fb8ba6033af99df3d7c315ab50e1cced78bf9135c",
        "chain.json": "d8322d7e78e3314a75597256636b62be1dee64a599f8782df822ef7701349a20",
        "explanations.jsonl": "9521bcf64e8839e7593e305e33a03ce99c0efe2d33ae94dd73802c60dd1cae8d",
    }),
}


@pytest.mark.parametrize("workload", sorted(HELD_OUT_DIGESTS))
def test_the_benchmark_runs_keep_their_artifact_bytes_at_the_held_out_seed(tmp_path, workload):
    shape, want = HELD_OUT_DIGESTS[workload]
    assert _artifact_digests(_benchmark_cfg(*shape, str(tmp_path), seed=7919)) == want


def test_the_attack_suite_keeps_its_bytes_at_the_held_out_seed():
    seeds = [int.from_bytes(hashlib.sha256(f"attack:7919:{i}".encode()).digest()[:4], "big")
             for i in range(50)]
    reports = attacks.run_attack_suite(_benchmark_cfg(16, True, 4, seed=7919), seeds)
    assert {r.kind: (r.detected, r.injected) for r in reports} == {
        **dict.fromkeys(attacks.ATTACK_KINDS, (50, 50)), "poison_update": (40, 50),
        "eavesdrop": (1, 1),
    }
    assert hashlib.sha256(attacks.reports_to_json(reports).encode()).hexdigest() == (
        "27f723ddb368d4729be4dd1f5536bf138f0fa35f21910cd6b020e66714d6469b"
    )


@pytest.mark.parametrize("enabled", [True, False], ids=["feedback-on", "feedback-off"])
def test_each_local_update_is_decoded_once_a_round(monkeypatch, enabled):
    sim = Simulator(make_cfg(rounds=2, feedback={"enabled": enabled}))
    decoded = []
    decode_updates = masking.decode_updates

    def counted(blobs, senders):
        decoded.extend(blobs)
        return decode_updates(blobs, senders)

    monkeypatch.setattr(masking, "decode_updates", counted)
    for r in range(2):
        report, _ = sim.run_round(r)
        assert not report.aborted
        assert len(decoded) == len(NODES) * (r + 1)


def test_a_logged_update_changed_on_the_ledger_leg_raises_protocol_violation(monkeypatch):
    sim = Simulator(make_cfg(rounds=1))
    send = sim._send

    def changed(got):
        # the middle byte of node-0's entry, the batch's first: the batch's
        # own middle byte lies in node-1's entry
        i = 4 + int.from_bytes(got[:4], "big") // 2
        return got[:i] + bytes([got[i] ^ 1]) + got[i + 1:]

    def one_byte_changed(trace, r, kind, routes, payloads, tags=None):
        opened = send(trace, r, kind, routes, payloads, tags)
        return [
            changed(got) if receiver == "ledger" else got
            for (_, receiver), got in zip(routes, opened)
        ]

    monkeypatch.setattr(sim, "_send", one_byte_changed)
    with pytest.raises(orchestrator.ProtocolViolation, match="node-0"):
        sim.run_round(0)
    assert len(sim.chain) == 1 and sim.pending == []
    assert all(sim.budget.spent_for(n) == 0.0 for n in NODES)


@pytest.mark.parametrize(
    "change, side",
    [(lambda b: b + b"\x00", "run past"), (lambda b: b[:-1], "stop short of")],
    ids=["one-byte-past", "one-byte-short"],
)
def test_a_local_update_that_does_not_fill_its_layout_raises_protocol_violation(
    monkeypatch, change, side
):
    sim = Simulator(make_cfg(rounds=1))
    send = sim._send

    def node_0_update_changed(trace, r, kind, routes, payloads, tags=None):
        opened = send(trace, r, kind, routes, payloads, tags)
        return [
            change(got) if kind == "local_update" and sender == "node-0" else got
            for (sender, _), got in zip(routes, opened)
        ]

    monkeypatch.setattr(sim, "_send", node_0_update_changed)
    with pytest.raises(orchestrator.ProtocolViolation, match=f"update from node-0: .* {side}"):
        sim.run_round(0)
    assert len(sim.chain) == 1 and sim.pending == []
    assert all(sim.budget.spent_for(n) == 0.0 for n in NODES)
    assert sim.global_params.version == 0


def test_the_mask_plan_is_built_by_the_first_round_not_by_construction():
    masking._plan.cache_clear()
    sim = Simulator(make_cfg(rounds=1, fleet={"n_nodes": 12}))
    assert masking._plan.cache_info().currsize == 0
    sim.run_round(0)
    assert masking._plan.cache_info().currsize == 1


# each takes the batch the ledger opened and the entries the cloud sent in it
MALFORMED_BATCHES = {
    "cut-prefix": (lambda got, entries: got[:2], 0),
    "prefix-past-end": (lambda got, entries: len(got).to_bytes(4, "big") + got[4:], 0),
    "trailing-byte": (lambda got, entries: got + b"\x00", -1),
    "one-more": (lambda got, entries: got + encoding.enc_bytes(entries[0]), -1),
    "one-fewer": (lambda got, entries: got[: len(got) - 4 - len(entries[-1])], -1),
}


@pytest.mark.parametrize("forward, actors", [
    (0, NODES), (1, ["cloud"]), (2, NODES),
], ids=["updates", "global-model", "fused-models"])
@pytest.mark.parametrize("malformed", sorted(MALFORMED_BATCHES))
def test_a_malformed_ledger_batch_raises_protocol_violation_and_stages_nothing(
    monkeypatch, forward, actors, malformed
):
    malform, named = MALFORMED_BATCHES[malformed]
    sim = Simulator(make_cfg(rounds=1))
    forward_, send, sent, staged = sim._forward, sim._send, [], []

    def recording(trace, r, ids, entries):
        sent.append(entries)
        return forward_(trace, r, ids, entries)

    def malforming(trace, r, kind, routes, payloads, tags=None):
        opened = send(trace, r, kind, routes, payloads, tags)
        if kind != "ledger_log" or len(sent) - 1 != forward:
            return opened
        staged.append(len(sim.pending))
        return [malform(opened[0], sent[-1])]

    monkeypatch.setattr(sim, "_forward", recording)
    monkeypatch.setattr(sim, "_send", malforming)
    with pytest.raises(orchestrator.ProtocolViolation, match=actors[named]):
        sim.run_round(0)
    # no block of the malformed batch was staged, and nothing was committed
    assert staged and len(sim.pending) == staged[0]
    assert len(sim.chain) == 1
    assert all(sim.budget.spent_for(n) == 0.0 for n in NODES)

def test_each_logged_block_takes_its_payload_hash_and_tag_from_what_its_sender_sent():
    sim = Simulator(make_cfg(rounds=1))
    report, trace = sim.run_round(0, record=True)
    assert not report.aborted
    blocks = sim.chain[1:]
    feedback_tags = {m.envelope.sender: m.envelope.freshness
                     for m in trace.messages if m.kind == "feedback"}
    fused = [b for b in blocks if b.meta.kind == "feedback"]
    assert [b.meta.actor_id for b in fused] == NODES
    for b in fused:
        node = b.meta.actor_id
        assert b.payload_hash == canonical_hash(orchestrator.params_bytes(sim.node_params[node]))
        assert b.meta.freshness == feedback_tags[node]
    # the updates' batch, the global model's and the fused models' batch
    logs = [m.envelope for m in trace.messages if m.kind == "ledger_log"]
    assert len(logs) == 3
    [global_block] = [b for b in blocks if b.meta.kind == "global_model"]
    assert global_block.meta.freshness == logs[1].freshness
    nonces = [b.meta.freshness.nonce for b in sim.chain]
    assert len(set(nonces)) == len(nonces)

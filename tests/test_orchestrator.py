"""Round loop: determinism, ledger ordering, budget closure, abort behavior."""

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
    attacks, channel, config, feedback, ledger, masking, models, orchestrator, privacy, telemetry,
)
from fleetfl.encoding import canonical_hash, enc_str, hash_vector, sub_seed
from fleetfl.orchestrator import Simulator, run

NODES = ["node-0", "node-1", "node-2"]
# local updates in, their ledger logs plus the global model's, then distribution
WIRE_HEAD = (
    [("local_update", n, "cloud") for n in NODES]
    + [("ledger_log", "cloud", "ledger")] * 4
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
    # all three ledger hops tick the clock before any check, so with a
    # 3-tick window node-0's and node-1's updates are stale and node-2's is not
    cfg = make_cfg(rounds=1, privacy={"eps_max": 4.0, "budget_cap": 500.0})
    sim = Simulator(cfg)
    sim.rules.freshness_window = 3
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
    pytest.param(5, 2, id="node"),
    pytest.param(10, 4, id="node-10nodes"),
])
def test_fusion_matches_a_hand_recomputed_oracle(monkeypatch, n_nodes, seed):
    # at these seeds and with 20 validation rows some corrections gain accuracy,
    # so the fusion weights are not pinned at w_min
    sim = Simulator(make_cfg(
        seed=seed, rounds=1, fleet={"n_nodes": n_nodes}, feedback={"max_validation_samples": 20},
    ))
    corrections, global_deltas = [], []
    correct_fleet, integrate = feedback.correct_fleet, feedback.integrate

    def recorded_correction(*args, **kwargs):
        out = correct_fleet(*args, **kwargs)
        corrections.extend(out)
        return out

    def recorded_integrate(x, y, w):
        global_deltas.append(np.array(y, dtype=np.float64))
        return integrate(x, y, w)

    monkeypatch.setattr(feedback, "correct_fleet", recorded_correction)
    monkeypatch.setattr(feedback, "integrate", recorded_integrate)
    prev = sim.global_params.as_vector()
    report, _ = sim.run_round(0)
    assert not report.aborted
    assert len(corrections) == len(sim.node_ids)  # one per node, in node order
    assert any(np.any(c.delta != 0.0) for c in corrections)
    y = global_deltas[0]
    assert all(np.array_equal(d, y) for d in global_deltas)
    np.testing.assert_allclose(sim.global_params.as_vector(), prev + y, rtol=0, atol=1e-12)

    total = sum(sim._parts[n][0].n_samples for n in sim.node_ids)
    w_min, n_ref = feedback.W_MIN, feedback.N_REF

    def fused(x, gain, stability):
        score_local = max(0.0, gain) * stability
        score_global = math.log1p(total) / math.log1p(n_ref)
        w_local = min(max(score_local / (score_local + score_global), w_min), 1.0 - w_min)
        return prev + w_local * x + (1.0 - w_local) * y, w_local

    expected, w_locals = {}, []
    for node, c in zip(sim.node_ids, corrections):
        expected[node], w_local = fused(
            c.delta, c.quality.accuracy_gain, c.quality.explanation_stability
        )
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
        "metrics.jsonl": "66f0338aa56c939e8145e245abdfc96c49f3c8832ab7ef62c864decfa12e74a6",
        "chain.json": "e57a2873c97a76a8350623dae9759e7e76118752f3e75f9262b852f54e4beb2d",
        "explanations.jsonl": "df33ead3a40fbac5c4aa57c8eda55499fa2f23a69c026d983a48b2e29444dcc8",
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
        "metrics.jsonl": "6bf038cc9934270b4b87bb1a276c3a6dd077d76d86dac2f25dcaa659cfa85826",
        "chain.json": "68ae13e2dc5f51b6020b6cde455c9b130c83a8effa733e9d7e90e9ef4c9b5c15",
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
        "metrics.jsonl": "eec96a8fc09d4d98ab480e39b6b0f0f5b7b480b2e5832ff6366a70e9370d4449",
        "chain.json": "e9bba48a8e59143acaaaa94d82f8ef10501b8a24be6f5003a8f33247c7d6e101",
    }


def test_small_no_noise_run_bytes_are_pinned(tmp_path):
    # eps_max inf: no node draws noise, so each update is only clipped and
    # scaled; the digests were recorded before the privacy stage ran as a fleet
    run(make_cfg(fleet={"n_nodes": 6}, feedback={"enabled": False}, output_dir=str(tmp_path)))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("metrics.jsonl", "chain.json")
    }
    assert digests == {
        "metrics.jsonl": "d356a3a3d3dbfb2d003a252c7626c4a904efe51f73de8dae11822e06020ad879",
        "chain.json": "37c9ee2d22c860c5f68851110a2708bb173a203decaaebcf2d71125d91f23f80",
    }


def _per_node_train_and_privatise(sim, r):
    """The privacy stage as a loop of one clip and one noise call per node,
    returning the sample-scaled updates stacked in node order."""
    cfg = sim.cfg
    threat = cfg.threat_for_round(r)
    trains = [sim._parts[n][0] for n in sim.node_ids]
    updates = sim._train([sim.node_params[n] for n in sim.node_ids], trains, "train", r)
    scaled = []
    for node, train, upd in zip(sim.node_ids, trains, updates):
        ctx = privacy.assess_context(train.sensitivity, threat, upd.loss_trace, cfg.privacy)
        clipped = privacy.clip_update(upd, ctx.clip_norm)
        noised = privacy.add_dp_noise(clipped, ctx, sub_seed(cfg.seed, "noise", r, node))
        scaled.append(noised.grad * upd.n_samples)
    return np.stack(scaled), updates


def test_the_stacked_privacy_stage_equals_a_per_node_loop():
    # clip norm 0.4 clips three of the six updates and leaves three within it
    sim = Simulator(make_cfg(
        rounds=1, fleet={"n_nodes": 6},
        privacy={"eps_max": 8.0, "budget_cap": 500.0, "clip_norm": 0.4},
    ))
    scaled, ctxs, updates = sim._train_and_privatise(0)
    expected, ref_updates = _per_node_train_and_privatise(sim, 0)
    assert list(ctxs) == sim.node_ids
    raw_norms = [float(np.linalg.norm(u.grad)) for u in updates]
    assert 0 < sum(norm > 0.4 for norm in raw_norms) < len(raw_norms)
    assert len({c.epsilon for c in ctxs.values()}) > 1
    assert np.array_equal(scaled, expected)
    assert all(np.array_equal(u.grad, v.grad) for u, v in zip(updates, ref_updates))


def test_every_logged_explanation_is_the_one_validation_compared(monkeypatch):
    sim = Simulator(make_cfg(rounds=2, fleet={"n_nodes": 4}))
    reports, streams = [], []
    validate_fleet, sub_seed_ = feedback.validate_fleet, orchestrator.sub_seed

    def recorded_validation(*args, **kwargs):
        out = validate_fleet(*args, **kwargs)
        reports.extend(out)
        return out

    def refused(*args, **kwargs):
        raise AssertionError("a round explains only inside validation")

    def recorded_stream(seed, *parts):
        streams.append(parts[0] if parts else None)
        return sub_seed_(seed, *parts)

    monkeypatch.setattr(feedback, "validate_fleet", recorded_validation)
    monkeypatch.setattr(feedback, "explain", refused)
    monkeypatch.setattr(orchestrator, "sub_seed", recorded_stream)
    sim.run()
    assert "stability" not in streams
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
    quality = feedback.FeedbackQuality(accuracy_gain=0.3, explanation_stability=0.5)
    w = feedback.compute_weights(quality, 100 * n, 0.05, 1000)
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
        ({}, [m for n in NODES for m in (("feedback", n, "cloud"), ("ledger_log", "cloud", "ledger"))]),
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
    assert calls["feedback.compute_weights"] == calls["feedback.integrate"] == 3  # one per node
    assert calls["channel.seal"] > 0 and calls["channel.open"] > 0
    assert orchestrator.seal is channel.seal  # restored on exit
    tracer = tracing.Tracer()
    with tracer.installed():  # its attacks.copy has only deepcopy
        attacks.run_attack_suite(make_cfg(rounds=1), [0, 1])
    assert tracer.summary()["calls"]["attacks.inject"] == 6  # three wire kinds, two seeds


def _replace_train_features(sim, node, features):
    train, hold = sim._parts[node]
    sim._parts[node] = (
        telemetry.NodePartition(node, features, train.labels, train.sensitivity), hold
    )


def test_divergence_names_the_node_that_diverged_when_it_is_not_the_first():
    sim = Simulator(make_cfg(rounds=1))
    train = sim._parts["node-1"][0]
    # margins overflow after the first step, so the epoch loss is not finite
    _replace_train_features(sim, "node-1", np.full_like(train.features, 1e200))
    with np.errstate(all="ignore"), pytest.raises(
        models.TrainingDivergedError, match="on node node-1 after epoch 1"
    ):
        sim._train_and_privatise(0)


def test_a_step_that_overflows_a_parameter_raises_value_error():
    sim = Simulator(make_cfg(rounds=1, train={"lr": 1e300}))
    train = sim._parts["node-2"][0]
    # lr * gradient overflows on the first step of node-2 only
    _replace_train_features(sim, "node-2", np.full_like(train.features, 1e10))
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match="model parameters must be finite"
    ):
        sim._train_and_privatise(0)


@pytest.mark.parametrize("enabled, fleet_calls", [(False, 1), (True, 2)], ids=["off", "on"])
def test_a_round_trains_the_fleet_in_stacked_calls(monkeypatch, enabled, fleet_calls):
    calls = {"train_fleet": [], "train_local": 0}

    def fleet(params, parts, **kwargs):
        calls["train_fleet"].append(len(parts))
        return models.train_fleet(params, parts, **kwargs)

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


def test_a_feedback_round_builds_one_generator_per_node_per_pass(monkeypatch):
    # training, DP noise, Model 2, validation and correction draw one stream per
    # node each (31 in all at n = 6); a second explanation draw would add n more
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
    assert len(built) <= 5 * n + 2


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
        assert valid + 1e-12 >= vset.quorum_fraction * sum(vset.stakes[v] for v in committee)
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
    assert h.hexdigest() == "e0710b723b2ff44756b52ffc442be866fdd0f8e9d126c490e55b5b946093c0fb"


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
    logged = [plaintext(m) for m in trace.messages if m.kind == "ledger_log"][: len(NODES)]
    assert {masking.MaskedUpdate.from_bytes(b).node_id: b for b in logged} == opened


def test_the_fleet256_benchmark_run_keeps_its_artifact_bytes(tmp_path):
    # the benchmark's fleet256-nofeedback config at seed 5, built here on its own
    cfg = config.from_dict({
        "seed": 5,
        "rounds": 2,
        "fleet": {"n_nodes": 256, "samples_per_node": 100, "feature_dim": 8,
                  "heterogeneity": 0.3},
        "privacy": {"eps_max": 8.0, "budget_cap": 500.0},
        "feedback": {"enabled": False},
        "integration_site": "node",
        "threat_schedule": 0.1,
        "output_dir": str(tmp_path),
    })
    Simulator(cfg).run()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("metrics.jsonl", "chain.json")}
    assert digests == {
        "metrics.jsonl": "d232325c5991d60a6908a9cc12002fc3446b78b9c3777755070d4bafbc6276eb",
        "chain.json": "6e44f4b9ea6155ccba473e13162fa40efa2aacf515fc0cd88d93004451d7566c",
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["feedback-on", "feedback-off"])
def test_each_local_update_is_decoded_once_a_round(monkeypatch, enabled):
    sim = Simulator(make_cfg(rounds=2, feedback={"enabled": enabled}))
    decoded = []
    from_bytes = masking.MaskedUpdate.from_bytes

    def counted(b):
        decoded.append(b)
        return from_bytes(b)

    monkeypatch.setattr(masking.MaskedUpdate, "from_bytes", staticmethod(counted))
    for r in range(2):
        report, _ = sim.run_round(r)
        assert not report.aborted
        assert len(decoded) == len(NODES) * (r + 1)


def test_a_logged_update_changed_on_the_ledger_leg_raises_protocol_violation(monkeypatch):
    sim = Simulator(make_cfg(rounds=1))
    transmit = sim._transmit

    def one_byte_changed(trace, tag, sender, receiver, kind, payload):
        got = transmit(trace, tag, sender, receiver, kind, payload)
        if receiver == "ledger":
            i = len(got) // 2
            got = got[:i] + bytes([got[i] ^ 1]) + got[i + 1:]
        return got

    monkeypatch.setattr(sim, "_transmit", one_byte_changed)
    with pytest.raises(orchestrator.ProtocolViolation, match="node-0"):
        sim.run_round(0)
    assert len(sim.chain) == 1 and sim.pending == []
    assert all(sim.budget.spent_for(n) == 0.0 for n in NODES)

"""The fleetfl benchmark: workloads, the measured cycle, output checks, metrics.

Load model: one process, one thread (run.py pins the BLAS pools to one
thread), closed loop: each round starts only after the previous one ends.
A run repeats one cycle until ``--seconds`` have passed, and runs at least two
cycles. A cycle builds a ``Simulator`` for the workload's config and calls its
``run()``, which runs the workload's rounds, verifies the chain and writes the
artifacts. On attack-fleet16 the cycle then runs the adversary suite.

Every cycle of a run uses the same seed, so every cycle must write the same
``metrics.jsonl`` and ``chain.json`` bytes; that is one of the output checks.
With ``--trace 1`` odd cycles are traced and even ones are not, so one run
gives the per-layer figures and the tracing overhead. Per-layer figures are
per traced cycle. End-to-end times come from untraced cycles and are scaled
to the host's speed (see REF_SECONDS).

The metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import traceback
from time import perf_counter

import cryptography
import numpy as np

import tracing
from fleetfl import attacks, config, ledger
from fleetfl.attacks import ATTACK_KINDS
from fleetfl.orchestrator import Simulator

MIN_CYCLES = 2  # the determinism check compares two cycles
# The host's speed swings up to twofold over seconds. Each timed step is
# scaled by REF_SECONDS / (time of reference() just before and after it), so
# times read as if on a host where the reference takes REF_SECONDS.
REF_SECONDS = 0.02
RESIDUAL_LIMIT = 1e-9  # the acceptance gate's mask-cancellation tolerance
ARTIFACTS = ("metrics.jsonl", "chain.json")  # must be byte-identical per seed
CHANNEL_ERRORS = ("TamperedError", "ReplayedError", "StaleError", "NonceReuseError",
                  "UnknownPartyError")
CHANNEL_CALLS = ("channel.seal", "channel.open", "channel.edge_cloud_key")
CONTRACT_REASONS = ("hash_mismatch", "replay", "stale", "budget_exceeded", "norm_bound",
                    "declared_samples")


@dataclasses.dataclass(frozen=True)
class Workload:
    n_nodes: int
    feedback: bool
    rounds: int  # rounds per cycle
    attack_seeds: int  # injections per attack kind in each suite; 0 runs no suite


WORKLOADS = {
    # feedback/explain and scalar predict dominate the round
    "fleet64-feedback": Workload(n_nodes=64, feedback=True, rounds=2, attack_seeds=0),
    # pairwise mask derivation dominates; no feedback work at all
    "fleet256-nofeedback": Workload(n_nodes=256, feedback=False, rounds=2, attack_seeds=0),
    # the adversary harness: deep copies, reject paths, verify_chain reads.
    # Four rounds give its finalize step a chain long enough to time steadily;
    # 50 injections per kind keep each attack phase short next to the host's
    # speed swings, which reference() brackets.
    "attack-fleet16": Workload(n_nodes=16, feedback=True, rounds=4, attack_seeds=50),
}


def make_config(wl: Workload, seed: int, output_dir: str) -> config.RunConfig:
    return config.from_dict({
        "seed": seed,
        "rounds": wl.rounds,
        "fleet": {"n_nodes": wl.n_nodes, "samples_per_node": 100, "feature_dim": 8,
                  "heterogeneity": 0.3},
        # a cap of 500 keeps every node in budget; with the default of 20 most
        # rounds abort and skip most layers
        "privacy": {"eps_max": 8.0, "budget_cap": 500.0},
        "feedback": {"enabled": wl.feedback},
        "integration_site": "node",
        "threat_schedule": 0.1,
        "output_dir": output_dir,
    })


def attack_seed_list(seed: int, n: int) -> list[int]:
    return [
        int.from_bytes(hashlib.sha256(f"attack:{seed}:{i}".encode()).digest()[:4], "big")
        for i in range(n)
    ]


def reference() -> float:
    """Seconds taken by a fixed computation that uses nothing from fleetfl.

    It mixes what the pipeline does: small numpy operations, hashing and dict
    updates in a Python loop.
    """
    t = perf_counter()
    rng = np.random.default_rng(0)
    table = {}
    for i in range(4000):
        v = rng.normal(size=9)
        table[i % 97] = hashlib.sha256(v.tobytes()).digest() + bytes(int(v @ v) % 7)
    return perf_counter() - t


def host_scale(ref_before: float, ref_after: float) -> float:
    """Factor that rescales a step timed between two reference runs to a host
    on which the reference takes REF_SECONDS."""
    return 2 * REF_SECONDS / (ref_before + ref_after)


class Probe:
    """Times every Simulator construction and round from outside.

    Installed for the whole run. With ``calibrate`` on (untraced cycles) it
    runs the reference after each timed call, outside the timed interval.
    """

    def __init__(self):
        self.inits: list[tuple] = []  # (seconds, scale, simulator)
        self.rounds: list[tuple] = []  # (seconds, scale, RoundReport)
        self.calibrate = False
        self.last_ref = REF_SECONDS
        self.ref_spent = 0.0  # reference time spent inside calls the caller timed

    def stamp(self) -> float:
        """Run the reference (when calibrating); return the latest reference time."""
        if self.calibrate:
            self.last_ref = reference()
            self.ref_spent += self.last_ref
        return self.last_ref

    @contextlib.contextmanager
    def installed(self):
        init, run_round = Simulator.__init__, Simulator.run_round

        def timed_init(sim, cfg):
            before = self.last_ref
            t = perf_counter()
            init(sim, cfg)
            d = perf_counter() - t
            self.inits.append((d, host_scale(before, self.stamp()), sim))

        def timed_round(sim, r, record=False):
            before = self.last_ref
            t = perf_counter()
            out = run_round(sim, r, record)
            d = perf_counter() - t
            self.rounds.append((d, host_scale(before, self.stamp()), out[0]))
            return out

        Simulator.__init__, Simulator.run_round = timed_init, timed_round
        try:
            yield self
        finally:
            Simulator.__init__, Simulator.run_round = init, run_round

    def take(self):
        inits, rounds = self.inits, self.rounds
        self.inits, self.rounds = [], []
        return inits, rounds


@dataclasses.dataclass
class Cycle:
    """Timed steps of one cycle, each as (seconds, host scale)."""

    traced: bool
    setup: list[tuple]  # every Simulator construction, the suite's included
    rounds: list[tuple]  # the rounds of the fleet run, not the suite's
    finalize: tuple  # run() minus its rounds: verify_chain + write_artifacts
    reports: list
    traces: list
    sim: Simulator
    suite: list | None = None
    suite_sim: Simulator | None = None
    honest_report: object = None
    honest_round_s: float = 0.0
    attack_phase: tuple = (0.0, 1.0)  # the suite minus its construction and honest round


def run_cycle(wl: Workload, cfg, seeds: list[int], probe: Probe, tracer) -> Cycle:
    def phase(name):
        if tracer is not None:
            tracer.phase = name

    probe.calibrate = tracer is None
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        probe.stamp()
        phase("setup")
        sim = Simulator(cfg)
        phase("run")
        probe.ref_spent = 0.0
        t = perf_counter()
        reports, traces = sim.run(record=tracer is not None)
        run_s = perf_counter() - t - probe.ref_spent
        inits, rounds = probe.take()
        before = probe.last_ref
        finalize = (run_s - sum(d for d, _, _ in rounds), host_scale(before, probe.stamp()))
        cycle = Cycle(tracer is not None, [(d, k) for d, k, _ in inits],
                      [(d, k) for d, k, _ in rounds], finalize, reports, traces, sim)
        if wl.attack_seeds:
            phase("suite")
            probe.ref_spent = 0.0
            t = perf_counter()
            cycle.suite = attacks.run_attack_suite(cfg, seeds)
            suite_s = perf_counter() - t - probe.ref_spent
            inits, rounds = probe.take()
            (init_s, init_k, cycle.suite_sim), = inits
            (cycle.honest_round_s, _, cycle.honest_report), = rounds
            before = probe.last_ref
            cycle.setup.append((init_s, init_k))
            cycle.attack_phase = (suite_s - init_s - cycle.honest_round_s,
                                  host_scale(before, probe.stamp()))
        phase(None)
    return cycle


def residual_max(traces) -> float:
    """max |sum of masked payloads - sum of raw updates| over the recorded rounds."""
    worst = 0.0
    for tr in traces:
        nodes = sorted(tr.masked)
        masked = np.sum([tr.masked[n].payload for n in nodes], axis=0)
        raw = np.sum([tr.raw_updates[n] for n in nodes], axis=0)
        worst = max(worst, float(np.max(np.abs(masked - raw))))
    return worst


def inspect_cycle(cycle: Cycle, cfg, seeds: list[int]) -> tuple[list[str], dict]:
    """Output checks on one finished cycle, plus the per-cycle facts they read."""
    problems = []
    out = cfg.output_dir
    digests = {}
    for name in ARTIFACTS:
        with open(os.path.join(out, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out, "chain.json")) as f:
        text = f.read()
    chain = ledger.import_chain(text)
    bad = ledger.verify_chain(chain)
    if bad is not None:
        problems.append(f"chain.json fails verify_chain after import_chain at block {bad}")
    if [b.block_hash for b in chain] != [b.block_hash for b in cycle.sim.chain]:
        problems.append("chain.json does not hold the simulator's chain")

    budget = cycle.sim.budget
    facts = {
        "digests": digests,
        "final_accuracy": cycle.reports[-1].global_accuracy,
        "blocks": len(cycle.sim.chain),
        "chain_bytes": len(text.encode()),
        "headroom_min": min(budget.budget_cap - budget.spent_for(n) for n in cycle.sim.node_ids),
    }
    if cycle.traced:
        facts["residual_max"] = residual_max(cycle.traces)
        if not facts["residual_max"] <= RESIDUAL_LIMIT:
            problems.append(f"mask residual {facts['residual_max']:.3e} exceeds {RESIDUAL_LIMIT}")
        envelopes, wire = {}, {}
        for tr in cycle.traces:
            for msg in tr.messages:
                envelopes[msg.kind] = envelopes.get(msg.kind, 0) + 1
                wire[msg.kind] = wire.get(msg.kind, 0) + len(msg.envelope.to_bytes())
        facts["envelopes"], facts["wire_bytes"] = envelopes, wire

    if cycle.suite is not None:
        by_kind = {r.kind: r for r in cycle.suite}
        if sorted(by_kind) != sorted(ATTACK_KINDS) or len(cycle.suite) != len(ATTACK_KINDS):
            problems.append(f"attack suite reported kinds {sorted(by_kind)}")
        for r in cycle.suite:
            if r.kind != "eavesdrop" and r.injected != len(seeds):
                problems.append(f"{r.kind}: {r.injected} injections judged, expected {len(seeds)}")
        if by_kind.get("eavesdrop") is None or by_kind["eavesdrop"].leaked is not False:
            problems.append("eavesdrop did not report leaked=False")
        if len(cycle.suite_sim.chain) != 1 + cycle.honest_report.blocks_appended:
            problems.append("the attack suite appended a block to the chain")
        facts["injected"] = sum(r.injected for r in cycle.suite)
        facts["undetected"] = sum(r.injected - r.detected for r in cycle.suite)
        facts["detected"] = {r.kind: r.detected for r in cycle.suite}
    return problems, facts


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    s = sorted(values)
    best = None
    for p in (50, 90, 99, 99.9):
        idx = max(0, math.ceil(p / 100 * len(s)) - 1)
        if len(s) - idx - 1 >= 10:
            best = (p, s[idx])
    return best


def end_to_end(wl: Workload, cycles: list[Cycle], facts: list[dict]) -> dict:
    """Every end-to-end figure, from the untraced cycles only.

    Times are scaled to the host's speed (see reference()); ``raw`` holds
    the same medians unscaled.
    """
    plain = [(c, f) for c, f in zip(cycles, facts) if not c.traced]
    rounds = [d * k for c, _ in plain for d, k in c.rounds]
    e2e = {
        "setup_s": statistics.median(d * k for c, _ in plain for d, k in c.setup),
        "round_s.p50": statistics.median(rounds),
        "node_rounds_per_s": statistics.median(
            wl.n_nodes * len(c.rounds) / sum(d * k for d, k in c.rounds) for c, _ in plain
        ),
        "finalize_s": statistics.median(c.finalize[0] * c.finalize[1] for c, _ in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_accuracy": facts[0]["final_accuracy"],
    }
    if wl.attack_seeds:
        e2e["injections_per_s"] = statistics.median(
            f["injected"] / (c.attack_phase[0] * c.attack_phase[1]) for c, f in plain
        )
        e2e["attack_undetected_frac"] = facts[0]["undetected"] / facts[0]["injected"]
        e2e["throughput_per_s"] = e2e["injections_per_s"]
    else:
        e2e["throughput_per_s"] = e2e["node_rounds_per_s"]
    raw = {
        "setup_s": statistics.median(d for c, _ in plain for d, _ in c.setup),
        "round_s.p50": statistics.median(d for c, _ in plain for d, _ in c.rounds),
        "finalize_s": statistics.median(c.finalize[0] for c, _ in plain),
        "reference_s": REF_SECONDS / statistics.median(k for c, _ in plain for _, k in c.rounds),
    }
    return e2e, raw


def per_layer(cycles: list[Cycle], facts: list[dict], tracer, round_p50: float) -> dict:
    """Per-layer figures from the traced cycles, each per traced cycle.

    These are unscaled seconds; ``round_p50`` is the untraced cycles' unscaled
    median round.
    """
    traced = [(c, f) for c, f in zip(cycles, facts) if c.traced]
    k = len(traced)
    s = tracer.summary()
    calls, total, counts = s["calls"], s["total"], tracer.counts

    def secs(*names):
        return sum(total[n] for n in names) / k

    m = {
        "telemetry.generate_fleet.s": secs("telemetry.generate_fleet"),
        "telemetry.partition.calls": counts["telemetry.partition"] / k,
        "models.train_local.calls": calls["models.train_local"] / k,
        "models.train_local.s": secs("models.train_local"),
        "models.predict.calls": counts["models.predict"] / k,
        "models.predict_batch.calls": counts["models.predict_batch"] / k,
        "models.eval.s": secs("models.evaluate", "models.false_positive_rate"),
        "privacy.s": secs("privacy.assess_context", "privacy.clip_update",
                          "privacy.add_dp_noise", "privacy.charge_budget"),
        "privacy.budget_headroom_min": min(f["headroom_min"] for _, f in traced),
        "masking.derive_masks.s": secs("masking.derive_masks"),
        "masking.derive_masks.round_share": s["in_round"]["masking.derive_masks"]
        / s["round_s"],
        "masking.pairs": counts["masking.pairs"] / k,
        "masking.apply_mask.s": secs("masking.apply_mask"),
        "masking.residual_max": max(f["residual_max"] for _, f in traced),
        "channel.seal.calls": calls["channel.seal"] / k,
        "channel.seal.s": secs("channel.seal"),
        "channel.open.calls": calls["channel.open"] / k,
        "channel.open.s": secs("channel.open"),
        "ledger.contract_validate.calls": calls["ledger.contract_validate"] / k,
        "ledger.contract_validate.s": secs("ledger.contract_validate"),
        "ledger.append_block.calls": calls["ledger.append_block"] / k,
        "ledger.append_block.s": secs("ledger.append_block"),
        "ledger.verify_chain.calls": calls["ledger.verify_chain"] / k,
        "ledger.verify_chain.s": secs("ledger.verify_chain"),
        "ledger.blocks": traced[0][1]["blocks"],
        "ledger.chain_bytes": traced[0][1]["chain_bytes"],
        "encoding.enc_vec.calls": counts["encoding.enc_vec"] / k,
        "encoding.canonical_hash.calls": counts["encoding.canonical_hash"] / k,
        "aggregation.s": secs(*(n for n in total if n.startswith("aggregation."))),
        "feedback.validate_predictions.s": secs("feedback.validate_predictions"),
        "feedback.explain.calls": calls["feedback.explain"] / k,
        "feedback.explain.s": secs("feedback.explain"),
        "feedback.local_correction.s": secs("feedback.local_correction"),
        "feedback.flagged_frac": counts["feedback.flagged"] / max(1, counts["feedback.validated"]),
        "orchestrator.run_round.self_s": s["self"]["orchestrator.run_round"] / k,
        "orchestrator.write_artifacts.s": secs("orchestrator.write_artifacts"),
        "attacks.inject.calls": calls["attacks.inject"] / k,
        "attacks.inject.s": secs("attacks.inject"),
        "attacks.honest_round.s": sum(c.honest_round_s for c, _ in traced) / k,
    }
    for kind in ("local_update", "ledger_log", "global_distribution", "feedback"):
        m[f"channel.envelopes.{kind}"] = sum(f["envelopes"].get(kind, 0) for _, f in traced) / k
        m[f"channel.wire_bytes.{kind}"] = sum(f["wire_bytes"].get(kind, 0) for _, f in traced) / k
    for cls in CHANNEL_ERRORS:
        m[f"channel.rejects.{cls}"] = sum(counts[f"{n}.raised.{cls}"] for n in CHANNEL_CALLS) / k
    for reason in CONTRACT_REASONS:
        m[f"ledger.rejects.{reason}"] = counts[f"ledger.rejects.{reason}"] / k
    copies, attack_phase = tracer.attack_phase_parts()
    m["attacks.inject_copy_share"] = copies / attack_phase if attack_phase else 0.0
    suites = [f for _, f in traced if "injected" in f]
    m["attacks.undetected_frac"] = suites[0]["undetected"] / suites[0]["injected"] if suites else 0.0
    for kind in ATTACK_KINDS:
        m[f"attacks.detected.{kind}"] = suites[0]["detected"][kind] if suites else 0
    for layer in tracing.SPAN_LAYERS:
        prefix = layer + "."
        m[f"self_s.{layer}"] = sum(v for n, v in s["self"].items() if n.startswith(prefix)) / k
        m[f"round_share.{layer}"] = sum(
            v for n, v in s["in_round"].items() if n.startswith(prefix)) / s["round_s"]
    traced_p50 = statistics.median(d for c, _ in traced for d, _ in c.rounds)
    m["trace.overhead_s"] = traced_p50 - round_p50
    m["trace.overhead_frac"] = (traced_p50 - round_p50) / round_p50
    return m


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(root: str, argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fleetfl benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec(root)

    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(root, "perfbench", "_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    seeds = attack_seed_list(args.seed, wl.attack_seeds)
    probe = Probe()
    tracer = tracing.Tracer() if args.trace else None
    cycles, facts, problems = [], [], []
    attempted = failed = 0

    deadline = perf_counter() + args.seconds
    with probe.installed():
        while len(cycles) < MIN_CYCLES or perf_counter() < deadline:
            k = len(cycles)
            cfg = make_config(wl, args.seed, os.path.join(run_dir, f"cycle-{k}"))
            gc.collect()  # start every cycle from the same heap state
            try:
                cycle = run_cycle(wl, cfg, seeds, probe, tracer if args.trace and k % 2 else None)
            except Exception:
                traceback.print_exc()
                _, rounds = probe.take()
                attempted += len(rounds) + 1
                failed += 1
                problems.append(f"cycle {k} raised")
                break
            attempted += len(cycle.reports) + (cycle.suite is not None)
            failed += sum(r.aborted for r in cycle.reports)
            found, fact = inspect_cycle(cycle, cfg, seeds)
            problems += [f"cycle {k}: {p}" for p in found]
            if facts and fact["digests"] != facts[0]["digests"]:
                problems.append(f"cycle {k}: artifacts differ from cycle 0 with the same seed")
            if k:
                shutil.rmtree(cfg.output_dir)
            # keep the timings and facts, not the simulators and traces
            cycle.sim = cycle.suite_sim = cycle.traces = None
            cycles.append(cycle)
            facts.append(fact)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "cycles": len(cycles),
              "traced_cycles": sum(c.traced for c in cycles), "rounds_per_cycle": wl.rounds,
              "attack_seeds_per_kind": wl.attack_seeds, "problems": problems,
              "digests": facts[0]["digests"] if facts else None}
    if len(cycles) >= MIN_CYCLES:
        e2e, raw = end_to_end(wl, cycles, facts)
        e2e["rounds_failed_frac"] = failed / attempted
        plain = [c for c in cycles if not c.traced]
        rounds = [d * k for c in plain for d, k in c.rounds]
        result["end_to_end"], result["unscaled"] = e2e, raw
        result["round_s.tail"] = tail_percentile(rounds)
        result["round_samples"] = len(rounds)
        result["samples"] = {  # (unscaled seconds, host scale) pairs
            "round_s": [s for c in plain for s in c.rounds],
            "setup_s": [s for c in plain for s in c.setup],
            "finalize_s": [c.finalize for c in plain],
        }
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if args.trace:
            layers = per_layer(cycles, facts, tracer, raw["round_s.p50"])
            result["per_layer"] = layers
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            tracer.write(os.path.join(run_dir, "spans.jsonl"))
            values = layers
        else:
            values = e2e
        result["metrics"] = {n: {"value": values[n], "unit": units[n]} for n in names}
        report(result, wl)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems
    if "metrics" not in result:
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


def report(result: dict, wl: Workload) -> None:
    """Human-readable lines, printed before the JSON result line."""
    env = result["environment"]
    e2e = result["end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}"
          f"  trace {result['trace']}  cycles {result['cycles']}"
          f" ({result['traced_cycles']} traced, {result['rounds_per_cycle']} rounds each)")
    print(f"python {env['python']}  numpy {env['numpy']}  cryptography {env['cryptography']}"
          f"  nproc {env['nproc']}")
    tail = result["round_s.tail"]
    rows = [
        ("setup_s", "s", ""),
        ("round_s.p50", "s", f"n={result['round_samples']}; highest percentile with >=10 "
         f"beyond: " + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else "none")),
        ("node_rounds_per_s", "1/s", ""),
        ("finalize_s", "s", ""),
        ("peak_rss_mb", "MB", ""),
        ("rounds_failed_frac", "fraction", ""),
        ("final_accuracy", "fraction", "deterministic per seed"),
        ("injections_per_s", "1/s", ""),
        ("attack_undetected_frac", "fraction", ""),
        ("throughput_per_s", "1/s", "injections_per_s" if wl.attack_seeds
         else "node_rounds_per_s"),
    ]
    for name, unit, note in rows:
        if name in e2e:
            print(f"  {name:<24} {e2e[name]:>12.6g} {unit:<9} {note}")
        else:
            print(f"  {name:<24} {'n/a':>12} (not measured on this workload)")
    raw = result["unscaled"]
    print(f"  unscaled medians: setup {raw['setup_s']:.6g} s, round {raw['round_s.p50']:.6g} s,"
          f" finalize {raw['finalize_s']:.6g} s; reference {raw['reference_s']:.6g} s"
          f" (scaled to {REF_SECONDS} s)")
    for name, digest in result["digests"].items():
        print(f"  sha256 {name:<14} {digest}")
    if "per_layer" in result:
        layers = result["per_layer"]
        print("  share of fleet round time, self time per layer:")
        print("   " + "  ".join(f"{n[len('round_share.'):]} {v:.3f}" for n, v in layers.items()
                                if n.startswith("round_share.") and v))
        for name in ("masking.derive_masks.round_share", "attacks.inject_copy_share",
                     "masking.residual_max", "trace.overhead_s", "trace.overhead_frac"):
            print(f"  {name:<34} {layers[name]:.6g}")

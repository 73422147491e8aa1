"""Outside-in tracing of fleetfl's layers for the benchmark's traced cycles.

While installed, every public function of a layer, and every by-name import
binding the pipeline calls it through, is replaced by a wrapper that records a
span: name, start, end, parent span, round id and benchmark phase. Functions
called tens of thousands of times per round, such as ``models.predict``, get a
counter instead of a span so that tracing stays cheap. An exception raised
through any wrapper is counted by class and re-raised. Spans stay in memory
until the benchmark writes them out at the end.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import json
import types
from time import perf_counter

from fleetfl import (
    aggregation,
    attacks,
    channel,
    encoding,
    feedback,
    ledger,
    masking,
    models,
    orchestrator,
    privacy,
    telemetry,
)

# (span name, attribute, every object that holds a binding the pipeline calls)
SPANS = (
    ("telemetry.generate_fleet", "generate_fleet", (telemetry,)),
    ("telemetry.generate_holdout", "generate_holdout", (telemetry,)),
    ("models.train_local", "train_local", (models, orchestrator, feedback)),
    ("models.evaluate", "evaluate", (models, orchestrator, feedback)),
    ("models.false_positive_rate", "false_positive_rate", (models, orchestrator)),
    ("privacy.assess_context", "assess_context", (privacy,)),
    ("privacy.clip_update", "clip_update", (privacy,)),
    ("privacy.add_dp_noise", "add_dp_noise", (privacy,)),
    ("privacy.charge_budget", "charge_budget", (privacy,)),
    ("masking.derive_masks", "derive_masks", (masking,)),
    ("masking.apply_mask", "apply_mask", (masking,)),
    ("channel.seal", "seal", (channel, orchestrator, attacks)),
    ("channel.open", "open_envelope", (channel, orchestrator, attacks)),
    ("ledger.contract_validate", "contract_validate", (ledger,)),
    ("ledger.append_block", "append_block", (ledger,)),
    ("ledger.verify_chain", "verify_chain", (ledger,)),
    ("ledger.export_chain", "export_chain", (ledger,)),
    ("aggregation.preprocess_updates", "preprocess_updates", (aggregation,)),
    ("aggregation.smpc_sum", "smpc_sum", (aggregation,)),
    ("aggregation.fedavg_from_masked_sum", "fedavg_from_masked_sum", (aggregation,)),
    ("aggregation.privacy_adjust_global", "privacy_adjust_global", (aggregation,)),
    ("feedback.validate_predictions", "validate_predictions", (feedback,)),
    ("feedback.explain", "explain", (feedback,)),
    ("feedback.local_correction", "local_correction", (feedback,)),
    ("feedback.compute_weights", "compute_weights", (feedback,)),
    ("feedback.integrate", "integrate", (feedback,)),
    ("orchestrator.init", "__init__", (orchestrator.Simulator,)),
    ("orchestrator.run_round", "run_round", (orchestrator.Simulator,)),
    ("orchestrator.write_artifacts", "write_artifacts", (orchestrator.Simulator,)),
    ("attacks.run_attack_suite", "run_attack_suite", (attacks,)),
    ("attacks.inject", "inject", (attacks,)),
)

COUNTERS = (
    ("models.predict", "predict", (models, feedback)),
    ("models.predict_batch", "predict_batch", (models,)),
    ("telemetry.partition", "partition", (telemetry.FleetDataset,)),
    ("channel.edge_cloud_key", "edge_cloud_key", (channel.KeyRegistry,)),
    ("encoding.enc_vec", "enc_vec", (encoding, orchestrator, masking, attacks)),
    ("encoding.canonical_hash", "canonical_hash", (encoding, orchestrator, ledger)),
)

# layers that get spans, in pipeline order; encoding only gets counters
SPAN_LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name, _, _ in SPANS))


def _count_pairs(args, result, counts):
    n = len(result)  # one mask per participant
    counts["masking.pairs"] += n * (n - 1) // 2


def _count_reasons(args, result, counts):
    for reason in result.reasons:
        counts[f"ledger.rejects.{reason}"] += 1


def _count_flagged(args, result, counts):
    counts["feedback.validated"] += len(args[2])  # (model1, model2, X, cfg)
    counts["feedback.flagged"] += len(result.flagged)


AFTER = {
    "masking.derive_masks": _count_pairs,
    "ledger.contract_validate": _count_reasons,
    "feedback.validate_predictions": _count_flagged,
}


class Tracer:
    """In-memory spans and counters; ``phase`` is set by the benchmark."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, round, phase]
        self.counts: collections.Counter = collections.Counter()
        self.phase: str | None = None
        self._stack: list[int] = []
        self._round: int | None = None

    def _span(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._round, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, counts)
            return result

        return wrapper

    def _round_span(self, fn):
        inner = self._span("orchestrator.run_round", fn)

        def run_round(sim, r, *args, **kwargs):
            self._round = r
            try:
                return inner(sim, r, *args, **kwargs)
            finally:
                self._round = None

        return run_round

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in SPANS and COUNTERS; restore them on exit."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        try:
            for name, attr, owners in SPANS:
                for owner in owners:
                    fn = vars(owner)[attr]
                    if name == "orchestrator.run_round":
                        patch(owner, attr, self._round_span(fn))
                    else:
                        patch(owner, attr, self._span(name, fn, AFTER.get(name)))
            for name, attr, owners in COUNTERS:
                for owner in owners:
                    patch(owner, attr, self._counter(name, vars(owner)[attr]))
            # the copies made by inject and by the tamper-block attack
            patch(attacks, "copy", types.SimpleNamespace(
                deepcopy=self._span("attacks.deepcopy", copy.deepcopy)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the time its direct children
        cover. ``in_round`` is self time inside the fleet run's rounds only
        (phase "run" with a round id), and ``round_s`` is those rounds' time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        in_round = collections.Counter()
        round_s = 0.0
        for i, (name, start, end, parent, rnd, phase) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += own
            if phase == "run" and rnd is not None:
                in_round[name] += own
                if name == "orchestrator.run_round":
                    round_s += dur
        return {"calls": calls, "total": total, "self": self_s, "in_round": in_round,
                "round_s": round_s}

    def attack_phase_parts(self) -> tuple[float, float]:
        """(inject plus tamper-block copies, attack phase) seconds over all suites.

        The attack phase is each suite minus its Simulator construction and
        honest round; copies made inside inject are already in inject's time.
        """
        spans = self.spans
        copies = phase = 0.0
        for name, start, end, parent, _, _ in spans:
            dur = end - start
            if name == "attacks.inject":
                copies += dur
            elif name == "attacks.deepcopy" and (parent < 0 or spans[parent][0] != "attacks.inject"):
                copies += dur
            elif name == "attacks.run_attack_suite":
                phase += dur
            elif parent >= 0 and spans[parent][0] == "attacks.run_attack_suite" and name in (
                "orchestrator.init", "orchestrator.run_round"
            ):
                phase -= dur
        return copies, phase

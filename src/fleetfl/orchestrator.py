"""Round orchestration: the full edge -> ledger -> cloud -> edge loop.

Each round: local SGD, adaptive privacy tuning, clip/noise/mask, sealed
transmission, ledger admission, masked-sum FedAvg, global privacy adjustment,
sealed redistribution, dual-model validation with local correction, and
weighted local/global fusion. Every block of the round is staged as it is
made and the round commits them as one unit under one committee. No stage
before the commit changes the models or the explanation records: only the
commit installs them, so a round that misses quorum or fails before its
commit leaves the chain, the budgets, the models and the records as they
were. All randomness is derived from the config seed, so identical configs
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import aggregation, feedback, ledger, masking, privacy, telemetry
from .channel import (
    Envelope, FreshnessTag, KeyRegistry, Link, NonceSource, UnknownPartyError, open_envelope, seal,
)
from .config import RunConfig
from .encoding import canonical_hash, enc_u64, enc_vec, hash_vector, sub_seed
# evaluate, false_positive_rate and train_local are unused here but stay bound:
# the benchmark's tracer patches them by name
from .models import (  # noqa: F401
    GradientUpdate,
    ModelParams,
    evaluate,
    false_positive_rate,
    score_fleet,
    train_fleet,
    train_local,
)

CLOUD_ID = "cloud"
LEDGER_ID = "ledger"
# the share of each node's rows held out from training: Model 2 trains on them
# and the local correction measures its gain on them
HOLDOUT_FRACTION = 0.3


class ProtocolViolation(RuntimeError):
    """A runtime belief check on the message flow failed."""


@dataclass
class WireMessage:
    kind: str
    envelope: Envelope  # carries the endpoints


@dataclass
class RoundTrace:
    """Everything an in-network adversary could see or touch in one round,
    plus ground-truth raw updates for the eavesdropping oracle."""

    round: int
    messages: list[WireMessage] = field(default_factory=list)
    raw_updates: dict[str, np.ndarray] = field(default_factory=dict)
    masked: dict[str, masking.MaskedUpdate] = field(default_factory=dict)


@dataclass
class RoundReport:
    round: int
    aborted: bool
    global_version: int
    global_accuracy: float
    global_loss: float
    epsilon_charged: dict[str, float]
    epsilon_spent: dict[str, float]
    blocks_appended: int
    rejected: list[tuple[str, list[str]]]
    agreement_rate_mean: float
    fpr_global: float
    fpr_integrated: float
    integrated_accuracy_mean: float
    w_local_mean: float
    w_global_mean: float


def params_bytes(params: ModelParams) -> bytes:
    return enc_vec(params.as_vector()) + enc_u64(params.version)


class Simulator:
    """Single owner of all mutable protocol state (chain, budgets, nonce sets, clock)."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        fc = cfg.fleet
        fleet = telemetry.generate_fleet(
            cfg.seed, fc.n_nodes, fc.samples_per_node, fc.feature_dim, fc.heterogeneity
        )
        self.node_ids = sorted(p.node_id for p in fleet.partitions)
        self.dim = fc.feature_dim
        self.holdout_X, self.holdout_y = telemetry.generate_holdout(
            fleet, sub_seed(cfg.seed, "holdout"), cfg.holdout_samples
        )
        # each node's (train, holdout) split, drawn once
        self._parts = {p.node_id: self._split(p) for p in fleet.partitions}

        self.budget = privacy.BudgetLedger(budget_cap=cfg.privacy.budget_cap)

        self.keys = KeyRegistry.generate(self.node_ids, sub_seed(cfg.seed, "keys"))
        parties = self.node_ids + [CLOUD_ID, LEDGER_ID]
        self.nonce_sources = {p: NonceSource(p, sub_seed(cfg.seed, "nonce", p)) for p in parties}
        # each sender's used nonces
        self.sent_nonces: dict[str, set[bytes]] = {p: set() for p in parties}
        seen: dict[str, set[bytes]] = {p: set() for p in parties}
        # the protocol's only links: node -> cloud and cloud -> node under the
        # node's k_pc, cloud -> ledger under k_bc; each with its receiver's replay set
        self.links: dict[tuple[str, str], tuple[Link, set[bytes]]] = {
            (CLOUD_ID, LEDGER_ID): (Link(CLOUD_ID, LEDGER_ID, self.keys.k_bc), seen[LEDGER_ID])
        }
        for n in self.node_ids:
            key = self.keys.edge_cloud_key(n)
            self.links[n, CLOUD_ID] = (Link(n, CLOUD_ID, key), seen[CLOUD_ID])
            self.links[CLOUD_ID, n] = (Link(CLOUD_ID, n, key), seen[n])
        self.contract_nonces: set[bytes] = set()
        self.clock = 0
        ticks_per_round = 8 * fc.n_nodes + 16

        self.vset = ledger.ValidatorSet(
            stakes=dict(cfg.ledger.stakes),
            secret_seed=sub_seed(cfg.seed, "validators"),
            byzantine_refuse=set(cfg.ledger.byzantine_refuse),
            byzantine_false=set(cfg.ledger.byzantine_false),
        )
        self.rules = ledger.ContractRules(
            freshness_window=2 * ticks_per_round,
            max_update_norm=cfg.ledger.max_update_norm or self._auto_norm_bound(),
            # no honest node holds more rows than the fleet generates per node
            max_declared_samples=fc.samples_per_node,
        )

        self.global_params = ModelParams.zeros(self.dim, version=0)
        self.chain = [ledger.genesis_block(canonical_hash(params_bytes(self.global_params)))]
        self.node_params = {n: self.global_params for n in self.node_ids}
        self.explanation_records: list[dict] = []
        # the running round's contract-checked blocks, committed together at its end
        self.pending: list[tuple[bytes, ledger.BlockMeta]] = []

    def _auto_norm_bound(self) -> float:
        # generous ceiling so honest (scaled, noised, masked) payloads always pass.
        # No shipped config pins a tighter one, and this one stops no poison: on
        # the attack-fleet16 benchmark config it is 33,981,620 and admits every
        # 100x poisoned update (ROADMAP item 4 moves the check to the unmasked sum)
        c = self.cfg
        clip = privacy.STALLED_CLIP_FACTOR * c.privacy.clip_norm
        if math.isinf(c.privacy.eps_max):
            sigma = 0.0
        else:
            sigma = privacy.gaussian_sigma(clip, c.privacy.eps_min, c.privacy.delta)
        base = clip + 8.0 * sigma * math.sqrt(self.dim + 1)
        mask_allow = 1.0 + 4.0 * privacy.MASK_STRENGTH_MAX * math.sqrt(
            c.fleet.n_nodes * (self.dim + 1)
        )
        return c.fleet.samples_per_node * base * mask_allow * 10.0

    def _split(self, part: telemetry.NodePartition) -> tuple[telemetry.NodePartition, ...]:
        """The node's (train, holdout) partitions, drawn by its own seed."""
        n = part.n_samples
        rng = np.random.default_rng(sub_seed(self.cfg.seed, "split", part.node_id))
        order = rng.permutation(n)
        n_hold = max(1, int(round(HOLDOUT_FRACTION * n))) if n > 1 else 0
        hold, train = order[:n_hold], order[n_hold:]
        # a lone row trains and holds out at once
        return tuple(
            telemetry.NodePartition(
                part.node_id, part.features[idx], part.labels[idx], part.sensitivity
            )
            for idx in (train, hold if len(hold) else train)
        )

    def _train(self, params: list[ModelParams], parts: list[telemetry.NodePartition],
               *seed_parts) -> list[GradientUpdate]:
        """One stacked local SGD of every node under the run's training config;
        each node is seeded by the seed parts and its id."""
        t = self.cfg.train
        seeds = [sub_seed(self.cfg.seed, *seed_parts, p.node_id) for p in parts]
        return train_fleet(params, parts, lr=t.lr, epochs=t.epochs, batch=t.batch, seeds=seeds)

    def _tag(self, party: str, rnd: int) -> FreshnessTag:
        """The party's next nonce, stamped one clock tick later."""
        nonce = self.nonce_sources[party].next()
        self.clock += 1
        return FreshnessTag(nonce=nonce, timestamp=self.clock, round=rnd)

    def link(self, sender: str, receiver: str) -> tuple[Link, set[bytes]]:
        """The (sender, receiver) link under its pre-shared key and the receiver's
        replay set: the one rule for the pipeline and the adversary harness.
        Any pair that is not a protocol link raises UnknownPartyError."""
        try:
            return self.links[sender, receiver]
        except KeyError:
            raise UnknownPartyError(f"no link from {sender} to {receiver}") from None

    def _transmit(
        self, trace: RoundTrace | None, tag: FreshnessTag, sender: str, receiver: str,
        kind: str, payload: bytes,
    ) -> bytes:
        """Seal one message under the sender's tag, put it on the wire, and open
        it at the receiver; returns the opened payload."""
        link, seen = self.link(sender, receiver)
        env = seal(link, tag, payload, used_nonces=self.sent_nonces[sender])
        if trace is not None:
            trace.messages.append(WireMessage(kind, env))
        return open_envelope(link, env, self.rules.freshness_window, seen, self.clock)

    def local_update_entry(
        self, mu: masking.MaskedUpdate, r: int, epsilon: float
    ) -> tuple[ledger.BlockMeta, ledger.ValidationState]:
        """The block metadata and contract state of one masked local update: the
        one admission rule for the pipeline and the adversary harness."""
        meta = ledger.BlockMeta(
            kind="local_update", actor_id=mu.node_id, round=r, freshness=mu.freshness,
            epsilon_charged=0.0 if math.isinf(epsilon) else epsilon,
            model_version=self.global_params.version + 1,
        )
        state = ledger.ValidationState(
            seen_nonces=self.contract_nonces, budget=self.budget, now=self.clock,
            payload=enc_vec(mu.payload), update_norm=float(np.linalg.norm(mu.payload)),
            n_samples=mu.n_samples,
        )
        return meta, state

    def _commit(self, r: int, charged: dict[str, float], global_params: ModelParams,
                node_params: dict[str, ModelParams], records: list[dict]) -> int:
        """Append the round's pending blocks under its one committee, then charge
        its budgets and install its models and explanation records; returns the
        number of blocks appended. Raises QuorumNotReached with all of these untouched."""
        blocks = ledger.commit_blocks(
            self.chain, self.pending, self.vset,
            committee_seed=sub_seed(self.cfg.seed, "committee", r),
            committee_size=self.cfg.ledger.committee_size,
        )
        for node, eps in charged.items():
            privacy.charge_budget(self.budget, node, eps)
        self.global_params, self.node_params = global_params, node_params
        self.explanation_records.extend(records)
        return len(blocks)

    # -- round pipeline -----------------------------------------------------

    def run_round(self, r: int, record: bool = False) -> tuple[RoundReport, RoundTrace | None]:
        trace = RoundTrace(round=r) if record else None
        self.pending = []
        scaled, ctxs, updates = self._train_and_privatise(r)
        received, opened = self._mask_and_send(trace, r, scaled, ctxs, updates)
        admitted, rejected, charged = self._admit(trace, r, received, opened, ctxs)
        agreement, w_local, blocks = 0.0, 0.0, 0
        if not rejected:
            g = self._aggregate(r, admitted)
            self._distribute(trace, r, g)
            node_params, records, agreement, w_local = self._feedback_phase(trace, r, g, updates)
            try:
                blocks = self._commit(r, charged, g.params, node_params, records)
            except ledger.QuorumNotReached:
                rejected, charged, agreement, w_local = [(LEDGER_ID, ["quorum"])], {}, 0.0, 0.0
        report = self._finish_round(r, rejected, charged, blocks, agreement, w_local)
        return report, trace

    def _train_and_privatise(self, r: int):
        """Local SGD, then adaptive clipping and DP noise over the fleet in one
        stacked pass; returns the sample-scaled updates stacked in node order,
        the privacy contexts keyed by node and the raw local updates in node order."""
        cfg = self.cfg
        threat = cfg.threat_for_round(r)
        trains = [self._parts[n][0] for n in self.node_ids]
        updates = self._train([self.node_params[n] for n in self.node_ids], trains, "train", r)
        ctxs = {
            node: privacy.assess_context(train.sensitivity, threat, upd.loss_trace, cfg.privacy)
            for node, train, upd in zip(self.node_ids, trains, updates)
        }
        clipped = privacy.clip_fleet(
            np.stack([u.grad for u in updates]), [c.clip_norm for c in ctxs.values()]
        )
        noised = privacy.noise_fleet(
            clipped, [privacy.dp_sigma(c) for c in ctxs.values()],
            [sub_seed(cfg.seed, "noise", r, node) for node in self.node_ids],
        )
        # sender-side sample weighting keeps the aggregator blind to raw updates
        scaled = noised * np.array([u.n_samples for u in updates])[:, None]
        return scaled, ctxs, updates

    def _mask_and_send(
        self, trace, r: int, scaled, ctxs, updates
    ) -> tuple[list[masking.MaskedUpdate], dict[str, bytes]]:
        """Mask every update and send it to the cloud, which checks its hash and
        origin; returns the updates the cloud received and, keyed by node, the
        bytes it opened."""
        ids = self.node_ids
        strengths = np.array([ctxs[n].mask_strength for n in ids]) * np.maximum(
            1.0, privacy.row_norms(scaled)
        )
        round_seed = sub_seed(self.cfg.seed, "masks", r)
        masks = masking.derive_masks(
            round_seed, ids, self.dim + 1, dict(zip(ids, strengths)), round=r,
            threat=self.cfg.threat_for_round(r),
        )
        masked: dict[str, masking.MaskedUpdate] = {}
        received: list[masking.MaskedUpdate] = []
        opened: dict[str, bytes] = {}
        for node, grad, upd in zip(ids, scaled, updates):
            tag = self._tag(node, r)
            masked[node] = masking.apply_mask(
                node, GradientUpdate(grad=grad, n_samples=upd.n_samples), masks[node], tag
            )
            payload = opened[node] = self._transmit(
                trace, tag, node, CLOUD_ID, "local_update", masked[node].to_bytes()
            )
            # the cloud checks integrity (origin + hash beliefs)
            mu = masking.MaskedUpdate.from_bytes(payload)
            if hash_vector(mu.payload) != mu.payload_hash:
                raise ProtocolViolation(f"payload hash mismatch from {mu.node_id}")
            if mu.node_id != node:
                raise ProtocolViolation("update origin does not match envelope sender")
            received.append(mu)
        if trace is not None:
            trace.raw_updates = dict(zip(ids, scaled.copy()))
            trace.masked = masked
        return received, opened

    def _admit(self, trace, r: int, received, opened, ctxs):
        """Ledger admission: forward the bytes the cloud opened for every kept
        update to the ledger, which checks they arrived unchanged and so takes
        the update the cloud decoded from them; then check and stage them all
        at one clock reading.

        Returns (admitted updates, rejections, epsilon to charge per node at
        commit). Any rejection admits nothing: masks cannot cancel over a
        partial roster.
        """
        cleaned, drops = aggregation.preprocess_updates(received, self.dim + 1)
        rejected: list[tuple[str, list[str]]] = [(n, [reason]) for n, reason in drops]
        for mu in cleaned:
            sent = opened[mu.node_id]
            got = self._transmit(
                trace, self._tag(CLOUD_ID, r), CLOUD_ID, LEDGER_ID, "ledger_log", sent
            )
            if got != sent:
                raise ProtocolViolation(f"logged update of {mu.node_id} corrupted in transit")
        admitted = [
            (mu, *self.local_update_entry(mu, r, ctxs[mu.node_id].epsilon)) for mu in cleaned
        ]
        for mu, meta, state in admitted:
            result = ledger.stage_block(self.pending, mu.payload_hash, meta, self.rules, state)
            if not result.accepted:
                rejected.append((mu.node_id, result.reasons))
        if rejected:
            return [], rejected, {}
        charged = {
            mu.node_id: meta.epsilon_charged for mu, meta, _ in admitted
            if meta.epsilon_charged > 0
        }
        return [mu for mu, _, _ in admitted], [], charged

    def _aggregate(self, r: int, admitted) -> aggregation.GlobalUpdate:
        """Masked-sum FedAvg, then the global privacy adjustment."""
        cfg = self.cfg
        summed = aggregation.smpc_sum(admitted, self.node_ids)
        total_n = sum(mu.n_samples for mu in admitted)
        g = aggregation.fedavg_from_masked_sum(summed, total_n, self.global_params)
        return aggregation.privacy_adjust_global(
            g,
            self.global_params,
            cfg.privacy.eps_global,
            aggregation.DELTA_GLOBAL,
            aggregation.CLIP_GLOBAL,
            sub_seed(cfg.seed, "global-noise", r),
        )

    def _distribute(self, trace, r: int, g: aggregation.GlobalUpdate) -> None:
        """Stage the global model's block, then send the model to every node
        (freshness verified at open)."""
        gbytes = params_bytes(g.params)
        self._log_to_ledger(trace, r, "global_model", CLOUD_ID, gbytes, g.params.version)
        for node in self.node_ids:
            got = self._transmit(
                trace, self._tag(CLOUD_ID, r), CLOUD_ID, node, "global_distribution", gbytes
            )
            if got != gbytes:
                raise ProtocolViolation("distributed global model corrupted in transit")

    def _log_to_ledger(
        self, trace, r: int, kind: str, actor: str, payload: bytes, model_version: int
    ) -> None:
        tag = self._tag(CLOUD_ID, r)
        got = self._transmit(trace, tag, CLOUD_ID, LEDGER_ID, "ledger_log", payload)
        meta = ledger.BlockMeta(
            kind=kind, actor_id=actor, round=r, freshness=tag,
            epsilon_charged=0.0, model_version=model_version,
        )
        # the ledger hashes what it received: there is no sender's claim to re-check
        state = ledger.ValidationState(
            seen_nonces=self.contract_nonces, budget=self.budget, now=self.clock
        )
        result = ledger.stage_block(self.pending, canonical_hash(got), meta, self.rules, state)
        if not result.accepted:
            raise ledger.ContractRejected(result.reasons)

    def _feedback_phase(self, trace, r: int, g: aggregation.GlobalUpdate, updates):
        """Dual-model validation and local correction of the whole fleet in one
        pass each, then fusion at each node; returns (node models, explanation
        records, mean agreement, mean w_local). Each node's logged explanation,
        whose stability weighs its fusion, is the one its validation compared."""
        cfg = self.cfg
        fb = cfg.feedback
        ids = self.node_ids
        if not fb.enabled:
            return dict.fromkeys(ids, g.params), [], 1.0, 0.0

        def seeds(stream: str) -> list[int]:
            return [sub_seed(cfg.seed, stream, r, node) for node in ids]

        trains, holds = zip(*(self._parts[node] for node in ids))
        # Model 1: each node's local model; Model 2: the global model tuned on its holdout rows
        model2_updates = self._train([g.params] * len(ids), holds, "model2", r)
        V1 = np.stack([self.node_params[n].as_vector() + u.grad for n, u in zip(ids, updates)])
        V2 = g.params.as_vector() + np.stack([u.grad for u in model2_updates])
        val_X = np.stack([t.features[: fb.max_validation_samples] for t in trains])
        val_y = np.stack([t.labels[: fb.max_validation_samples] for t in trains])

        reports = feedback.validate_fleet(V1, V2, val_X, fb.explain_repeats, seeds("explain"))
        records = [{
            "round": r, "node": node, "sample": 0,
            "attributions": [float(a) for a in rep.explanation.attributions],
            "stability": rep.explanation.stability,
        } for node, rep in zip(ids, reports)]
        corrections = feedback.correct_fleet(
            V1, [x[rep.flagged] for x, rep in zip(val_X, reports)],
            [y[rep.flagged] for y, rep in zip(val_y, reports)],
            [h.features for h in holds], [h.labels for h in holds],
            lr=feedback.CORRECTION_LR, steps=feedback.CORRECTION_STEPS, seeds=seeds("correct"),
            explanation_stability=[rep.explanation.stability for rep in reports],
        )

        agreement = float(np.mean([rep.agreement_rate for rep in reports]))
        node_params, w_local = self._integrate(trace, r, g, corrections)
        return node_params, records, agreement, w_local

    def _integrate(self, trace, r: int, g: aggregation.GlobalUpdate,
                   corrections: list[feedback.FeedbackUpdate]):
        """Fuse each node's correction with the global delta onto the previous
        global model and submit the result through the cloud, which stages its
        block; returns (node models, mean w_local)."""
        base = self.global_params.as_vector()
        node_params, w_locals = {}, []
        for node, corr in zip(self.node_ids, corrections):
            w = feedback.compute_weights(corr.quality, g.total_samples)
            integrated = ModelParams.from_vector(
                base + feedback.integrate(corr.delta, g.delta, w), version=g.params.version
            )
            node_params[node] = integrated
            payload = self._transmit(
                trace, self._tag(node, r), node, CLOUD_ID, "feedback", params_bytes(integrated)
            )
            self._log_to_ledger(trace, r, "feedback", node, payload, integrated.version)
            w_locals.append(w.w_local)
        return node_params, float(np.mean(w_locals))

    def _finish_round(self, r, rejected, charged, blocks, agreement, w_local) -> RoundReport:
        # (accuracy, loss, fpr) on the holdout of every distinct model object in
        # one stacked pass: without feedback every node holds the global one
        distinct = {id(p): p for p in (self.global_params, *self.node_params.values())}
        V = np.stack([p.as_vector() for p in distinct.values()])
        accs, losses, fprs = score_fleet(V, self.holdout_X, self.holdout_y)
        scores = dict(zip(distinct, zip(accs.tolist(), losses.tolist(), fprs.tolist())))
        acc, loss, fpr_g = scores[id(self.global_params)]
        node_scores = [scores[id(self.node_params[node])] for node in self.node_ids]
        return RoundReport(
            round=r,
            aborted=bool(rejected),
            global_version=self.global_params.version,
            global_accuracy=acc,
            global_loss=loss,
            epsilon_charged={n: charged.get(n, 0.0) for n in self.node_ids},
            epsilon_spent={n: self.budget.spent_for(n) for n in self.node_ids},
            blocks_appended=blocks,
            rejected=rejected,
            agreement_rate_mean=agreement,
            fpr_global=fpr_g,
            fpr_integrated=float(np.mean([s[2] for s in node_scores])),
            integrated_accuracy_mean=float(np.mean([s[0] for s in node_scores])),
            w_local_mean=w_local,
            w_global_mean=1.0 - w_local,
        )

    # -- full run -----------------------------------------------------------

    def run(self, record: bool = False) -> tuple[list[RoundReport], list[RoundTrace]]:
        reports, traces = [], []
        for r in range(self.cfg.rounds):
            report, trace = self.run_round(r, record=record)
            reports.append(report)
            if trace is not None:
                traces.append(trace)
        bad = ledger.verify_chain(self.chain)
        if bad is not None:
            raise ProtocolViolation(f"chain failed verification at block {bad}")
        if self.cfg.output_dir:
            self.write_artifacts(reports)
        return reports, traces

    def write_artifacts(self, reports: list[RoundReport]) -> None:
        outdir = self.cfg.output_dir
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "metrics.jsonl"), "w") as f:
            for rep in reports:
                # the report's own field dict: dataclasses.asdict would deep-copy it
                f.write(json.dumps(vars(rep), sort_keys=True) + "\n")
        with open(os.path.join(outdir, "chain.json"), "w") as f:
            f.write(ledger.export_chain(self.chain))
        with open(os.path.join(outdir, "explanations.jsonl"), "w") as f:
            for rec in self.explanation_records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def run(cfg: RunConfig) -> list[RoundReport]:
    """Run a full simulation per the config; returns the per-round reports."""
    sim = Simulator(cfg)
    reports, _ = sim.run()
    return reports

"""Round orchestration: the full edge -> ledger -> cloud -> edge loop.

Each round: local SGD, adaptive privacy tuning, clip/noise/mask, sealed
transmission, ledger admission, masked-sum FedAvg, global privacy adjustment,
sealed redistribution, dual-model validation with local correction, and
weighted local/global fusion. The simulator stacks every node's rows once, at
construction, as ``(N, n, d)`` training and holdout arrays in node order;
every round trains, validates and corrects from them as they are. Every block
of the round is staged as it is made and the round commits them as one unit
under one committee. Every message goes through one send path, ``_send``,
which takes a batch of same-kind messages (a single message is a batch of
one): it stamps the batch's tags in order, then seals and opens each message
on its own, with every channel check, at the clock reading of its tag. The
masked updates are encoded from one stacked array, a row per node. The cloud
forwards to the ledger once per batch, in one sealed ``ledger_log`` envelope
of length-prefixed entries: the kept updates, the global model (a batch of
one) and the fused models. The ledger checks each entry against what the
cloud holds and stages one block per entry; a fused model's block takes the
tag of its node's own message, and the global model's the envelope's. No stage
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
from collections import Counter
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import aggregation, feedback, ledger, masking, privacy, telemetry
from .channel import (
    Envelope, FreshnessTag, KeyRegistry, Link, NonceSource, UnknownPartyError, open_envelope, seal,
)
from .config import RunConfig
from .encoding import canonical_hash, enc_bytes, enc_u64, enc_vec, permutations, sub_seed, sub_seeds
# evaluate, false_positive_rate and train_local are unused here but stay bound:
# the benchmark's tracer patches them by name
from .models import (  # noqa: F401
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
        parts = sorted(fleet.partitions, key=lambda p: p.node_id)
        self.node_ids = [p.node_id for p in parts]
        self.dim = fc.feature_dim
        self.holdout_X, self.holdout_y = telemetry.generate_holdout(
            fleet, sub_seed(cfg.seed, "holdout"), cfg.holdout_samples
        )
        # every node's rows stacked once in node order and split by one fancy
        # index: the first rows of each node's drawn order are held out, and a
        # lone row trains and holds out at once
        n = fc.samples_per_node
        n_hold = max(1, round(HOLDOUT_FRACTION * n))
        orders = permutations([sub_seed(cfg.seed, "split", p.node_id) for p in parts], 1, n)[:, 0]
        rows, hold = np.arange(len(parts))[:, None], orders[:, :n_hold]
        train = orders[:, n_hold:] if n > 1 else hold
        X, y = np.stack([p.features for p in parts]), np.stack([p.labels for p in parts])
        self.train_X, self.train_y = X[rows, train], y[rows, train]
        self.hold_X, self.hold_y = X[rows, hold], y[rows, hold]
        self.sensitivity = np.array([p.sensitivity for p in parts])

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
        # the attack-fleet16 benchmark config it is 22,654,413 and admits every
        # 100x poisoned update (ROADMAP item 4 moves the check to the unmasked sum)
        c = self.cfg
        clip = c.privacy.clip_norm
        # the noisiest node's epsilon: eps_min, or no noise at all when eps_max is inf
        eps = c.privacy.eps_min if math.isfinite(c.privacy.eps_max) else math.inf
        sigma = privacy.gaussian_sigma(clip, eps, privacy.DELTA)
        base = clip + 8.0 * sigma * math.sqrt(self.dim + 1)
        mask_allow = 1.0 + 4.0 * privacy.MASK_STRENGTH_MAX * math.sqrt(
            c.fleet.n_nodes * (self.dim + 1)
        )
        return c.fleet.samples_per_node * base * mask_allow * 10.0

    def _seeds(self, stream: str, r: int) -> list[int]:
        """Each node's seed for the named per-node stream of round r, in node order."""
        return sub_seeds((self.cfg.seed, stream, r), self.node_ids)

    def _train(self, V: np.ndarray, X: np.ndarray, y: np.ndarray, stream: str,
               r: int) -> np.ndarray:
        """Every node's delta from one stacked local SGD of its model V[k] on its
        rows X[k], y[k], under the run's training config and the named stream."""
        t = self.cfg.train
        return train_fleet(V, X, y, t.lr, t.epochs, t.batch, self._seeds(stream, r), self.node_ids)

    def _stamp(self, senders: list[str], rnd: int) -> list[FreshnessTag]:
        """Each sender's next nonce in order, each stamped one clock tick after
        the one before it."""
        draws = {s: iter(self.nonce_sources[s].take(k)) for s, k in Counter(senders).items()}
        start, self.clock = self.clock, self.clock + len(senders)
        return [
            FreshnessTag(nonce=next(draws[s]), timestamp=start + i, round=rnd)
            for i, s in enumerate(senders, 1)
        ]

    def link(self, sender: str, receiver: str) -> tuple[Link, set[bytes]]:
        """The (sender, receiver) link under its pre-shared key and the receiver's
        replay set: the one rule for the pipeline and the adversary harness.
        Any pair that is not a protocol link raises UnknownPartyError."""
        try:
            return self.links[sender, receiver]
        except KeyError:
            raise UnknownPartyError(f"no link from {sender} to {receiver}") from None

    def _send(
        self, trace: RoundTrace | None, r: int, kind: str, routes: list[tuple[str, str]],
        payloads: list[bytes], tags: list[FreshnessTag] | None = None,
    ) -> list[bytes]:
        """Send a batch of same-kind messages, payloads[i] from routes[i] =
        (sender, receiver); returns the opened payloads in order. Unless given,
        the batch's tags are stamped first, in order. Then each message is
        sealed under its tag, put on the wire and opened at its receiver, one at
        a time: message i of k at the clock reading its tag was stamped at,
        the batch's tags being the last k stamped. The first check that fails
        raises, and no later message of the batch is sealed."""
        if tags is None:
            tags = self._stamp([sender for sender, _ in routes], r)
        window, first = self.rules.freshness_window, self.clock - len(tags) + 1
        opened = []
        for now, (sender, receiver), tag, payload in zip(count(first), routes, tags, payloads):
            link, seen = self.link(sender, receiver)
            env = seal(link, tag, payload, used_nonces=self.sent_nonces[sender])
            if trace is not None:
                trace.messages.append(WireMessage(kind, env))
            opened.append(open_envelope(link, env, window, seen, now))
        return opened

    def local_update_entries(
        self, r: int, updates: list[masking.MaskedUpdate], wires: list[bytes],
        epsilons: list[float],
    ) -> list[tuple[ledger.BlockMeta, ledger.ValidationState]]:
        """The block metadata and contract state of each masked local update,
        given the bytes the ledger received it as: the one admission rule for
        the pipeline and the adversary harness. The contract hashes the
        payload's encoding as it sits in those bytes, and the updates' norms
        come from one ``privacy.row_norms`` pass."""
        norms = privacy.row_norms(
            np.array([mu.payload for mu in updates]).reshape(len(updates), self.dim + 1)
        )
        version = self.global_params.version + 1
        return [
            (
                ledger.BlockMeta(
                    kind="local_update", actor_id=mu.node_id, round=r, freshness=mu.freshness,
                    epsilon_charged=0.0 if math.isinf(epsilon) else epsilon,
                    model_version=version,
                ),
                ledger.ValidationState(
                    seen_nonces=self.contract_nonces, budget=self.budget, now=self.clock,
                    payload=masking.MaskedUpdate.payload_encoding(wire), update_norm=norm,
                    n_samples=mu.n_samples,
                ),
            )
            for mu, wire, epsilon, norm in zip(updates, wires, epsilons, norms.tolist())
        ]

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
        scaled, epsilons, strength, V1 = self._train_and_privatise(r)
        received, opened = self._mask_and_send(trace, r, scaled, strength)
        admitted, rejected, charged = self._admit(trace, r, received, opened, epsilons)
        agreement, w_local, blocks = 0.0, 0.0, 0
        if not rejected:
            g = self._aggregate(r, admitted)
            self._distribute(trace, r, g)
            node_params, records, agreement, w_local = self._feedback_phase(trace, r, g, V1)
            try:
                blocks = self._commit(r, charged, g.params, node_params, records)
            except ledger.QuorumNotReached:
                rejected, charged, agreement, w_local = [(LEDGER_ID, ["quorum"])], {}, 0.0, 0.0
        report = self._finish_round(r, rejected, charged, blocks, agreement, w_local)
        return report, trace

    def _train_and_privatise(self, r: int):
        """Local SGD, then the privacy stage as three fleet passes: every node's
        epsilon, clipping at clip_norm and DP noise. Returns the sample-scaled
        updates stacked in node order, epsilon keyed by node, the round's mask
        strength and the trained local models (Model 1) stacked in node order."""
        cfg = self.cfg
        V = np.stack([self.node_params[n].as_vector() for n in self.node_ids])
        deltas = self._train(V, self.train_X, self.train_y, "train", r)
        eps, strength = privacy.assess_fleet(self.sensitivity, cfg.threat_for_round(r), cfg.privacy)
        clip = cfg.privacy.clip_norm
        noised = privacy.noise_fleet(
            privacy.clip_fleet(deltas, clip),
            privacy.gaussian_sigma(clip, eps, privacy.DELTA),
            self._seeds("noise", r),
        )
        # sender-side sample weighting keeps the aggregator blind to raw updates
        scaled = noised * self.train_y.shape[1]
        return scaled, dict(zip(self.node_ids, eps.tolist())), strength, V + deltas

    def _mask_and_send(
        self, trace, r: int, scaled, strength: float
    ) -> tuple[list[masking.MaskedUpdate], dict[str, bytes]]:
        """Mask every update and send it to the cloud, which checks its hash and
        origin; returns the updates the cloud received and, keyed by node, the
        bytes it opened."""
        ids = self.node_ids
        strengths = strength * np.maximum(1.0, privacy.row_norms(scaled))
        round_seed = sub_seed(self.cfg.seed, "masks", r)
        masks = masking.derive_masks(
            round_seed, ids, self.dim + 1, dict(zip(ids, strengths)), round=r,
            threat=self.cfg.threat_for_round(r),
        )
        tags = self._stamp(ids, r)
        masked = scaled + np.stack([masks[node] for node in ids])
        wires = masking.encode_updates(ids, masked, self.train_y.shape[1], tags)
        payloads = self._send(trace, r, "local_update", [(n, CLOUD_ID) for n in ids], wires, tags)
        # the cloud decodes every update in one pass, a layout that does not fill
        # its bytes being a violation, then checks each one's integrity (origin +
        # hash beliefs), hashing the payload's encoding as it sits in those bytes
        try:
            received = masking.decode_updates(payloads, ids)
        except ValueError as e:
            raise ProtocolViolation(str(e)) from None
        for node, payload, mu in zip(ids, payloads, received):
            if canonical_hash(masking.MaskedUpdate.payload_encoding(payload)) != mu.payload_hash:
                raise ProtocolViolation(f"payload hash mismatch from {mu.node_id}")
            if mu.node_id != node:
                raise ProtocolViolation("update origin does not match envelope sender")
        if trace is not None:
            trace.raw_updates = dict(zip(ids, scaled.copy()))
            # the updates as each node sent them
            trace.masked = dict(zip(ids, masking.decode_updates(wires, ids)))
        return received, dict(zip(ids, payloads))

    def _admit(self, trace, r: int, received, opened, epsilons):
        """Ledger admission: forward the bytes the cloud opened for every kept
        update to the ledger as one batch, whose entries the ledger checks
        arrived unchanged, so it takes the update the cloud decoded from each;
        then check and stage them all at one clock reading.

        Returns (admitted updates, rejections, epsilon to charge per node at
        commit). Any rejection admits nothing: masks cannot cancel over a
        partial roster.
        """
        cleaned, drops = aggregation.preprocess_updates(received, self.dim + 1)
        rejected: list[tuple[str, list[str]]] = [(n, [reason]) for n, reason in drops]
        if not cleaned:
            return [], rejected, {}
        ids = [mu.node_id for mu in cleaned]
        _, logged = self._forward(trace, r, ids, [opened[node] for node in ids])
        entries = self.local_update_entries(r, cleaned, logged, [epsilons[n] for n in ids])
        admitted = [(mu, meta, state) for mu, (meta, state) in zip(cleaned, entries)]
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
            sub_seed(cfg.seed, "global-noise", r),
        )

    def _distribute(self, trace, r: int, g: aggregation.GlobalUpdate) -> None:
        """Stage the global model's block, then send the model to every node
        (freshness verified at open)."""
        gbytes = params_bytes(g.params)
        tag, logged = self._forward(trace, r, [CLOUD_ID], [gbytes])
        self._stage_logged(r, "global_model", [CLOUD_ID], logged, [tag], g.params.version)
        routes = [(CLOUD_ID, node) for node in self.node_ids]
        for got in self._send(trace, r, "global_distribution", routes, [gbytes] * len(routes)):
            if got != gbytes:
                raise ProtocolViolation("distributed global model corrupted in transit")

    def _forward(
        self, trace, r: int, actors: list[str], entries: list[bytes]
    ) -> tuple[FreshnessTag, list[bytes]]:
        """Forward entries[i], the bytes the cloud holds from actors[i], to the
        ledger in one sealed ``ledger_log`` envelope whose payload is each entry
        written with ``enc_bytes``. The ledger splits what it opened and checks
        each entry against the cloud's: a framing error or a changed entry
        raises ProtocolViolation naming its actor. Returns the envelope's tag
        and the entries as the ledger split them."""
        [tag] = self._stamp([CLOUD_ID], r)
        batch = b"".join([enc_bytes(entry) for entry in entries])
        [got] = self._send(trace, r, "ledger_log", [(CLOUD_ID, LEDGER_ID)], [batch], [tag])
        # a prefix cut short or running past the end yields a short entry,
        # which differs from the cloud's
        logged, start = [], 0
        for actor, entry in zip(actors, entries):
            end = start + 4 + int.from_bytes(got[start : start + 4], "big")
            logged.append(got[start + 4 : end])
            if logged[-1] != entry:
                raise ProtocolViolation(f"logged entry of {actor} corrupted in transit")
            start = end
        if start != len(got):
            raise ProtocolViolation(f"logged batch does not end at the entry of {actors[-1]}")
        return tag, logged

    def _stage_logged(self, r: int, kind: str, actors: list[str], logged: list[bytes],
                      tags: list[FreshnessTag], model_version: int) -> None:
        """Stage a block of the given kind for each logged model, under its
        actor's tag; the ledger hashes what it received, so there is no
        sender's claim to re-check."""
        state = ledger.ValidationState(
            seen_nonces=self.contract_nonces, budget=self.budget, now=self.clock
        )
        for actor, got, tag in zip(actors, logged, tags):
            meta = ledger.BlockMeta(
                kind=kind, actor_id=actor, round=r, freshness=tag,
                epsilon_charged=0.0, model_version=model_version,
            )
            result = ledger.stage_block(self.pending, canonical_hash(got), meta, self.rules, state)
            if not result.accepted:
                raise ledger.ContractRejected(result.reasons)

    def _feedback_phase(self, trace, r: int, g: aggregation.GlobalUpdate, V1: np.ndarray):
        """Dual-model validation and local correction of the whole fleet in one
        pass each, then fusion at each node; returns (node models, explanation
        records, mean agreement, mean w_local). V1 holds every node's local
        model (Model 1), stacked in node order; each node's validation rows are
        the first rows of its training split. Each node's logged explanation,
        whose stability weighs its fusion, is the one its validation compared."""
        fb = self.cfg.feedback
        ids = self.node_ids
        if not fb.enabled:
            return dict.fromkeys(ids, g.params), [], 1.0, 0.0

        # Model 2: the global model tuned on each node's holdout rows
        gv = g.params.as_vector()
        V2 = gv + self._train(np.tile(gv, (len(ids), 1)), self.hold_X, self.hold_y, "model2", r)
        val_X = self.train_X[:, : fb.max_validation_samples]
        val_y = self.train_y[:, : fb.max_validation_samples]

        reports = feedback.validate_fleet(V1, V2, val_X, fb.explain_repeats,
                                          self._seeds("explain", r))
        records = [{
            "round": r, "node": node, "sample": 0,
            "attributions": [float(a) for a in rep.explanation.attributions],
            "stability": rep.explanation.stability,
        } for node, rep in zip(ids, reports)]
        flags = np.zeros(val_y.shape, dtype=bool)
        flags[[k for k, rep in enumerate(reports) for _ in rep.flagged],
              [i for rep in reports for i in rep.flagged]] = True
        corrections = feedback.correct_fleet(
            V1, val_X, val_y, flags, self.hold_X, self.hold_y,
            lr=feedback.CORRECTION_LR, steps=feedback.CORRECTION_STEPS, names=ids,
        )

        agreement = float(np.mean([rep.agreement_rate for rep in reports]))
        node_params, w_local = self._integrate(trace, r, g, corrections, reports)
        return node_params, records, agreement, w_local

    def _integrate(self, trace, r: int, g: aggregation.GlobalUpdate, corrections, reports):
        """Fuse each node's correction, weighed by its gain and its report's explanation
        stability, with the global delta onto the previous global model, the whole fleet
        in one ``feedback.fuse_fleet`` pass; each node then sends its result to the
        cloud, which forwards them to the ledger as one batch and stages each one's
        block under the tag of the node's own message.
        Returns (node models, mean w_local)."""
        ids, version = self.node_ids, g.params.version
        fused, w_local = feedback.fuse_fleet(
            np.array([corr.delta for corr in corrections]), g.delta,
            [corr.accuracy_gain for corr in corrections],
            [rep.explanation.stability for rep in reports], g.total_samples,
        )
        V = self.global_params.as_vector() + fused
        node_params = {node: ModelParams.from_vector(v, version=version) for node, v in zip(ids, V)}
        tags = self._stamp(ids, r)
        payloads = self._send(trace, r, "feedback", [(node, CLOUD_ID) for node in ids],
                              [params_bytes(node_params[node]) for node in ids], tags)
        _, logged = self._forward(trace, r, ids, payloads)
        self._stage_logged(r, "feedback", ids, logged, tags, version)
        return node_params, float(np.mean(w_local))

    def _finish_round(self, r, rejected, charged, blocks, agreement, w_local) -> RoundReport:
        # (accuracy, fpr) on the holdout of every distinct model object in one
        # stacked pass, the global model first and the only one whose loss is
        # reported: without feedback every node holds the global one
        distinct = {id(p): p for p in (self.global_params, *self.node_params.values())}
        V = np.stack([p.as_vector() for p in distinct.values()])
        accs, loss, fprs = score_fleet(V, self.holdout_X, self.holdout_y)
        scores = dict(zip(distinct, zip(accs.tolist(), fprs.tolist())))
        acc, fpr_g = scores[id(self.global_params)]
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
            fpr_integrated=float(np.mean([s[1] for s in node_scores])),
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

"""Command-line entry point.

Subcommands:
  run     --config <path>                   full simulation, artifacts to output_dir
  attack  --config <path> [--injections N]  adversary suite, JSON reports to stdout
  ledger  verify --chain <path>             re-verify an exported chain
  explain --run <dir> --node <id>           print a node's explanation records

Exit codes: 0 success, 1 validation failure, 2 bad usage, a malformed config or
a missing input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import attacks, config, ledger, orchestrator


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fleetfl")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a full simulation")
    run_p.add_argument("--config", required=True)

    atk_p = sub.add_parser("attack", help="run the adversary suite")
    atk_p.add_argument("--config", required=True)
    atk_p.add_argument("--injections", type=int, default=100)

    led_p = sub.add_parser("ledger", help="ledger operations")
    led_sub = led_p.add_subparsers(dest="ledger_command", required=True)
    ver_p = led_sub.add_parser("verify", help="verify an exported chain")
    ver_p.add_argument("--chain", required=True)

    exp_p = sub.add_parser("explain", help="print explanation records from a run")
    exp_p.add_argument("--run", required=True, dest="run_dir")
    exp_p.add_argument("--node", required=True)
    return p


def _require_file(path: str, what: str) -> None:
    """Exit 2 unless the path names a regular file."""
    if not os.path.isfile(path):
        print(f"error: {what} file not found: {path}", file=sys.stderr)
        raise SystemExit(2)


def _load_config(path: str) -> config.RunConfig:
    _require_file(path, "config")
    try:
        cfg = config.load(path)
    except (config.ConfigError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        raise SystemExit(2)
    outdir = os.environ.get("FLEETFL_OUTPUT_DIR")
    if outdir:
        cfg.output_dir = outdir
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if cfg.output_dir:
        try:
            os.makedirs(cfg.output_dir, exist_ok=True)
        except OSError as exc:
            print(f"error: bad output_dir: {exc}", file=sys.stderr)
            return 2
    reports = orchestrator.run(cfg)
    for rep in reports:
        # each rejected node with its contract or preprocessing reasons
        why = "; ".join(f"{node} {','.join(reasons)}" for node, reasons in rep.rejected)
        print(
            f"round {rep.round}: accuracy={rep.global_accuracy:.4f} "
            f"loss={rep.global_loss:.4f} blocks={rep.blocks_appended}"
            + (f" ABORTED: {why}" if rep.aborted else "")
        )
    if cfg.output_dir:
        print(f"artifacts written to {cfg.output_dir}")
    return 0


def _cmd_attack(args) -> int:
    if args.injections < 1:
        print(f"error: --injections must be >= 1, got {args.injections}", file=sys.stderr)
        return 2
    cfg = _load_config(args.config)
    seeds = list(range(args.injections))
    reports = attacks.run_attack_suite(cfg, seeds)
    print(attacks.reports_to_json(reports))
    # an eavesdrop report detects its one injection exactly when nothing leaked
    return 1 if any(r.detected < r.injected for r in reports) else 0


def _cmd_ledger_verify(args) -> int:
    _require_file(args.chain, "chain")
    try:
        with open(args.chain, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:  # JSON text is UTF-8 (RFC 8259)
        raise ValueError(f"malformed chain: not JSON: {exc}") from None
    chain = ledger.import_chain(text)
    bad = ledger.verify_chain(chain)
    if bad is None:
        print(
            f"chain valid ({len(chain)} blocks): indices, prev-hash links and block hashes"
            " recomputed; attestation digests and quorum not checked"
        )
        return 0
    print(f"chain INVALID: first bad index {bad}")
    return 1


def _cmd_explain(args) -> int:
    path = os.path.join(args.run_dir, "explanations.jsonl")
    if not os.path.isfile(path):
        print(f"error: no explanations found under {args.run_dir}", file=sys.stderr)
        return 2
    found = 0
    with open(path, "rb") as f:
        for i, line in enumerate(f, 1):
            try:
                rec = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                rec = None
            if not isinstance(rec, dict) or "node" not in rec:
                raise ValueError(f"malformed explanation record on line {i}")
            if rec["node"] == args.node:
                print(json.dumps(rec, sort_keys=True))
                found += 1
    if not found:
        print(f"no explanation records for node {args.node}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "ledger":
            return _cmd_ledger_verify(args)
        if args.command == "explain":
            return _cmd_explain(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end demo: run a small federated simulation, verify the ledger,
then replay the adversary suite against a recorded round.

Usage:
    python3 scripts/run_demo.py [--seed 7] [--rounds 5] [--nodes 4] [--out runs/demo]
"""

import argparse
import json

from fleetfl import attacks, config, ledger
from fleetfl.orchestrator import Simulator


def build_config(args) -> config.RunConfig:
    return config.from_dict(
        {
            "seed": args.seed,
            "rounds": args.rounds,
            "fleet": {
                "n_nodes": args.nodes,
                "samples_per_node": 100,
                "feature_dim": 8,
                "heterogeneity": 0.3,
            },
            "privacy": {"eps_max": "inf" if args.no_noise else 8.0, "budget_cap": 500.0},
            "holdout_samples": 500,
            "output_dir": args.out,
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--out", default="runs/demo")
    parser.add_argument("--no-noise", action="store_true", help="disable local DP noise")
    parser.add_argument("--injections", type=int, default=50)
    args = parser.parse_args()

    cfg = build_config(args)
    sim = Simulator(cfg)
    reports, _ = sim.run()

    print(f"{'round':>5} {'acc':>7} {'loss':>7} {'blocks':>6} {'agree':>6} {'w_local':>7}")
    for rep in reports:
        print(
            f"{rep.round:>5} {rep.global_accuracy:>7.4f} {rep.global_loss:>7.4f} "
            f"{rep.blocks_appended:>6} {rep.agreement_rate_mean:>6.3f} "
            f"{rep.w_local_mean:>7.4f}"
        )

    bad = ledger.verify_chain(sim.chain)
    print(f"\nledger: {len(sim.chain)} blocks, "
          f"{'valid' if bad is None else f'INVALID at {bad}'}")
    print(f"artifacts: {cfg.output_dir}/")

    print(f"\nadversary suite ({args.injections} injections per kind):")
    for rep in attacks.run_attack_suite(cfg, list(range(args.injections))):
        if rep.kind == "eavesdrop":
            print(f"  {rep.kind:<15} leaked={rep.leaked}")
        else:
            print(f"  {rep.kind:<15} detected {rep.detected}/{rep.injected}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

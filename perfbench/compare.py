#!/usr/bin/env python3
"""Compare a parent and a change on one workload, in alternating pairs.

Run pairs (each pair runs both trees on the same seed; the side that runs
first alternates), then print the verdicts:

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload fleet256-nofeedback --pairs 10 [--held-out] [--trace 1]

Or judge result files written by an earlier comparison:

    python3 perfbench/compare.py --results PARENT.jsonl CHANGE.jsonl

Each result file holds one JSON result per line, in pair order. For each
metric the output gives both medians and quartiles, the change's win share
(pairs it won; ties count for neither) and a verdict:

- improved: at least ten pairs ran, the change wins at least nine tenths of
  them and its median beats the parent's by more than the parent's
  interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound, and the spread is within the bound or every change run is
  worse than every parent run;
- unchanged: not worse by more than the bound, and the spread is within the
  bound or every change run is better than every parent run;
- unresolved: otherwise (the runs spread wider than the bound).

Per-layer metrics have no bound: they are judged only improved, worse (the
mirror of improved) or within noise. The two trees must hold the same
benchmark files, since a change that claims a gain may not edit the
benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10  # fewer pairs never show a gain


def benchmark_digest(tree: str) -> str:
    """Digest of BENCHMARK.json and the benchmark's source files in a tree."""
    h = hashlib.sha256()
    with open(os.path.join(tree, "BENCHMARK.json"), "rb") as f:
        h.update(f.read())
    bench_dir = os.path.join(tree, "perfbench")
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if os.path.isfile(path) and not name.startswith("."):
            h.update(name.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_once(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    with open(os.path.join(tree, "perfbench", "_out",
                           f"{workload}-seed{seed}-trace{trace}", "result.json")) as f:
        full = json.load(f)
    result.update(seed=seed, digests=full["digests"],
                  final_accuracy=full["end_to_end"]["final_accuracy"])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)  # > 0 when the change's median is better
    if share >= 0.9 and gain > p3 - p1 and len(parent) >= MIN_PAIRS:
        return share, "improved"
    if bound is None:
        if (1 - share) >= 0.9 and -gain > p3 - p1 and len(parent) >= MIN_PAIRS:
            return share, "worse"
        return share, "within noise"
    spread = max(p3 - p1, c3 - c1) / abs(pm) if pm else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if -gain > bound * abs(pm):
        return share, "worse" if spread <= bound or all_worse else "unresolved"
    if spread <= bound or all_better:
        return share, "unchanged"
    return share, "unresolved"


def judge(parent_rows: list[dict], change_rows: list[dict], spec: dict) -> bool:
    """Print one line per metric; return False if any bounded metric got worse."""
    if len(parent_rows) != len(change_rows):
        raise SystemExit("the two result files hold different numbers of runs")
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    print(f"{len(parent_rows)} pairs; failed runs parent "
          f"{sum(r['failed'] for r in parent_rows)}, change {sum(r['failed'] for r in change_rows)}")
    print(f"{'metric':<36} {'unit':<8} {'parent q1/med/q3':<32} {'change q1/med/q3':<32} "
          f"{'wins':>5}  verdict")
    for name in parent_rows[0]["metrics"]:
        meta = metrics[name]
        p = [r["metrics"][name]["value"] for r in parent_rows]
        c = [r["metrics"][name]["value"] for r in change_rows]
        share, word = verdict(p, c, meta["better"], meta.get("bound"))
        ok = ok and word != "worse"
        pq = "/".join(f"{x:.4g}" for x in quartiles(p))
        cq = "/".join(f"{x:.4g}" for x in quartiles(c))
        print(f"{name:<36} {meta['unit']:<8} {pq:<32} {cq:<32} {share:>5.2f}  {word}")
    differ = [p["seed"] for p, c in zip(parent_rows, change_rows)
              if p.get("digests") != c.get("digests")]
    print("metrics.jsonl and chain.json bytes: "
          + (f"differ on seeds {differ}" if differ else "identical on every seed"))
    if all("final_accuracy" in r for r in parent_rows + change_rows):
        print("final_accuracy median: parent "
              f"{statistics.median(r['final_accuracy'] for r in parent_rows):.4f}, change "
              f"{statistics.median(r['final_accuracy'] for r in change_rows):.4f}")
    if not all(r["correct"] for r in parent_rows + change_rows):
        print("some runs failed their output checks")
        ok = False
    return ok


def read_rows(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="root of the parent checkout")
    parser.add_argument("--change", help="root of the change's checkout")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--held-out", action="store_true",
                        help="start from the held-out seed in perfbench/context.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    if args.results:
        return 0 if judge(read_rows(args.results[0]), read_rows(args.results[1]), spec) else 1
    if not (args.parent and args.change and args.workload):
        parser.error("give --parent, --change and --workload, or --results")
    if benchmark_digest(args.parent) != benchmark_digest(args.change):
        raise SystemExit("the two trees hold different benchmark files")
    seed = args.seed
    if args.held_out:
        with open(os.path.join(ROOT, "perfbench", "context.json")) as f:
            seed = json.load(f)["held_out_seed"]

    out_dir = os.path.join(ROOT, "perfbench", "_out", "compare")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{seed}-trace{args.trace}")
    rows = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            rows[side].append(run_once(tree, args.workload, seed + i, spec["run_seconds"],
                                       args.trace))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed + i}, {order[0]} first)", flush=True)
    for side, side_rows in rows.items():
        with open(f"{stem}-{side}.jsonl", "w") as f:
            for row in side_rows:
                f.write(json.dumps(row) + "\n")
    print(f"results: {stem}-parent.jsonl {stem}-change.jsonl")
    return 0 if judge(rows["parent"], rows["change"], spec) else 1


if __name__ == "__main__":
    sys.exit(main())

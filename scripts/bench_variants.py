#!/usr/bin/env python3
"""Three-way leaky handling comparison on the full yolov3 graph with random
weights: leakyA (plugin-pinned leaky), leakyB (decomposed) and relu (swapped),
each fused, reported as structure + conversion counts + f32 latency rows.

    python scripts/bench_variants.py -o runs/variants.csv --iters 3
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from jetforge import bench, executor, fixtures, frontend, passes  # noqa: E402


def build_variants(seed):
    base = frontend.parse_cfg(fixtures.yolov3_cfg())
    base = frontend.load_weights(fixtures.random_weights(base, seed=seed), base)

    leaky_a, _ = passes.apply_passes(base, ["fuse-conv-bn"])
    leaky_b, _ = passes.apply_passes(
        base, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])
    relu, _ = passes.apply_passes(base, ["relu-swap", "fuse-conv-bn"])
    return base, {"leakyA": leaky_a, "leakyB": leaky_b, "relu": relu}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="runs/variants.csv")
    parser.add_argument("--iters", type=int, default=3)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    base, variants = build_variants(args.seed)
    print("conversion points in i8 (leaky as plugin on the unfused graph):",
          passes.plan_precision(base, passes.I8, passes.LEAKY_AS_PLUGIN).conversion_count)
    for name, graph in variants.items():
        policy = passes.LEAKY_AS_PLUGIN if name == "leakyA" else passes.LEAKY_NATIVE
        plan = passes.plan_precision(graph, passes.I8, policy)
        print(f"  {name}: {len(graph.nodes)} nodes, "
              f"{plan.conversion_count} conversions in i8")

    rows = [bench.run_bench(base, executor.F32, args.iters, args.warmup,
                            variant="baseline")]
    for name, graph in variants.items():
        rows.append(bench.run_bench(graph, executor.F32, args.iters, args.warmup,
                                    variant=name))
    os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
    bench.write_csv(args.output, rows, {"fixture": "yolov3", "seed": args.seed})
    print(f"\n{'variant':10s} {'nodes':>6s} {'median ms':>10s}")
    for stats in rows:
        print(f"{stats.variant:10s} {stats.nodes:6d} {stats.median_ns / 1e6:10.1f}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

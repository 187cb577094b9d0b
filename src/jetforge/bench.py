"""Latency microbenchmark around the executor: warmup runs discarded,
median/p5/p95 over the rest, batch size always 1, structure columns
(node count, conv MACs) alongside so fused-vs-unfused rows are comparable
even when wall clock is noisy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import executor, frontend
from .graph import Graph

DEFAULT_ITERS = 200
DEFAULT_WARMUP = 20

CSV_COLUMNS = ["variant", "mode", "median_ns", "p5_ns", "p95_ns", "nodes", "macs"]


class BenchError(Exception):
    pass


@dataclass
class BenchStats:
    variant: str
    mode: str
    latencies_ns: list[int] = field(default_factory=list)
    nodes: int = 0
    macs: int = 0

    @property
    def median_ns(self) -> int:
        return int(np.percentile(self.latencies_ns, 50))

    @property
    def p5_ns(self) -> int:
        return int(np.percentile(self.latencies_ns, 5))

    @property
    def p95_ns(self) -> int:
        return int(np.percentile(self.latencies_ns, 95))

    def row(self) -> list[str]:
        return [self.variant, self.mode, str(self.median_ns), str(self.p5_ns),
                str(self.p95_ns), str(self.nodes), str(self.macs)]


def bench_input(graph: Graph) -> np.ndarray:
    # mid-gray frame: content does not matter for timing, determinism does
    return np.full(tuple(graph.input_shape), 0.5, dtype=np.float32)


def run_bench(graph: Graph, mode: str, iters: int = DEFAULT_ITERS,
              warmup: int = DEFAULT_WARMUP, variant: str = "model",
              plan: dict[str, str] | None = None) -> BenchStats:
    """Time executor invocations only (no pre/postprocessing inside the
    clock). Runs strictly sequentially."""
    if iters < 1:
        raise BenchError("need at least 1 iteration")
    if warmup < 0:
        raise BenchError("warmup cannot be negative")
    stats_src = frontend.model_stats(graph)
    x = bench_input(graph)
    stats = BenchStats(variant=variant, mode=mode, nodes=len(graph.nodes),
                       macs=stats_src.total_macs)
    for _ in range(warmup):
        executor.execute(graph, x, mode=mode, retention=executor.RETAIN_HEADS, plan=plan)
    for _ in range(iters):
        t0 = time.perf_counter_ns()
        executor.execute(graph, x, mode=mode, retention=executor.RETAIN_HEADS, plan=plan)
        stats.latencies_ns.append(time.perf_counter_ns() - t0)
    return stats


def write_csv(path, rows: list[BenchStats], meta: dict | None = None) -> None:
    """`# key=value` lines of `meta` and of `gemm_parts` (the executor
    splits large GEMMs across that many CPUs, so rows from machines that
    differ in it are not alike), then the rows."""
    meta = {**(meta or {}), "gemm_parts": executor.gemm_parts()}
    with open(path, "w", encoding="utf-8", newline="") as f:
        for key, value in sorted(meta.items()):
            f.write(f"# {key}={value}\n")
        f.write(",".join(CSV_COLUMNS) + "\n")
        for stats in rows:
            f.write(",".join(stats.row()) + "\n")


def read_csv(path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        header = None
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return rows

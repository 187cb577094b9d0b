#!/usr/bin/env python3
"""Run the perfbench workloads and record them as BENCH_<pr>.json.

    python scripts/bench_report.py --pr 8 [--baseline HEAD]

Each workload of BENCHMARK.json runs once per seed of SEEDS untraced (the
end-to-end metrics) and once traced at seed 0 (the per-layer metrics),
each run a fresh `python3 perfbench/run.py` process in a temporary copy
of the working tree (every file git tracks or would track, uncommitted
edits included), for BENCHMARK.json's run length.
With --baseline, the same runs are made in a temporary copy of that git
revision next to it, alternating with the working tree's run by run (the
working tree first in even pairs, the baseline first in odd ones), and
recorded next to them. Neither side runs in the repository itself, so
where a side runs is no difference between them. The file holds
perfbench's machine block and, per workload, every run's verdict and
metrics and the median and quartiles of every metric.

The diff printed at the end compares the medians with the baseline's,
measured in the same session; without --baseline, with the newest earlier
BENCH_*.json in the repository root. Regressions come first. Each line
gives the earlier side's quartiles, and with --baseline how many of the
seed pairs of untraced runs the working tree won.

The file also holds, under `code_lines`, each side's code lines per module
of src/jetforge and their total, counted by scripts/code_lines.py of the
working tree; with --baseline the modules whose count changed and the
totals are printed too.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import code_lines  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ten untraced runs per workload: enough pairs to tell a gain from the
# host's drift (a gain should win at least nine of ten)
SEEDS = tuple(range(10))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    p.add_argument("--baseline", metavar="REV", help="git revision to measure alongside")
    return p.parse_args(argv)


def perfbench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench process: its verdict, metrics and machine block."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(re.search(r"machine=(\{.*\})$", lines[0]).group(1))
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "machine": machine,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def copy_worktree(root: str, into: str) -> str:
    """The working tree's files at `root` that git tracks or would track
    (`git ls-files --cached --others --exclude-standard`), as they are on
    disk, copied under `into`; returns `into`. A tracked file deleted from
    the tree is left out."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=root, capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src, dst = os.path.join(root, name), os.path.join(into, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
    return into


def export(rev: str, into: str) -> str:
    """The repository's files at git revision `rev`, written under `into`;
    returns the commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def module_lines(checkout: str) -> dict[str, int]:
    """Code lines of each module of src/jetforge in `checkout`, by file
    name, and their sum under "total"."""
    counts = {os.path.basename(p): code_lines.file_lines(p) for p in code_lines.modules(checkout)}
    return {**counts, "total": sum(counts.values())}


def lines_diff(old: dict[str, int], new: dict[str, int]) -> list[str]:
    """One line per module whose code lines differ (a module on one side
    only counts 0 on the other), then the totals."""
    rows = [(name, old.get(name, 0), new.get(name, 0))
            for name in sorted((set(old) | set(new)) - {"total"})]
    rows = [row for row in rows if row[1] != row[2]] + [("total", old["total"], new["total"])]
    return [f"{name}: {a} -> {b} ({b - a:+d})" for name, a, b in rows]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the runs that report it."""
    names = sorted({name for r in runs for name in r["metrics"]})
    return {name: quartiles([r["metrics"][name] for r in runs if name in r["metrics"]])
            for name in names}


def measure(checkouts: dict[str, str], spec: dict) -> tuple[dict, dict]:
    """({label: {workload: {"runs", "summary"}}}, the machine block),
    alternating between the checkouts run by run; which checkout runs first
    alternates from pair to pair, so an order effect of the host falls on
    both sides."""
    out, machine = {label: {} for label in checkouts}, {}
    for wl in (w["name"] for w in spec["workloads"]):
        plan = [(seed, 0) for seed in SEEDS] + [(0, 1)]
        runs = {label: [] for label in checkouts}
        for i, (seed, trace) in enumerate(plan):
            order = list(checkouts.items())
            for label, path in order[::-1] if i % 2 else order:
                run = perfbench(path, wl, seed, spec["run_seconds"], trace)
                machine = run.pop("machine")
                print(f"{label} {wl} seed={seed} trace={trace} correct={run['correct']} "
                      f"failed={run['failed']} {json.dumps(run['metrics'])[:160]}", flush=True)
                runs[label].append(run)
        for label in checkouts:
            out[label][wl] = {"runs": runs[label], "summary": summarize(runs[label])}
    return out, machine


def previous_bench(pr: int) -> tuple[str, dict] | None:
    found = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) < pr:
            found.append((int(m.group(1)), path))
    if not found:
        return None
    path = max(found)[1]
    with open(path, encoding="utf-8") as f:
        return os.path.basename(path), json.load(f)["workloads"]


def seed_wins(old_runs: list[dict], new_runs: list[dict], name: str,
              lower: bool) -> tuple[int, int]:
    """(pairs the new side won, pairs): the untraced runs of both sides that
    report `name`, paired by seed; a tie is no win."""
    before = {r["seed"]: r["metrics"][name] for r in old_runs
              if not r["trace"] and name in r["metrics"]}
    pairs = [(before[r["seed"]], r["metrics"][name]) for r in new_runs
             if not r["trace"] and name in r["metrics"] and r["seed"] in before]
    return sum(b < a if lower else b > a for a, b in pairs), len(pairs)


def diff(old: dict, new: dict, spec: dict, paired: bool = False) -> list[str]:
    """One line per metric whose median both sides report, regressions
    first (largest first), then the rest from least to most improved. Each
    line gives the old side's quartiles, and with `paired` (both sides
    measured in one session) how many seed pairs of untraced runs the new
    side won: the numbers that tell a gain from the spread of the runs."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for wl, data in new.items():
        before = old.get(wl, {}).get("summary", {})
        for name, stats in data["summary"].items():
            if name not in before or name not in better:
                continue
            a, b = before[name]["median"], stats["median"]
            change = (b - a) / abs(a) if a else (0.0 if a == b else float("inf"))
            worse = change if better[name] == "lower" else -change
            text = (f"{'REGRESSION ' if worse > 0 else ''}{wl} {name}: {a:.6g} -> {b:.6g} "
                    f"({change:+.1%}), before q1 {before[name]['q1']:.6g} "
                    f"q3 {before[name]['q3']:.6g}")
            won, pairs = seed_wins(old[wl]["runs"], data["runs"], name,
                                   better[name] == "lower") if paired else (0, 0)
            rows.append((-worse, text + (f", won {won}/{pairs} seed pairs" if pairs else "")))
    rows.sort(key=lambda r: r[0])
    return [text for _, text in rows]


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"change": copy_worktree(ROOT, os.path.join(tmp, "change"))}
        if args.baseline:
            checkouts["baseline"] = os.path.join(tmp, "baseline")
            commit = export(args.baseline, checkouts["baseline"])
        results, machine = measure(checkouts, spec)
        lines = {label: module_lines(path) for label, path in checkouts.items()}

    doc = {"pr": args.pr, "seeds": list(SEEDS), "seconds": spec["run_seconds"], "machine": machine,
           "command": " ".join(["python", "scripts/bench_report.py"] + (argv or sys.argv[1:])),
           "workloads": results["change"], "code_lines": lines}
    if args.baseline:
        doc["baseline"] = {"commit": commit, "workloads": results["baseline"]}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")

    if args.baseline:
        print(f"code lines of src/jetforge against the baseline {commit[:12]}:")
        for line in lines_diff(lines["baseline"], lines["change"]):
            print("  " + line)
        name, old = f"the baseline {commit[:12]}", results["baseline"]
    elif (prev := previous_bench(args.pr)) is not None:
        name, old = prev
    else:
        return 0
    print(f"medians against {name}:")
    for line in diff(old, results["change"], spec, paired=bool(args.baseline)):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

import importlib.util
import os
import subprocess

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "bench_report.py")


def load_bench_report():
    spec = importlib.util.spec_from_file_location("bench_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_alternates_which_checkout_runs_first(monkeypatch):
    bench_report = load_bench_report()
    calls = []

    def fake_perfbench(checkout, workload, seed, seconds, trace):
        calls.append(checkout)
        return {"seed": seed, "trace": trace, "correct": 1, "attempted": 1, "failed": 0,
                "machine": {}, "metrics": {"latency_ms": 1.0}}

    monkeypatch.setattr(bench_report, "perfbench", fake_perfbench)
    spec = {"workloads": [{"name": "w"}], "run_seconds": 1}
    out, _ = bench_report.measure({"change": "a", "baseline": "b"}, spec)
    pairs = [tuple(calls[i:i + 2]) for i in range(0, len(calls), 2)]
    assert pairs == [("a", "b") if i % 2 == 0 else ("b", "a") for i in range(len(pairs))]
    assert len(pairs) == len(bench_report.SEEDS) + 1
    assert [r["seed"] for r in out["change"]["w"]["runs"]] == [r["seed"] for r in
                                                               out["baseline"]["w"]["runs"]]


def _runs(values, trace_value=None):
    """Fake untraced runs, one per seed, then a traced one at seed 0."""
    runs = [{"seed": seed, "trace": 0, "metrics": {"latency_ms": v, "setup_s": 1.0}}
            for seed, v in enumerate(values)]
    return runs + [{"seed": 0, "trace": 1, "metrics": {"executor.f32_s": trace_value}}]


def test_diff_gives_the_old_quartiles_and_the_seed_pairs_the_change_won():
    bench_report = load_bench_report()
    spec = {"end_to_end": [{"name": "latency_ms", "better": "lower"},
                           {"name": "setup_s", "better": "lower"}],
            "per_layer": [{"name": "executor.f32_s", "better": "lower"}]}
    old_runs, new_runs = _runs([10.0, 12.0, 11.0, 13.0], 2.0), _runs([9.0, 12.5, 10.0, 12.0], 1.0)
    old = {"w": {"runs": old_runs, "summary": bench_report.summarize(old_runs)}}
    new = {"w": {"runs": new_runs, "summary": bench_report.summarize(new_runs)}}
    lines = bench_report.diff(old, new, spec, paired=True)
    # seeds 0, 2 and 3 are faster, seed 1 slower; setup_s ties every pair;
    # the traced metric has one run a side and no untraced pair
    assert lines == [
        "w setup_s: 1 -> 1 (+0.0%), before q1 1 q3 1, won 0/4 seed pairs",
        "w latency_ms: 11.5 -> 11 (-4.3%), before q1 10.75 q3 12.25, won 3/4 seed pairs",
        "w executor.f32_s: 2 -> 1 (-50.0%), before q1 2 q3 2"]
    assert bench_report.diff(old, new, spec)[1] == (
        "w latency_ms: 11.5 -> 11 (-4.3%), before q1 10.75 q3 12.25")
    assert bench_report.seed_wins(old_runs, new_runs[1:], "latency_ms", lower=False) == (1, 3)


def test_the_working_tree_copy_holds_uncommitted_edits_and_untracked_files(tmp_path):
    """Both sides run from copies; the working tree's copy is the tree as it
    is on disk, not its last commit, and leaves out what git ignores."""
    bench_report = load_bench_report()
    tree, into = tmp_path / "tree", tmp_path / "copy"
    (tree / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tree,
                       check=True, capture_output=True)

    git("init", "-q")
    (tree / "src" / "edited.py").write_text("committed\n")
    (tree / "deleted.py").write_text("committed\n")
    (tree / ".gitignore").write_text("*.log\n")
    git("add", "-A")
    git("commit", "-qm", "one")
    (tree / "src" / "edited.py").write_text("edited\n")
    (tree / "deleted.py").unlink()
    (tree / "src" / "untracked.py").write_text("new\n")
    (tree / "run.log").write_text("ignored\n")
    assert bench_report.copy_worktree(str(tree), str(into)) == str(into)
    files = {str(p.relative_to(into)): p.read_text() for p in into.rglob("*") if p.is_file()}
    assert files == {".gitignore": "*.log\n", os.path.join("src", "edited.py"): "edited\n",
                     os.path.join("src", "untracked.py"): "new\n"}

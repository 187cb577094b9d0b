import importlib.util
import os

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

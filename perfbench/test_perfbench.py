"""Tests of the benchmark itself: seeded inputs repeat exactly, the span
recorder's self-time arithmetic, and the scaling by the speed probe.

    python3 -m pytest perfbench
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import PROBE_REFERENCE_S, scaled  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import Checks, Context, TinyCalibEval, uav_frame  # noqa: E402


def test_uav_frame_repeats_for_a_seed():
    a = uav_frame(np.random.default_rng(5), 320, 180)
    b = uav_frame(np.random.default_rng(5), 320, 180)
    c = uav_frame(np.random.default_rng(6), 320, 180)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _tiny_inputs(work, seed):
    """Calibration images, and the bytes of every scene file, generated for
    tiny-calib-eval at `seed`."""
    work.mkdir()
    workload = TinyCalibEval(Context(seed, str(work), Tracer(enabled=False), Checks()))
    scenes = work / "scenes"
    files = {p.name: p.read_bytes() for p in sorted(scenes.iterdir())}
    return np.stack(workload.calibration), files


def test_tiny_calib_eval_inputs_repeat_for_a_seed(tmp_path):
    images, files = _tiny_inputs(tmp_path / "a", 3)
    again = _tiny_inputs(tmp_path / "b", 3)
    other = _tiny_inputs(tmp_path / "c", 4)
    assert np.array_equal(images, again[0]) and files == again[1]
    assert not np.array_equal(images, other[0])
    assert files.keys() == other[1].keys() and files != other[1]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("bench.request", 0.0, 10.0, -1, "request0"),
        Span("detect.nms", 1.0, 4.0, 0, "request0"),
        Span("detect.decode_head", 3.0, 6.0, 0, "request0"),   # overlaps its sibling
        Span("evaluation.evaluate", 8.0, 12.0, 0, "request0"),  # runs past its parent
        Span("tensorio.load_input", 2.0, 3.0, 1, "request0"),
    ]
    got = self_times(spans)
    # root: 10 minus the union [1, 6] + [8, 10] of its children
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_tracer_nests_spans_and_counts_per_run():
    tracer = Tracer(enabled=True)
    tracer.run = "request0"
    with tracer.span("bench.request"):
        with tracer.span("detect.nms"):
            tracer.count("detect.kept", 2)
        tracer.count("detect.kept", 3)
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("bench.request", -1, "request0"), ("detect.nms", 0, "request0")]
    assert tracer.counts == {("request0", "detect.kept"): 5}
    assert all(s.end >= s.start for s in tracer.spans)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("bench.request"):
        tracer.count("detect.kept")
    assert tracer.spans == [] and tracer.counts == {}


def test_scaled_divides_by_the_mean_of_the_probes_around_each_time():
    # a time measured while the host ran the probe at half the reference
    # speed reads half as long; each time uses the probes on its two sides
    ref = PROBE_REFERENCE_S
    got = scaled([1.0, 3.0], [2 * ref, 3 * ref], [2 * ref, 1 * ref])
    assert got == pytest.approx([0.5, 1.5])

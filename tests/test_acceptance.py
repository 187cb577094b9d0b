"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not configurable.
"""

import math
import os
import time

import numpy as np

from jetforge import bench, data, detect, evaluation, executor, fixtures
from jetforge import frontend, passes, quant, tensorio
from jetforge import graph as g

from test_evaluation import det, manifest_from, rec
from test_passes import random_conv_bn_net
from test_quant import fixture_histograms, make_hist, oracle_best_cut


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_leaky_decomposition_equivalence():
    """alpha=0.1, 1e6 inputs in [-100, 100]: |leakyB(x) - leaky(x)| <= 1e-6."""
    t0 = time.time()
    act = g.activation_node("L", ["input"], "L", g.LEAKY, 0.1)
    gr = g.Graph(nodes=[act], input_shape=g.TensorShape(1, 1, 1000, 1000))
    rewritten, _ = passes.decompose_leaky(gr)
    s_factor = rewritten.node_by_id("L_s").attrs["factor"]
    e_factor = rewritten.node_by_id("L_e").attrs["factor"]

    rng = np.random.default_rng(42)
    x = rng.uniform(-100.0, 100.0, size=1_000_000)
    s = s_factor * x
    leaky_b = s + e_factor * np.maximum(s, 0.0)
    leaky_ref = np.where(x >= 0, x, 0.1 * x)
    err = np.abs(leaky_b - leaky_ref).max()
    elapsed = time.time() - t0
    report(1, err <= 1e-6 and elapsed < 5.0,
           f"max |leakyB - leaky| = {err:.2e} over 1e6 inputs ({elapsed:.2f}s)")


def test_criterion_02_fusion_equivalence():
    """50 random conv+bn(+act) nets, 3-10 layers: fused f32 head outputs match
    unfused within 1e-4 relative / 1e-6 absolute."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        gr = random_conv_bn_net(rng, size=2)
        fused, _ = passes.fuse_conv_bn(gr)
        x = rng.normal(0.0, 0.25, size=tuple(gr.input_shape)).astype(np.float32)
        ref = executor.execute(gr, x)
        got = executor.execute(fused, x)
        for ta, tb in zip(gr.output_tensors(), fused.output_tensors()):
            a, b = ref.as_f32(ta), got.as_f32(tb)
            tol = np.maximum(1e-4 * np.abs(a), 1e-6)
            worst = max(worst, float((np.abs(a - b) / tol).max()))
    elapsed = time.time() - t0
    report(2, worst <= 1.0 and elapsed < 60.0,
           f"50 nets, worst error = {worst:.3f}x tolerance ({elapsed:.1f}s)")


def test_criterion_03_precision_boundary_reproduction(yolov3_graph):
    """The yolov3 cfg of fixtures.yolov3_cfg(): exactly 72 leaky activations
    at parse time and exactly 144 conversion points with leaky pinned as a
    plugin in i8."""
    leaky = sum(1 for n in yolov3_graph.nodes
                if n.kind == g.ACTIVATION and n.attrs["act"] == g.LEAKY)
    plan = passes.plan_precision(yolov3_graph, passes.I8, passes.LEAKY_AS_PLUGIN)
    ok = leaky == 72 and plan.conversion_count == 144
    report(3, ok, f"{leaky} leaky activations, {plan.conversion_count} conversion points")


def test_criterion_04_entropy_calibration_oracle():
    """25 fixture histograms: entropy_calibrate equals an independently coded
    exhaustive KL search, exact cut-index equality."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    hists = fixture_histograms(rng)
    assert len(hists) == 25
    levels = 16
    mismatches = []
    for name, counts in hists:
        counts = np.asarray(counts, dtype=np.int64)
        hist = make_hist(counts, 0.0, 1.0, tensor_id=name)
        lo, hi = quant.entropy_calibrate(hist, levels=levels)
        nonzero = np.count_nonzero(counts)
        if nonzero <= 1:
            b = int(np.flatnonzero(counts)[0])
            w = hist.bin_width
            want = (float(hist.edges[b] - w), float(hist.edges[b + 1] + w))
            if (lo, hi) != want:
                mismatches.append(name)
            continue
        scanned = counts.copy()
        scanned[0] = scanned[1]
        want_j = oracle_best_cut(scanned, levels)
        if lo != 0.0 or hi != float(hist.edges[want_j]):
            mismatches.append(name)
    elapsed = time.time() - t0
    report(4, not mismatches and elapsed < 10.0,
           f"25 histograms, mismatches: {mismatches or 'none'} ({elapsed:.2f}s)")


def test_criterion_05_quantization_fidelity(tmp_path):
    """Tiny pinned-weight detector, 200 synthetic calibration images:
    i8 mAP@0.5 >= f32 mAP - 0.02 and f16 mAP >= f32 mAP - 0.005."""
    t0 = time.time()
    model = fixtures.build_tiny_detector()
    optimized, _ = passes.apply_passes(
        model, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])
    cal = fixtures.calibration_images(200, seed=1)
    qparams = quant.calibrate_graph(
        optimized, cal, quant.CalibrationConfig(image_count=200, seed=0))
    quantized = optimized.copy()
    quantized.qparams = qparams

    eval_dir = tmp_path / "eval"
    manifest = fixtures.write_scene_dataset(eval_dir, 25, seed=77)
    maps = {}
    for mode, graph in (("f32", optimized), ("f16", optimized), ("i8", quantized)):
        dets = []
        for record in manifest.records:
            img = tensorio.load_image(os.path.join(eval_dir, record.image))
            for d in detect.detect_image(graph, img, mode=mode,
                                         conf_threshold=detect.EVAL_CONF_THRESHOLD):
                dets.append({"image": record.image, **d})
        maps[mode] = evaluation.evaluate(dets, manifest).map50
    elapsed = time.time() - t0
    ok = (maps["i8"] >= maps["f32"] - 0.02
          and maps["f16"] >= maps["f32"] - 0.005
          and elapsed < 300.0)
    report(5, ok, f"mAP f32={maps['f32']:.4f} f16={maps['f16']:.4f} "
                  f"i8={maps['i8']:.4f} ({elapsed:.1f}s)")


def test_criterion_06_resolution_schedule():
    """(608,352) and (960,544) reproduce; all 18 legal widths map to the
    closest legal 16:9 height, exactly."""
    ok = data.fit_height(608) == 352 and data.fit_height(960) == 544
    widths = list(range(416, 961, 32))
    ok = ok and len(widths) == 18
    for w in widths:
        h = data.fit_height(w)
        if h % 32 or not 256 <= h <= 544:
            ok = False
            break
        target = w * 9 / 16
        for other in range(256, 545, 32):
            if abs(other - target) < abs(h - target):
                ok = False
            if abs(other - target) == abs(h - target) and other > h:
                ok = False
    report(6, ok, "608->352, 960->544, all 18 widths optimal with ties to larger h")


def test_criterion_07_dataset_rules():
    """20-image COCO/Visdrone fixtures: class histogram, ignore count and
    negative count match the hand tally exactly."""
    here = os.path.dirname(__file__)
    coco = data.ingest_coco(os.path.join(here, "fixtures", "coco_fixture.json"))
    visdrone = data.ingest_visdrone(os.path.join(here, "fixtures", "visdrone"),
                                    default_size=(200, 160))
    manifest = data.merge([coco, visdrone])
    s = manifest.summary
    want_hist = {"person": 5, "car": 8, "bicycle": 3, "motorbike": 3,
                 "bus": 2, "truck": 2}
    ok = (s["images"] == 20 and s["class_histogram"] == want_hist
          and s["ignore_boxes"] == 6 and s["negative_images"] == 4)
    report(7, ok, f"histogram={s['class_histogram']} ignore={s['ignore_boxes']} "
                  f"negatives={s['negative_images']}")


def _minmax_baseline(boxes, k):
    """Linear codebook between the smallest- and largest-area box."""
    boxes = np.asarray(boxes, dtype=np.float64)
    areas = boxes.prod(axis=1)
    lo, hi = boxes[areas.argmin()], boxes[areas.argmax()]
    ts = np.linspace(0.0, 1.0, k)[:, None]
    return lo[None, :] * (1 - ts) + hi[None, :] * ts


def test_criterion_08_anchor_clustering(rng):
    """k=2 on the 4-box fixture equals the brute-force optimal partition;
    200-box run: non-decreasing per-iteration mean IoU, final >= min-max
    baseline."""
    from test_data import brute_force_two_clusters
    boxes4 = [(8, 8), (9, 9), (50, 60), (55, 62)]
    result = data.kmeans_anchors(boxes4, k=2, seed=0)
    want_iou, want_cents = brute_force_two_clusters(boxes4)
    ok = math.isclose(result.mean_iou, want_iou, rel_tol=1e-12)
    ok = ok and np.allclose(sorted(result.anchors.tolist()),
                            sorted(want_cents.tolist()))

    boxes200 = rng.uniform(4, 180, size=(200, 2))
    res = data.kmeans_anchors(boxes200, k=9, seed=5)
    hist = res.iou_history
    monotone = all(b >= a for a, b in zip(hist, hist[1:]))
    baseline = _minmax_baseline(boxes200, 9)
    base_iou = float(data.wh_iou(boxes200, baseline).max(axis=1).mean())
    ok = ok and monotone and res.mean_iou >= base_iou
    report(8, ok, f"4-box optimum matched; 200-box mean IoU {res.mean_iou:.4f} "
                  f">= baseline {base_iou:.4f}, history monotone={monotone}")


def test_criterion_09_evaluation_correctness(rng):
    """Hand-worked 3-image fixture reproduces APs exactly; adding only
    IGNORED detections leaves mAP bit-identical in 100 randomized cases."""
    records = [
        rec("imgA", [{"bbox": [10, 10, 20, 20], "label": "person"},
                     {"bbox": [50, 50, 20, 20], "label": "car"},
                     {"bbox": [0, 70, 30, 30], "label": "ignore"}]),
        rec("imgB", [{"bbox": [10, 10, 20, 20], "label": "person"}]),
        rec("imgC", [{"bbox": [40, 40, 40, 40], "label": "ignore"}]),
    ]
    dets = [
        det("imgC", 0, 0.95, [45, 45, 20, 20]),
        det("imgA", 0, 0.90, [10, 10, 20, 20]),
        det("imgB", 0, 0.80, [11, 11, 20, 20]),
        det("imgA", 0, 0.70, [60, 10, 20, 20]),
        det("imgB", 1, 0.85, [10, 60, 20, 20]),
        det("imgA", 1, 0.60, [50, 50, 20, 20]),
        det("imgA", 1, 0.40, [5, 75, 18, 18]),
    ]
    report_obj = evaluation.evaluate(dets, manifest_from(records))
    exact = (report_obj.per_class_ap["person"] == 1.0
             and report_obj.per_class_ap["car"] == 0.5
             and report_obj.map50 == 0.75)

    invariant_holds = True
    for _ in range(100):
        region = [60, 60, 30, 30]
        records2 = [rec("img0", [{"bbox": [10, 10, 20, 20], "label": "person"},
                                 {"bbox": region, "label": "ignore"}])]
        manifest = manifest_from(records2)
        base_dets = [det("img0", 0, float(rng.uniform(0.2, 1.0)), [10, 10, 20, 20]),
                     det("img0", 1, float(rng.uniform(0.1, 0.9)), [30, 30, 10, 10])]
        base = evaluation.evaluate(base_dets, manifest)
        ghosts = [det("img0", int(rng.integers(0, 6)), float(rng.uniform(0.01, 1.0)),
                      [61.0 + float(rng.uniform(0, 10)), 61.0 + float(rng.uniform(0, 10)),
                       float(rng.uniform(4, 18)), float(rng.uniform(4, 18))])]
        again = evaluation.evaluate(base_dets + ghosts, manifest)
        if (again.map50 != base.map50
                or again.per_class_ap != base.per_class_ap):
            invariant_holds = False
            break
    report(9, exact and invariant_holds,
           f"fixture mAP {report_obj.map50} (person 1.0, car 0.5); "
           f"ignore invariance over 100 cases: {invariant_holds}")


def test_criterion_10_structural_speedup_proxy(yolov3_weighted, tmp_path):
    """On the decomposed yolov3 model, the fusion passes strictly reduce node
    count, keep conv MACs identical, and the fused f32 executor's median
    latency does not exceed the unfused one on this machine. The variants
    take turns, one timed call each per round, so a change in the
    machine's speed during the test falls on both alike."""
    variants = {
        "unfused": passes.decompose_leaky(yolov3_weighted)[0],
        "fused": passes.apply_passes(
            yolov3_weighted, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])[0],
    }
    iters = 5
    rows = {name: bench.run_bench(graph, executor.F32, iters=1, warmup=1, variant=name)
            for name, graph in variants.items()}
    for _ in range(iters - 1):
        for name, graph in variants.items():
            rows[name].latencies_ns += bench.run_bench(
                graph, executor.F32, iters=1, warmup=0).latencies_ns
    csv_path = tmp_path / "bench.csv"
    bench.write_csv(csv_path, list(rows.values()), {"fixture": "yolov3"})
    by_variant = {r["variant"]: r for r in bench.read_csv(csv_path)}
    uf, fu = by_variant["unfused"], by_variant["fused"]
    ok = (int(fu["nodes"]) < int(uf["nodes"])
          and int(fu["macs"]) == int(uf["macs"])
          and int(fu["median_ns"]) <= int(uf["median_ns"]))
    report(10, ok,
           f"nodes {uf['nodes']} -> {fu['nodes']}, macs {uf['macs']} == {fu['macs']}, "
           f"median {int(uf['median_ns']) / 1e6:.0f}ms -> {int(fu['median_ns']) / 1e6:.0f}ms")


def test_criterion_11_roundtrip_integrity(tiny_detector, tmp_path):
    """convert -> save -> load -> save is byte-identical and darknet weights
    are bit-preserved end to end."""
    weights_bytes = frontend.save_weights(tiny_detector)
    parsed = frontend.parse_cfg(fixtures.tiny_cfg())
    loaded = frontend.load_weights(weights_bytes, parsed)

    p1, p2 = tmp_path / "a.uir", tmp_path / "b.uir"
    g.save_container(loaded, p1)
    reloaded = g.load_container(p1)
    g.save_container(reloaded, p2)
    byte_identical = p1.read_bytes() == p2.read_bytes()

    bits_preserved = all(
        np.array_equal(reloaded.weights[key], tiny_detector.weights[key])
        for key in tiny_detector.weights)
    report(11, byte_identical and bits_preserved,
           f"container byte-identical={byte_identical}, "
           f"weights bit-preserved={bits_preserved}")

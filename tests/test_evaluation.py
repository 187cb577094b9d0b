import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import evaluation
from jetforge.data import CLASS_NAMES, IGNORE, AnnotationRecord, Manifest, merge


def manifest_from(records):
    return merge([records])


def rec(image, boxes, w=100, h=100):
    return AnnotationRecord(image=image, width=w, height=h, boxes=boxes,
                            source="synthetic")


def det(image, cls, conf, bbox):
    return {"image": image, "class": cls, "confidence": conf, "bbox": list(bbox)}


# --------------------------------------------------------------------------
# matching
# --------------------------------------------------------------------------

def test_match_exact_hit_is_tp():
    r = evaluation.match_detections(
        [{"bbox": [10, 10, 20, 20], "confidence": 0.9}], [[10, 10, 20, 20]], [])
    assert r.det_labels == [evaluation.TP]
    assert r.gt_matched_by == [0]


def test_match_inside_ignore_region_not_fp():
    r = evaluation.match_detections(
        [{"bbox": [45, 45, 20, 20], "confidence": 0.9}], [], [[40, 40, 40, 40]])
    assert r.det_labels == [evaluation.IGNORED]


def test_match_two_dets_one_gt():
    dets = [{"bbox": [10, 10, 20, 20], "confidence": 0.9},
            {"bbox": [12, 12, 20, 20], "confidence": 0.8}]
    r = evaluation.match_detections(dets, [[10, 10, 20, 20]], [])
    assert r.det_labels == [evaluation.TP, evaluation.FP]


def test_match_prefers_highest_iou_gt():
    dets = [{"bbox": [10, 10, 20, 20], "confidence": 0.9}]
    gts = [[14, 14, 20, 20], [10, 10, 20, 20]]
    r = evaluation.match_detections(dets, gts, [])
    assert r.det_matched_gt == [1]


# --------------------------------------------------------------------------
# average precision
# --------------------------------------------------------------------------

def test_ap_perfect_detector():
    assert evaluation.average_precision(np.array([1.0, 1.0, 1.0]), 3) == 1.0


def test_ap_fp_then_tp_single_gt():
    # conf 0.9 FP then conf 0.8 TP: precision at recall 1 is 1/2 -> AP 0.5
    assert evaluation.average_precision(np.array([0.0, 1.0]), 1) == 0.5


def test_ap_no_detections():
    assert evaluation.average_precision(np.array([]), 5) == 0.0


def test_ap_needs_ground_truth():
    with pytest.raises(evaluation.EvalError):
        evaluation.average_precision(np.array([1.0]), 0)


def brute_force_ap(confidences, flags, total_gt):
    """AP over every confidence-threshold cut, trapezoid-free all-points form:
    sum over distinct recall steps of (delta recall) * best precision at
    recall >= that level. Independent oracle for small instances."""
    order = np.argsort([-c for c in confidences], kind="stable")
    flags = np.asarray(flags, dtype=float)[order]
    points = []
    tp = fp = 0
    for f in flags:
        tp += f
        fp += 1 - f
        points.append((tp / total_gt, tp / (tp + fp)))
    ap = 0.0
    prev_recall = 0.0
    for recall, _ in points:
        if recall > prev_recall:
            best = max(p for r, p in points if r >= recall)
            ap += (recall - prev_recall) * best
            prev_recall = recall
    return ap


def test_ap_matches_bruteforce_small_instances(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        flags = rng.integers(0, 2, size=n).astype(float)
        total_gt = int(flags.sum() + rng.integers(0, 3))
        if total_gt == 0:
            continue
        confs = rng.uniform(0.1, 1.0, size=n)
        order = np.argsort(-confs, kind="stable")
        got = evaluation.average_precision(flags[order], total_gt)
        want = brute_force_ap(confs, flags, total_gt)
        assert got == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------------------------
# end-to-end evaluate on the hand-worked 3-image fixture
# --------------------------------------------------------------------------

@pytest.fixture()
def three_image_setup():
    records = [
        rec("imgA", [{"bbox": [10, 10, 20, 20], "label": "person"},
                     {"bbox": [50, 50, 20, 20], "label": "car"},
                     {"bbox": [0, 70, 30, 30], "label": "ignore"}]),
        rec("imgB", [{"bbox": [10, 10, 20, 20], "label": "person"}]),
        rec("imgC", [{"bbox": [40, 40, 40, 40], "label": "ignore"}]),
    ]
    dets = [
        det("imgC", 0, 0.95, [45, 45, 20, 20]),   # ignored
        det("imgA", 0, 0.90, [10, 10, 20, 20]),   # TP
        det("imgB", 0, 0.80, [11, 11, 20, 20]),   # TP (IoU 0.82)
        det("imgA", 0, 0.70, [60, 10, 20, 20]),   # FP
        det("imgB", 1, 0.85, [10, 60, 20, 20]),   # FP (no car GT on B)
        det("imgA", 1, 0.60, [50, 50, 20, 20]),   # TP
        det("imgA", 1, 0.40, [5, 75, 18, 18]),    # ignored
    ]
    return manifest_from(records), dets


def test_three_image_fixture_exact(three_image_setup):
    manifest, dets = three_image_setup
    report = evaluation.evaluate(dets, manifest)
    assert report.per_class_ap["person"] == 1.0
    assert report.per_class_ap["car"] == 0.5
    assert report.map50 == pytest.approx(0.75, abs=0)
    assert set(report.per_class_ap) == {"person", "car"}  # others have no GT
    assert report.tp_counts["person"] == 2 and report.fp_counts["person"] == 1
    assert report.ignored_counts["person"] == 1
    assert report.tp_counts["car"] == 1 and report.fp_counts["car"] == 1
    assert report.ignored_counts["car"] == 1


def test_ignore_eval_off_turns_ignored_into_fp(three_image_setup):
    manifest, dets = three_image_setup
    report = evaluation.evaluate(dets, manifest, apply_ignore=False)
    # the 0.95 detection on imgC now ranks first as an FP
    assert report.per_class_ap["person"] < 1.0


def test_appending_ignored_detections_is_invariant(three_image_setup):
    manifest, dets = three_image_setup
    base = evaluation.evaluate(dets, manifest)
    extra = dets + [
        det("imgC", 0, 0.99, [50, 50, 15, 15]),
        det("imgA", 1, 0.03, [2, 72, 10, 10]),
        det("imgC", 1, 0.55, [42, 42, 30, 30]),
    ]
    again = evaluation.evaluate(extra, manifest)
    assert again.per_class_ap == base.per_class_ap
    assert again.map50 == base.map50


def test_ignore_invariance_randomized(rng):
    """Adding detections with >= 0.5 ignore overlap and no GT match leaves
    every AP bit-identical (100 randomized cases)."""
    for case in range(100):
        region = [60, 60, 30, 30]
        records = [rec("img0", [{"bbox": [10, 10, 20, 20], "label": "person"},
                                {"bbox": region, "label": "ignore"}])]
        manifest = manifest_from(records)
        dets = [det("img0", 0, float(rng.uniform(0.2, 1.0)), [10, 10, 20, 20])]
        if rng.random() < 0.5:
            dets.append(det("img0", 0, float(rng.uniform(0.05, 0.95)), [35, 10, 12, 12]))
        base = evaluation.evaluate(dets, manifest)
        ghosts = []
        for _ in range(int(rng.integers(1, 4))):
            w, h = rng.uniform(5, 25, size=2)
            x = rng.uniform(region[0], region[0] + region[2] - w / 2)
            y = rng.uniform(region[1], region[1] + region[3] - h / 2)
            ghost = [float(x), float(y), float(w), float(h)]
            overlap = evaluation._ignore_overlap(ghost, region)
            if overlap >= 0.5:
                ghosts.append(det("img0", int(rng.integers(0, 6)),
                                  float(rng.uniform(0.01, 1.0)), ghost))
        again = evaluation.evaluate(dets + ghosts, manifest)
        assert again.per_class_ap == base.per_class_ap, case
        assert again.map50 == base.map50, case


def test_confidence_scale_invariance(three_image_setup):
    manifest, dets = three_image_setup
    base = evaluation.evaluate(dets, manifest)
    for factor in (0.5, 0.25, 2.0):
        scaled = [dict(d, confidence=d["confidence"] * factor) for d in dets]
        again = evaluation.evaluate(scaled, manifest)
        assert again.per_class_ap == base.per_class_ap
        assert again.map50 == base.map50


def test_precision_envelope_properties(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        flags = rng.integers(0, 2, size=n).astype(float)
        gt = int(flags.sum() + rng.integers(0, 5)) or 1
        ap = evaluation.average_precision(flags, gt)
        assert 0.0 <= ap <= 1.0


def test_empty_detections_zero_map(three_image_setup):
    manifest, _ = three_image_setup
    report = evaluation.evaluate([], manifest)
    assert report.map50 == 0.0
    assert report.per_class_ap == {"person": 0.0, "car": 0.0}


def test_unknown_image_and_class(three_image_setup):
    manifest, dets = three_image_setup
    with pytest.raises(evaluation.UnknownImage):
        evaluation.evaluate([det("who", 0, 0.5, [0, 0, 5, 5])], manifest)
    with pytest.raises(evaluation.UnknownClassId):
        evaluation.evaluate([det("imgA", 17, 0.5, [0, 0, 5, 5])], manifest)


@pytest.mark.parametrize("iou_thresh", [-0.1, 1.5, float("nan")], ids=repr)
def test_evaluate_refuses_an_iou_threshold_outside_zero_to_one(three_image_setup, iou_thresh):
    """1.5 used to score an exact match as a false positive."""
    manifest, dets = three_image_setup
    with pytest.raises(evaluation.EvalError, match=f"got {iou_thresh}$"):
        evaluation.evaluate(dets, manifest, iou_thresh=iou_thresh)


def test_evaluate_refuses_a_manifest_with_two_records_for_one_image():
    """The second record used to replace the first, and its boxes went
    unscored."""
    first = rec("imgA", [{"label": "person", "bbox": [10, 10, 20, 20]}])
    second = rec("imgA", [{"label": "car", "bbox": [50, 50, 20, 20]}])
    manifest = Manifest(records=[first, second], summary={})
    with pytest.raises(evaluation.EvalError, match="^image 'imgA' has more than one record$"):
        evaluation.evaluate([det("imgA", 0, 0.9, [10, 10, 20, 20])], manifest)


def test_report_table_renders(three_image_setup):
    manifest, dets = three_image_setup
    report = evaluation.evaluate(dets, manifest)
    table = report.table()
    assert "person" in table and "mAP@0.5" in table and "0.7500" in table


# --------------------------------------------------------------------------
# differential: evaluate against a reference loop
# --------------------------------------------------------------------------

def reference_evaluate(detections, manifest, iou_thresh, apply_ignore):
    """The to_dict() of a report by the earlier loop: ground truth and ignore
    regions rebuilt per image and class, running tp/fp/ignored counters, and
    outcomes sorted by (-confidence, insertion order)."""
    by_image = {rec.image: rec for rec in manifest.records}
    groups = {}
    for d in detections:
        groups.setdefault((d["image"], int(d["class"])), []).append(d)
    per_class_ap, gt_counts, tp_counts, fp_counts, ignored_counts = {}, {}, {}, {}, {}
    for cid, cname in enumerate(CLASS_NAMES):
        outcomes = []  # (confidence, order, is_tp)
        total_gt = tp_total = fp_total = ign_total = order = 0
        for image in sorted(by_image):
            rec = by_image[image]
            gts = [b["bbox"] for b in rec.boxes if b["label"] == cname]
            regions = ([b["bbox"] for b in rec.boxes if b["label"] == IGNORE]
                       if apply_ignore else [])
            total_gt += len(gts)
            dets = sorted(groups.get((image, cid), ()), key=lambda d: -d["confidence"])
            result = evaluation.match_detections(dets, gts, regions, iou_thresh)
            for d, label in zip(dets, result.det_labels):
                if label == evaluation.IGNORED:
                    ign_total += 1
                    continue
                is_tp = 1 if label == evaluation.TP else 0
                tp_total += is_tp
                fp_total += 1 - is_tp
                outcomes.append((d["confidence"], order, is_tp))
                order += 1
        gt_counts[cname] = total_gt
        tp_counts[cname] = tp_total
        fp_counts[cname] = fp_total
        ignored_counts[cname] = ign_total
        if total_gt == 0:
            continue
        outcomes.sort(key=lambda t: (-t[0], t[1]))
        flags = np.array([t[2] for t in outcomes], dtype=np.float64)
        per_class_ap[cname] = evaluation.average_precision(flags, total_gt)
    map50 = (sum(per_class_ap.values()) / len(per_class_ap)) if per_class_ap else 0.0
    return {"per_class_ap": per_class_ap, "map50": map50, "gt_counts": gt_counts,
            "tp_counts": tp_counts, "fp_counts": fp_counts, "ignored_counts": ignored_counts,
            "config": {"iou_thresh": iou_thresh, "apply_ignore": apply_ignore,
                       "ignore_overlap": evaluation.DEFAULT_IGNORE_OVERLAP}}


def reference_table(doc):
    """The earlier table: one row for each name of CLASS_NAMES."""
    rows = [("class", "AP", "GT", "TP", "FP", "ignored")]
    for name in CLASS_NAMES:
        ap = doc["per_class_ap"].get(name)
        rows.append((name, "-" if ap is None else f"{ap:.4f}",
                     *(str(doc[k].get(name, 0))
                       for k in ("gt_counts", "tp_counts", "fp_counts", "ignored_counts"))))
    rows.append(("mAP@0.5", f"{doc['map50']:.4f}", "", "", "", ""))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


# boxes on a coarse grid overlap often; a detection either copies a box of
# its image (IoU 1), shifts one, or lands anywhere; few distinct confidences
# make ties between images, with TP and FP mixed
_BBOX = st.builds(lambda x, y, w, h: [x, y, w, h], st.sampled_from([0, 10, 20, 40]),
                  st.sampled_from([0, 10, 20, 40]), st.sampled_from([10, 20, 30]),
                  st.sampled_from([10, 20, 30]))
# labels of only three classes, so the other three have no ground truth
_LABEL = st.sampled_from(CLASS_NAMES[:3] + [IGNORE])


@st.composite
def _eval_case(draw):
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4,
                          unique=True))
    records = [AnnotationRecord(image=n, width=100, height=100, source="synthetic",
                                boxes=draw(st.lists(st.builds(
                                    lambda bbox, label: {"bbox": bbox, "label": label},
                                    _BBOX, _LABEL), max_size=5)))
               for n in names]
    dets = []
    for _ in range(draw(st.integers(0, 12))):
        rec = draw(st.sampled_from(records))
        kind = draw(st.sampled_from(["copy", "shift", "any"]))
        if kind != "any" and rec.boxes:
            x, y, w, h = draw(st.sampled_from(rec.boxes))["bbox"]
            if kind == "shift":
                x, y = x + draw(st.sampled_from([-5, 2, 5])), y + draw(st.sampled_from([-2, 4]))
            bbox = [x, y, w, h]
        else:
            bbox = draw(_BBOX)
        dets.append({"image": rec.image, "class": draw(st.integers(0, len(CLASS_NAMES) - 1)),
                     "confidence": draw(st.sampled_from([0.3, 0.5, 0.5, 0.9])), "bbox": bbox})
    iou = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return Manifest(records=records, summary={}), dets, iou, draw(st.booleans())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_eval_case())
def test_evaluate_gives_the_reference_loops_report_and_table(case):
    """Equal to_dict() JSON and table() text; derandomized, so a run is
    repeatable. A copy whose class-level sort puts tied TPs first fails it."""
    manifest, dets, iou, apply_ignore = case
    report = evaluation.evaluate(dets, manifest, iou_thresh=iou, apply_ignore=apply_ignore)
    want = reference_evaluate(dets, manifest, iou, apply_ignore)
    assert json.dumps(report.to_dict()) == json.dumps(want)
    assert report.table() == reference_table(want)

"""mAP@0.5 with ignore-region semantics: detections overlapping an ignore
region are neither true nor false positives, mirroring crowd/ignored-region
annotations in the training data.

Matching is greedy, per image and class, detections taken by confidence
descending (as the VOC and COCO evaluators match). AP uses all-points
interpolation (area under the non-increasing precision envelope). mAP
averages classes that have at least one ground-truth box.

`evaluate` is the one reader of the class list (`CLASS_NAMES`): it checks
the detections' class ids against it and scores its classes in its order,
and a report lists the classes it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import Error, artifacts
from .data import CLASS_NAMES, IGNORE, Manifest
from .detect import corners

TP = "tp"
FP = "fp"
IGNORED = "ignored"

DEFAULT_IOU_THRESH = 0.5
DEFAULT_IGNORE_OVERLAP = 0.5


class EvalError(Error):
    pass


class UnknownImage(EvalError):
    pass


class UnknownClassId(EvalError):
    pass


def _intersection(a, b) -> float:
    """Overlap area of two [x, y, w, h] rects, 0.0 when they do not overlap."""
    ax1, ay1, ax2, ay2 = corners(a)
    bx1, by1, bx2, by2 = corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    return 0.0 if iw <= 0 or ih <= 0 else iw * ih


def _iou_xywh(a, b) -> float:
    # union from w*h, not detect.iou's corner differences: merging the two
    # could move a ratio by one ulp across the >= iou_thresh comparison
    inter = _intersection(a, b)
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def _ignore_overlap(det_bbox, region_bbox) -> float:
    """intersection(det, region) / area(det)."""
    inter = _intersection(det_bbox, region_bbox)
    area = det_bbox[2] * det_bbox[3]
    return inter / area if area > 0 else 0.0


@dataclass
class MatchResult:
    det_labels: list[str]          # tp | fp | ignored, in detection order
    det_matched_gt: list[int]      # gt index or -1
    gt_matched_by: list[int]       # det index or -1


def match_detections(dets: list[dict], gts: list[list[float]],
                     ignore_regions: list[list[float]],
                     iou_thresh: float = DEFAULT_IOU_THRESH) -> MatchResult:
    """Greedy matching for one image and one class.

    `dets` must already be sorted by confidence descending. Each detection
    takes the highest-IoU unmatched ground truth at IoU >= iou_thresh; failing
    that it is IGNORED if intersection with any ignore region covers at least
    DEFAULT_IGNORE_OVERLAP of the detection, else FP.
    """
    labels: list[str] = []
    matched_gt: list[int] = []
    gt_matched_by = [-1] * len(gts)
    for di, det in enumerate(dets):
        best_iou, best_gt = 0.0, -1
        for gi, gt in enumerate(gts):
            if gt_matched_by[gi] != -1:
                continue
            v = _iou_xywh(det["bbox"], gt)
            if v > best_iou:
                best_iou, best_gt = v, gi
        if best_gt != -1 and best_iou >= iou_thresh:
            labels.append(TP)
            matched_gt.append(best_gt)
            gt_matched_by[best_gt] = di
            continue
        if any(_ignore_overlap(det["bbox"], r) >= DEFAULT_IGNORE_OVERLAP
               for r in ignore_regions):
            labels.append(IGNORED)
            matched_gt.append(-1)
            continue
        labels.append(FP)
        matched_gt.append(-1)
    return MatchResult(labels, matched_gt, gt_matched_by)


def average_precision(tp_flags: np.ndarray, total_gt: int) -> float:
    """All-points AP from detection outcomes sorted by confidence descending.

    tp_flags holds 1 for TP and 0 for FP (ignored detections never enter).
    """
    if total_gt <= 0:
        raise EvalError("average_precision needs at least one ground truth")
    tp_flags = np.asarray(tp_flags, dtype=np.float64)
    if tp_flags.size == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(1.0 - tp_flags)
    recall = tp_cum / total_gt
    precision = tp_cum / (tp_cum + fp_cum)

    mrec = np.concatenate([[0.0], recall, [recall[-1]]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


@dataclass
class EvalReport:
    per_class_ap: dict[str, float]
    map50: float
    gt_counts: dict[str, int]
    tp_counts: dict[str, int]
    fp_counts: dict[str, int]
    ignored_counts: dict[str, int]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_class_ap": self.per_class_ap, "map50": self.map50,
            "gt_counts": self.gt_counts, "tp_counts": self.tp_counts,
            "fp_counts": self.fp_counts, "ignored_counts": self.ignored_counts,
            "config": self.config,
        }

    def table(self) -> str:
        """One row per class the report holds (the keys of `gt_counts`, in
        their order), AP "-" for a class with no ground truth, then the
        mAP row."""
        rows = [("class", "AP", "GT", "TP", "FP", "ignored")]
        for name, gt in self.gt_counts.items():
            ap = self.per_class_ap.get(name)
            rows.append((name, "-" if ap is None else f"{ap:.4f}", str(gt),
                         str(self.tp_counts[name]), str(self.fp_counts[name]),
                         str(self.ignored_counts[name])))
        rows.append(("mAP@0.5", f"{self.map50:.4f}", "", "", "", ""))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def evaluate(detections: list[dict], manifest: Manifest,
             iou_thresh: float = DEFAULT_IOU_THRESH,
             apply_ignore: bool = True) -> EvalReport:
    """Score a detection list (dicts with image/class/confidence/bbox)
    against a dataset manifest. Raises EvalError for an `iou_thresh`
    outside [0, 1] (NaN included) and for a manifest with two records for
    one image, which scoring would collapse into one.

    The report holds every class of `CLASS_NAMES`, in that order. Each
    class is one list of (confidence, is_tp) over its detections that are
    not ignored, matched image by image in sorted image order, then sorted
    by confidence descending (stable, so ties keep image order): its TP
    and FP counts and its AP are read off that list."""
    if not 0.0 <= iou_thresh <= 1.0:
        raise EvalError(f"IoU threshold must be in [0, 1], got {iou_thresh}")
    boxes: dict[tuple[str, str], list] = {}  # (image, label) -> bboxes in record order
    images = set()
    for rec in manifest.records:
        if rec.image in images:
            raise EvalError(f"image '{rec.image}' has more than one record")
        images.add(rec.image)
        for b in rec.boxes:
            boxes.setdefault((rec.image, b["label"]), []).append(b["bbox"])
    groups: dict[tuple[str, int], list[dict]] = {}  # (image, class id) -> dets in list order
    for det in detections:
        if det["image"] not in images:
            raise UnknownImage(f"detection references unknown image '{det['image']}'")
        if not 0 <= int(det["class"]) < len(CLASS_NAMES):
            raise UnknownClassId(f"class id {det['class']} out of range")
        groups.setdefault((det["image"], int(det["class"])), []).append(det)

    report = EvalReport(per_class_ap={}, map50=0.0, gt_counts={}, tp_counts={}, fp_counts={},
                        ignored_counts={},
                        config={"iou_thresh": iou_thresh, "apply_ignore": apply_ignore,
                                "ignore_overlap": DEFAULT_IGNORE_OVERLAP})
    for cid, cname in enumerate(CLASS_NAMES):
        outcomes: list[tuple[float, bool]] = []
        total_gt = ignored = 0
        for image in sorted(images):
            gts = boxes.get((image, cname), [])
            regions = boxes.get((image, IGNORE), []) if apply_ignore else []
            total_gt += len(gts)
            dets = sorted(groups.get((image, cid), ()), key=lambda d: -d["confidence"])
            result = match_detections(dets, gts, regions, iou_thresh)
            for det, label in zip(dets, result.det_labels):
                if label == IGNORED:
                    ignored += 1
                else:
                    outcomes.append((det["confidence"], label == TP))
        outcomes.sort(key=lambda o: -o[0])
        flags = [is_tp for _, is_tp in outcomes]
        report.gt_counts[cname] = total_gt
        report.tp_counts[cname] = tp = sum(flags)
        report.fp_counts[cname] = len(flags) - tp
        report.ignored_counts[cname] = ignored
        if total_gt:  # a class absent from this dataset is skipped from mAP
            report.per_class_ap[cname] = average_precision(flags, total_gt)
    aps = report.per_class_ap
    report.map50 = sum(aps.values()) / len(aps) if aps else 0.0
    return report


def save_report(path, report: EvalReport, meta: dict | None = None) -> None:
    artifacts.write_json(path, {"meta": meta or {}, **report.to_dict()})

"""Joint-dataset construction: COCO JSON and Visdrone annotation ingestion
with the class remap / ignore rules, negative retention, manifest merging,
IoU k-means anchor clustering, and `fit_height`, the 16:9 network height
for a width.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import Error, artifacts, tensorio
# CLASS_NAMES, the unified class set, lives with the label test of
# artifacts; the frontend names a 6-class network's outputs with it
from .artifacts import (BBOX, CLASS_NAMES, IGNORE, INTEGER, LABEL, POSITIVE_INTEGER, STRING,
                        optional)

# COCO category names -> unified names (everything else is dropped)
COCO_REMAP = {
    "person": "person",
    "car": "car",
    "bicycle": "bicycle",
    "motorcycle": "motorbike",
    "bus": "bus",
    "truck": "truck",
}


class DataError(Error):
    pass


class MalformedJson(DataError):
    pass


class UnknownCategoryId(DataError):
    pass


class MalformedLine(DataError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")


class UnknownCategory(DataError):
    pass


class DuplicateImagePath(DataError):
    pass


class TooFewBoxes(DataError):
    pass


@dataclass
class AnnotationRecord:
    image: str
    width: int
    height: int
    boxes: list[dict] = field(default_factory=list)  # {"bbox": [x,y,w,h], "label": name|"ignore"}
    source: str = ""

    def is_negative(self) -> bool:
        # negatives are truly unannotated images; ignore regions still count
        # as annotations
        return not self.boxes


def _clip_box(x, y, w, h, img_w, img_h):
    x2, y2 = x + w, y + h
    x, y = max(0.0, x), max(0.0, y)
    x2, y2 = min(float(img_w), x2), min(float(img_h), y2)
    if x2 <= x or y2 <= y:
        return None
    return [x, y, x2 - x, y2 - y]


# the fields ingest_coco reads from each record of each top-level list
_COCO_FIELDS = {
    "images": {"id": INTEGER, "file_name": STRING, "width": POSITIVE_INTEGER,
               "height": POSITIVE_INTEGER},
    "annotations": {"image_id": INTEGER, "category_id": INTEGER, "bbox": BBOX,
                    "iscrowd": optional(INTEGER)},
    "categories": {"id": INTEGER, "name": STRING},
}


def ingest_coco(path) -> list[AnnotationRecord]:
    """COCO instances JSON -> records under the unified class set.

    Supported-class crowds (iscrowd=1) become ignore regions; annotations of
    unsupported classes are dropped; images left with no boxes stay in as
    negatives. Text that is not JSON, or an annotation whose image_id names
    no image (whatever its class), raises MalformedJson; a record missing a
    field of _COCO_FIELDS, holding a value its test rejects, or an image
    repeating an earlier image's id, raises ArtifactError naming the list,
    index and field.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise MalformedJson(f"{path}: {e}")
    artifacts.check(doc, _COCO_FIELDS, path)

    cat_names = {c["id"]: c["name"] for c in doc["categories"]}
    records: dict = {}
    for i, im in enumerate(doc["images"]):
        if im["id"] in records:
            artifacts.reject(im["id"], "an id no earlier image has", path, "images", i, "id")
        records[im["id"]] = AnnotationRecord(
            image=im["file_name"], width=im["width"], height=im["height"],
            source="coco")

    for ann in doc["annotations"]:
        cid = ann["category_id"]
        if cid not in cat_names:
            raise UnknownCategoryId(f"{path}: annotation {ann.get('id')} references category {cid}")
        rec = records.get(ann["image_id"])
        if rec is None:
            raise MalformedJson(f"{path}: annotation {ann.get('id')} references unknown image")
        name = cat_names[cid]
        if name not in COCO_REMAP:
            continue  # unsupported class: dropped, image stays as negative
        label = IGNORE if ann.get("iscrowd", 0) == 1 else COCO_REMAP[name]
        bbox = _clip_box(*ann["bbox"], rec.width, rec.height)
        if bbox is None:
            warnings.warn(f"{path}: dropping zero-area box on image {rec.image}")
            continue
        rec.boxes.append({"bbox": bbox, "label": label})
    return [records[i] for i in sorted(records)]


_CATEGORY_FIELDS = {"unified": LABEL}


def load_visdrone_categories(path=None) -> dict[str, str]:
    """Visdrone2018 numeric category id -> unified name. The default table,
    the dataset's published convention, ships as data/visdrone_categories.json
    so dataset-version drift is a config edit, not a code change."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "visdrone_categories.json")
    return {k: artifacts.check(v, _CATEGORY_FIELDS, path, k)["unified"]
            for k, v in artifacts.read_json(path).items()}


def ingest_visdrone(annotation_dir, images_dir=None, default_size=None,
                    categories_path=None) -> list[AnnotationRecord]:
    """Visdrone per-image CSV files -> records.

    Line format: left,top,width,height,score,category,truncation,occlusion.
    Image dimensions come from a sibling .ppm/.pgm in images_dir, else from
    default_size.
    """
    remap = load_visdrone_categories(categories_path)
    records = []
    for fname in sorted(os.listdir(annotation_dir)):
        if not fname.endswith(".txt"):
            continue
        stem = fname[:-4]
        image_name, width, height = _resolve_visdrone_image(
            stem, images_dir, default_size)
        rec = AnnotationRecord(image=image_name, width=width, height=height,
                               source="visdrone")
        path = os.path.join(annotation_dir, fname)
        with open(path, "r", encoding="utf-8") as f:
            try:
                for line_no, raw in enumerate(f, start=1):
                    line = raw.strip().rstrip(",")  # visdrone files end lines with a comma
                    if not line:
                        continue
                    fields = line.split(",")
                    if len(fields) != 8:
                        raise MalformedLine(path, line_no, f"expected 8 fields, got {len(fields)}")
                    try:
                        x, y, w, h = box = [artifacts.decimal(v) for v in fields[:4]]
                        if not all(map(math.isfinite, box)):
                            raise ValueError
                    except ValueError:
                        raise MalformedLine(path, line_no, "box: expected 4 finite decimal numbers, "
                                            f"got {','.join(fields[:4])}") from None
                    category = fields[5].strip()
                    if category not in remap:
                        raise UnknownCategory(f"{path}:{line_no}: category '{category}'")
                    bbox = _clip_box(x, y, w, h, width, height)
                    if bbox is None:
                        warnings.warn(f"{path}:{line_no}: dropping zero-area box")
                        continue
                    rec.boxes.append({"bbox": bbox, "label": remap[category]})
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: not UTF-8: {e.reason}") from None
        records.append(rec)
    return records


def _resolve_visdrone_image(stem, images_dir, default_size):
    if images_dir is not None:
        for ext in (".ppm", ".pgm"):
            candidate = os.path.join(images_dir, stem + ext)
            if os.path.exists(candidate):
                img = tensorio.load_image(candidate)
                return stem + ext, img.shape[1], img.shape[0]
    if default_size is not None:
        return stem + ".jpg", default_size[0], default_size[1]
    raise DataError(f"cannot determine image size for '{stem}' "
                    "(no readable image, no default size)")


@dataclass
class Manifest:
    records: list[AnnotationRecord]
    summary: dict


def merge(record_lists: list[list[AnnotationRecord]]) -> Manifest:
    """Merge per-source record lists into one manifest, lexicographic by
    image path. Identical paths across sources are an error."""
    seen: dict[str, str] = {}
    merged: list[AnnotationRecord] = []
    for records in record_lists:
        for rec in records:
            if rec.image in seen:
                raise DuplicateImagePath(
                    f"image '{rec.image}' appears in both {seen[rec.image]} and {rec.source}")
            seen[rec.image] = rec.source
            merged.append(rec)
    merged.sort(key=lambda r: r.image)

    source_counts: dict[str, int] = {}
    class_hist = {name: 0 for name in CLASS_NAMES}
    ignore_count = 0
    negatives = 0
    for rec in merged:
        source_counts[rec.source] = source_counts.get(rec.source, 0) + 1
        if rec.is_negative():
            negatives += 1
        for b in rec.boxes:
            if b["label"] == IGNORE:
                ignore_count += 1
            else:
                class_hist[b["label"]] += 1
    summary = {
        "images": len(merged),
        "source_counts": source_counts,
        "class_histogram": class_hist,
        "ignore_boxes": ignore_count,
        "negative_images": negatives,
    }
    return Manifest(records=merged, summary=summary)


def save_manifest(path, manifest: Manifest, meta: dict | None = None) -> None:
    artifacts.write_jsonl(path, {**(meta or {}), "summary": manifest.summary}, (
        {"image": rec.image, "width": rec.width, "height": rec.height,
         "source": rec.source, "boxes": rec.boxes} for rec in manifest.records))


BOX_FIELDS = {"bbox": BBOX, "label": LABEL}
RECORD_FIELDS = {"image": STRING, "width": POSITIVE_INTEGER, "height": POSITIVE_INTEGER,
                 "boxes": BOX_FIELDS, "source": optional(STRING)}


def load_manifest(path) -> Manifest:
    """The manifest at `path`; like merge, it refuses two records for one
    image, which scoring would collapse into one."""
    meta, docs = artifacts.read_jsonl(path, RECORD_FIELDS)
    seen = set()
    for d in docs:
        if d["image"] in seen:
            raise DuplicateImagePath(f"{path}: image '{d['image']}' has more than one record")
        seen.add(d["image"])
    records = [AnnotationRecord(image=d["image"], width=d["width"], height=d["height"],
                                boxes=d["boxes"], source=d.get("source", "")) for d in docs]
    return Manifest(records=records, summary=meta.get("summary", {}))


# --------------------------------------------------------------------------
# anchor k-means (1 - IoU distance, centered boxes)
# --------------------------------------------------------------------------

def wh_iou(boxes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """IoU matrix of (w,h) boxes vs anchors, both centered at the origin."""
    inter = np.minimum(boxes[:, None, :], anchors[None, :, :]).prod(axis=2)
    areas = boxes.prod(axis=1)[:, None] + anchors.prod(axis=1)[None, :] - inter
    return inter / areas


@dataclass
class AnchorResult:
    anchors: np.ndarray       # k x 2, sorted by area
    mean_iou: float
    iou_history: list[float]  # mean IoU after each Lloyd update
    iterations: int


KMEANS_MAX_ITERATIONS = 300


def _kmeanspp_init(boxes: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = [boxes[rng.integers(len(boxes))]]
    while len(centroids) < k:
        d = 1.0 - wh_iou(boxes, np.array(centroids)).max(axis=1)
        weights = d * d
        total = weights.sum()
        if total <= 0:
            centroids.append(boxes[rng.integers(len(boxes))])
            continue
        centroids.append(boxes[rng.choice(len(boxes), p=weights / total)])
    return np.array(centroids, dtype=np.float64)


def kmeans_anchors(boxes, k: int, seed: int = 0) -> AnchorResult:
    """IoU k-means over (w,h) boxes: k-means++ seeding, Lloyd iterations with
    per-cluster coordinate means, empty clusters re-seeded to the farthest box.

    The coordinate mean is not the exact optimizer of the 1-IoU objective, so
    the loop keeps iterating only while an update improves mean IoU (the
    previous codebook is kept otherwise); the recorded per-update history is
    therefore non-decreasing. Stops on stable assignments, a non-improving
    update, or KMEANS_MAX_ITERATIONS updates.
    """
    if k < 1:
        raise DataError(f"k must be at least 1, got {k}")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 2)
    if boxes.size == 0:
        raise TooFewBoxes("no boxes to cluster")
    if np.unique(boxes, axis=0).shape[0] < k:
        raise TooFewBoxes(f"need at least {k} distinct boxes, have "
                          f"{np.unique(boxes, axis=0).shape[0]}")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(boxes, k, rng)

    def assignment(cents):
        ious = wh_iou(boxes, cents)
        return ious.argmax(axis=1), float(ious.max(axis=1).mean())

    assign, best_iou = assignment(centroids)
    history: list[float] = []
    iterations = 0
    for _ in range(KMEANS_MAX_ITERATIONS):
        iterations += 1
        new_centroids = centroids.copy()
        for c in range(k):
            members = boxes[assign == c]
            if len(members) == 0:
                d = 1.0 - wh_iou(boxes, new_centroids).max(axis=1)
                new_centroids[c] = boxes[int(d.argmax())]
            else:
                new_centroids[c] = members.mean(axis=0)
        new_assign, new_iou = assignment(new_centroids)
        if history and new_iou < best_iou:
            break  # update stopped improving; keep the previous codebook
        centroids, best_iou = new_centroids, new_iou
        history.append(best_iou)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign

    order = np.argsort(centroids.prod(axis=1))
    return AnchorResult(anchors=centroids[order], mean_iou=best_iou,
                        iou_history=history, iterations=iterations)


def anchor_boxes_from_manifest(manifest: Manifest, net_w: int = 608, net_h: int = 352
                               ) -> np.ndarray:
    """Non-ignore box sizes rescaled into network-input (letterbox) pixels.
    Raises DataError for a net size below 1, which would scale every box to
    nothing."""
    if net_w < 1 or net_h < 1:
        raise DataError(f"net size must be at least 1x1, got {net_w}x{net_h}")
    out = []
    for rec in manifest.records:
        scale = min(net_w / rec.width, net_h / rec.height)
        for b in rec.boxes:
            if b["label"] == IGNORE:
                continue
            w, h = b["bbox"][2] * scale, b["bbox"][3] * scale
            if w > 0 and h > 0:
                out.append((w, h))
    return np.array(out, dtype=np.float64)


# --------------------------------------------------------------------------
# 16:9 network heights
# --------------------------------------------------------------------------

def fit_height(w: int, h_min: int = 256, h_max: int = 544) -> int:
    """Multiple of 32 in [h_min, h_max] closest to w*9/16; ties take the
    larger height."""
    target = w * 9.0 / 16.0
    best = None
    for h in range(h_min, h_max + 1, 32):
        if best is None or abs(h - target) < abs(best - target) or (
                abs(h - target) == abs(best - target) and h > best):
            best = h
    return best

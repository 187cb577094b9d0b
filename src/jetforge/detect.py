"""Detection pre/post-processing: letterbox resize, YOLO head decoding,
per-class NMS and back-projection to source pixel coordinates.

Boxes are center-format and normalized to the network input while inside
the pipeline; they leave as pixel rectangles in the original image frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import Error, artifacts, executor, tensorio
from .graph import Graph

DEFAULT_NMS_IOU = 0.45
EVAL_CONF_THRESHOLD = 0.005
DEMO_CONF_THRESHOLD = 0.25
LETTERBOX_PAD_VALUE = 0.5


class DetectError(Error):
    pass


class EmptyImage(DetectError):
    pass


class ChannelMismatch(DetectError):
    pass


@dataclass(frozen=True)
class Box:
    """Center-format box, normalized to [0,1] of the network input."""
    cx: float
    cy: float
    w: float
    h: float

    def corners(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)


@dataclass(frozen=True)
class DetectionBox:
    box: Box
    class_id: int
    confidence: float


@dataclass(frozen=True)
class LetterboxTransform:
    scale: float
    pad_x: float
    pad_y: float
    src_w: int
    src_h: int
    dst_w: int
    dst_h: int


def _bilinear_resize(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    h, w, c = img.shape
    if out_w == w and out_h == h:
        return img.astype(np.float32)
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return (top * (1 - fy) + bot * fy).astype(np.float32)


def letterbox(img: np.ndarray, target_w: int, target_h: int
              ) -> tuple[np.ndarray, LetterboxTransform]:
    """Aspect-preserving resize onto a target canvas, mid-gray padding.

    Returns the 1,c,target_h,target_w tensor plus the transform needed to
    map detections back to source pixels.
    """
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    if h == 0 or w == 0:
        raise EmptyImage(f"image has degenerate size {w}x{h}")
    if target_w % 32 or target_h % 32:
        raise DetectError(f"target {target_w}x{target_h} not a multiple of 32")

    scale = min(target_w / w, target_h / h)
    content_w = int(round(w * scale))
    content_h = int(round(h * scale))
    pad_x = (target_w - content_w) // 2
    pad_y = (target_h - content_h) // 2

    canvas = np.full((target_h, target_w, c), LETTERBOX_PAD_VALUE, dtype=np.float32)
    canvas[pad_y:pad_y + content_h, pad_x:pad_x + content_w] = _bilinear_resize(
        img, content_w, content_h)
    return tensorio.image_to_nchw(canvas), LetterboxTransform(
        scale=scale, pad_x=pad_x, pad_y=pad_y, src_w=w, src_h=h, dst_w=target_w, dst_h=target_h)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def decode_head(feature: np.ndarray, anchors: list[tuple[float, float]],
                num_classes: int, input_w: int, input_h: int,
                conf_threshold: float = EVAL_CONF_THRESHOLD) -> list[DetectionBox]:
    """Standard YOLOV3 decode of one head's raw feature map.

    feature is 1,c,gh,gw with c = len(anchors) * (5 + num_classes); anchors
    are (w,h) in input pixels. confidence = sigmoid(objectness) *
    sigmoid(class score); boxes below conf_threshold are dropped. A box
    whose size logit overflows exp (above about 709.78) raises DetectError.
    """
    _, c, gh, gw = feature.shape
    per_anchor = 5 + num_classes
    if c != len(anchors) * per_anchor:
        raise ChannelMismatch(
            f"feature has {c} channels, expected {len(anchors)}x(5+{num_classes})"
            f" = {len(anchors) * per_anchor}")

    f = feature[0].reshape(len(anchors), per_anchor, gh, gw).astype(np.float64)
    out: list[DetectionBox] = []
    for a, (aw, ah) in enumerate(anchors):
        tx, ty, tw, th, to = f[a, 0], f[a, 1], f[a, 2], f[a, 3], f[a, 4]
        obj = _sigmoid(to)
        cls_prob = _sigmoid(f[a, 5:])
        conf = obj[None, :, :] * cls_prob  # [classes, gh, gw]
        # only decode cells where some class clears the threshold
        keep = np.argwhere(conf.max(axis=0) >= conf_threshold)
        for i, j in keep:
            cx = (_sigmoid(tx[i, j]) + j) / gw
            cy = (_sigmoid(ty[i, j]) + i) / gh
            try:
                bw = aw * math.exp(tw[i, j]) / input_w
                bh = ah * math.exp(th[i, j]) / input_h
            except OverflowError:
                raise DetectError(
                    f"box size of anchor {a} at cell (row {i}, col {j}) overflows: "
                    f"tw = {tw[i, j]:g}, th = {th[i, j]:g}") from None
            box = Box(float(cx), float(cy), float(bw), float(bh))
            for k in range(num_classes):
                if conf[k, i, j] >= conf_threshold:
                    out.append(DetectionBox(box=box, class_id=k,
                                            confidence=float(conf[k, i, j])))
    return out


def corners(bbox) -> tuple[float, float, float, float]:
    """[x, y, w, h] pixel rect -> (x1, y1, x2, y2)."""
    x, y, w, h = bbox
    return (x, y, x + w, y + h)


def iou(a: Box | tuple, b: Box | tuple) -> float:
    """Intersection over union of two boxes (corner tuples also accepted)."""
    ax1, ay1, ax2, ay2 = a.corners() if isinstance(a, Box) else a
    bx1, by1, bx2, by2 = b.corners() if isinstance(b, Box) else b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0:
        return 0.0
    return inter / union


def nms(dets: list[DetectionBox], iou_threshold: float = DEFAULT_NMS_IOU) -> list[DetectionBox]:
    """Greedy per-class suppression; ties in confidence keep input order. A
    box is dropped when its IoU with a kept box of its class reaches
    `iou_threshold`, which must lie in [0, 1] (DetectError otherwise, NaN
    included)."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise DetectError(f"NMS IoU threshold must be in [0, 1], got {iou_threshold}")
    out: list[DetectionBox] = []
    by_class: dict[int, list[DetectionBox]] = {}
    for d in dets:
        by_class.setdefault(d.class_id, []).append(d)
    for cid in sorted(by_class):
        cand = sorted(by_class[cid], key=lambda d: -d.confidence)  # stable
        kept: list[DetectionBox] = []
        for d in cand:
            if all(iou(d.box, k.box) < iou_threshold for k in kept):
                kept.append(d)
        out.extend(kept)
    return out


def unletterbox(dets: list[DetectionBox], tf: LetterboxTransform) -> list[dict]:
    """Detections back in source pixels as {class, confidence, bbox [x,y,w,h]},
    clipped to the image bounds."""
    out = []
    for d in dets:
        x1, y1, x2, y2 = d.box.corners()
        sx1 = (x1 * tf.dst_w - tf.pad_x) / tf.scale
        sy1 = (y1 * tf.dst_h - tf.pad_y) / tf.scale
        sx2 = (x2 * tf.dst_w - tf.pad_x) / tf.scale
        sy2 = (y2 * tf.dst_h - tf.pad_y) / tf.scale
        sx1, sx2 = max(0.0, sx1), min(float(tf.src_w), sx2)
        sy1, sy2 = max(0.0, sy1), min(float(tf.src_h), sy2)
        if sx2 <= sx1 or sy2 <= sy1:
            continue
        out.append({"class": d.class_id, "confidence": d.confidence,
                    "bbox": [sx1, sy1, sx2 - sx1, sy2 - sy1]})
    return out


def heads_with_anchors(graph: Graph) -> list[tuple[str, list[tuple[float, float]], int]]:
    """(head output tensor, its anchor (w,h) list, num_classes) per head."""
    out = []
    for n in graph.head_nodes():
        anchors = [graph.metadata.anchors[i] for i in n.attrs["anchor_indices"]]
        out.append((n.output, anchors, n.attrs["num_classes"]))
    return out


def detect_image(graph: Graph, img: np.ndarray, mode: str = executor.F32,
                 conf_threshold: float = DEMO_CONF_THRESHOLD,
                 nms_iou: float = DEFAULT_NMS_IOU) -> list[dict]:
    """Full single-image pipeline: letterbox, execute, decode, NMS, unbox."""
    shape = graph.input_shape
    tensor, tf = letterbox(img, shape.w, shape.h)
    trace = executor.execute(graph, tensor, mode=mode, retention=executor.RETAIN_HEADS)
    dets: list[DetectionBox] = []
    for tensor_id, anchors, num_classes in heads_with_anchors(graph):
        feature = trace.as_f32(tensor_id)
        dets.extend(decode_head(feature, anchors, num_classes,
                                shape.w, shape.h, conf_threshold))
    return unletterbox(nms(dets, nms_iou), tf)


DETECTION_FIELDS = {"image": artifacts.STRING, "class": artifacts.INTEGER,
                    "confidence": artifacts.NUMBER, "bbox": artifacts.BBOX}


def write_detections_jsonl(path, per_image: dict[str, list[dict]], meta: dict) -> None:
    """JSON-lines: a _meta header line, then one line per detection."""
    artifacts.write_jsonl(path, meta, (
        {"image": image, "class": d["class"], "confidence": d["confidence"], "bbox": d["bbox"]}
        for image in sorted(per_image) for d in per_image[image]))


def read_detections_jsonl(path) -> list[dict]:
    return artifacts.read_jsonl(path, DETECTION_FIELDS)[1]

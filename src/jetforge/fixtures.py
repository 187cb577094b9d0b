"""Deterministic fixtures: the full yolov3 network as cfg text, synthetic
blob scenes, and a tiny hand-weighted detector that actually detects them.

The tiny detector is a matched-filter network: six color-selective filters
feed smoothing/downsampling stages and a head whose objectness/class rows
are calibrated from probe responses at build time. On aligned 8x8 blobs it
scores essentially perfect mAP in f32, which makes it a usable fixture for
measuring what f16/i8 quantization does to accuracy.
"""

from __future__ import annotations

import os

import numpy as np

from . import detect, executor, frontend, tensorio
from .data import CLASS_NAMES, AnnotationRecord, Manifest, merge
from .graph import Graph

# one distinct pure color per class: 3 single-channel + 3 two-channel
CLASS_COLORS = np.array([
    [1.0, 0.0, 0.0],  # person
    [0.0, 1.0, 0.0],  # car
    [0.0, 0.0, 1.0],  # bicycle
    [1.0, 1.0, 0.0],  # motorbike
    [1.0, 0.0, 1.0],  # bus
    [0.0, 1.0, 1.0],  # truck
], dtype=np.float64)

BACKGROUND = 0.1
BLOB = 8          # blob edge in pixels, grid aligned
TINY_W, TINY_H = 96, 64

YOLOV3_ANCHORS = "10,13, 16,30, 33,23, 30,61, 62,45, 59,119, 116,90, 156,198, 373,326"


# --------------------------------------------------------------------------
# cfg generators
# --------------------------------------------------------------------------

def _conv_section(filters, size, stride, bn=True, act="leaky", pad=True):
    lines = ["[convolutional]"]
    if bn:
        lines.append("batch_normalize=1")
    lines += [f"filters={filters}", f"size={size}", f"stride={stride}"]
    if pad:
        lines.append("pad=1")
    lines += [f"activation={act}", ""]
    return lines


def yolov3_cfg(width: int = 608, height: int = 352, classes: int = 6) -> str:
    """The standard yolov3 layer stack at a configurable resolution/class
    count: darknet53 backbone (72 leaky convolutions in total) plus the
    three-scale feature pyramid with resized output filters."""
    head_filters = 3 * (5 + classes)
    lines = ["[net]", f"width={width}", f"height={height}", "channels=3", ""]

    def res_block(half, full, repeats):
        for _ in range(repeats):
            lines.extend(_conv_section(half, 1, 1))
            lines.extend(_conv_section(full, 3, 1))
            lines.extend(["[shortcut]", "from=-3", "activation=linear", ""])

    lines.extend(_conv_section(32, 3, 1))
    lines.extend(_conv_section(64, 3, 2))
    res_block(32, 64, 1)
    lines.extend(_conv_section(128, 3, 2))
    res_block(64, 128, 2)
    lines.extend(_conv_section(256, 3, 2))
    res_block(128, 256, 8)
    lines.extend(_conv_section(512, 3, 2))
    res_block(256, 512, 8)
    lines.extend(_conv_section(1024, 3, 2))
    res_block(512, 1024, 4)

    def yolo_section(mask):
        return ["[yolo]", f"mask={mask}", f"anchors={YOLOV3_ANCHORS}",
                f"classes={classes}", "num=9", ""]

    for _ in range(3):
        lines.extend(_conv_section(512, 1, 1))
        lines.extend(_conv_section(1024, 3, 1))
    lines.extend(_conv_section(head_filters, 1, 1, bn=False, act="linear"))
    lines.extend(yolo_section("6,7,8"))

    lines.extend(["[route]", "layers=-4", ""])
    lines.extend(_conv_section(256, 1, 1))
    lines.extend(["[upsample]", "stride=2", ""])
    lines.extend(["[route]", "layers=-1,61", ""])
    for _ in range(3):
        lines.extend(_conv_section(256, 1, 1))
        lines.extend(_conv_section(512, 3, 1))
    lines.extend(_conv_section(head_filters, 1, 1, bn=False, act="linear"))
    lines.extend(yolo_section("3,4,5"))

    lines.extend(["[route]", "layers=-4", ""])
    lines.extend(_conv_section(128, 1, 1))
    lines.extend(["[upsample]", "stride=2", ""])
    lines.extend(["[route]", "layers=-1,36", ""])
    for _ in range(3):
        lines.extend(_conv_section(128, 1, 1))
        lines.extend(_conv_section(256, 3, 1))
    lines.extend(_conv_section(head_filters, 1, 1, bn=False, act="linear"))
    lines.extend(yolo_section("0,1,2"))

    return "\n".join(lines)


def tiny_cfg() -> str:
    """Two-head toy detector: stride-8 main head, stride-4 head reached via
    upsample + concat, one residual shortcut. Input 96x64."""
    lines = ["[net]", f"width={TINY_W}", f"height={TINY_H}", "channels=3", ""]
    lines.extend(_conv_section(8, 3, 2))            # 0: 48x32 matched filters
    lines.extend(_conv_section(8, 3, 2))            # 1: 24x16 smooth
    lines.extend(_conv_section(8, 3, 1))            # 2: refine
    lines.extend(["[shortcut]", "from=-2", "activation=linear", ""])  # 3
    lines.extend(_conv_section(12, 2, 2, pad=False))  # 4: 12x8 pool-pick
    lines.extend(_conv_section(11, 1, 1, bn=False, act="linear"))     # 5: head A
    lines.extend(["[yolo]", "mask=1", "anchors=4,4, 8,8", "classes=6", "num=2", ""])  # 6
    lines.extend(["[route]", "layers=-3", ""])      # 7 -> layer 4
    lines.extend(["[upsample]", "stride=2", ""])    # 8: 24x16
    lines.extend(["[route]", "layers=-1,3", ""])    # 9: concat 12+8 ch
    lines.extend(_conv_section(12, 1, 1))           # 10
    lines.extend(_conv_section(11, 1, 1, bn=False, act="linear"))     # 11: head B
    lines.extend(["[yolo]", "mask=0", "anchors=4,4, 8,8", "classes=6", "num=2", ""])  # 12
    return "\n".join(lines)


# --------------------------------------------------------------------------
# synthetic scenes
# --------------------------------------------------------------------------

def random_scene(rng: np.random.Generator, max_blobs: int = 4,
                 negative_chance: float = 0.1,
                 intensity: tuple[float, float] = (1.0, 1.0),
                 spacing: int = 2):
    """96x64 RGB image with grid-aligned 8x8 class-colored blobs on a noisy
    dark background; returns (image hwc float, [(bbox xywh, class_id)]).

    `intensity` draws a per-blob brightness factor; `spacing` is the minimum
    Chebyshev cell distance between blobs (2 keeps them isolated for clean
    ground truth, 1 allows dense tilings for calibration variety).

    The background carries smooth per-channel gradients: spatially correlated
    texture survives the network's averaging stages, which keeps activation
    histograms spread out the way natural imagery does."""
    ys = (np.arange(TINY_H, dtype=np.float64) / TINY_H - 0.5)[:, None, None]
    xs = (np.arange(TINY_W, dtype=np.float64) / TINY_W - 0.5)[None, :, None]
    base = rng.uniform(0.08, 0.16, size=3)[None, None, :]
    gx = rng.uniform(-0.12, 0.12, size=3)[None, None, :]
    gy = rng.uniform(-0.12, 0.12, size=3)[None, None, :]
    img = base + gx * xs + gy * ys + rng.uniform(0.0, 0.05, size=(TINY_H, TINY_W, 3))
    img = np.clip(img, 0.02, 1.0)
    boxes = []
    if rng.random() >= negative_chance:
        cells_x, cells_y = TINY_W // BLOB, TINY_H // BLOB
        taken: list[tuple[int, int]] = []
        for _ in range(int(rng.integers(1, max_blobs + 1))):
            for _attempt in range(20):
                cx = int(rng.integers(cells_x))
                cy = int(rng.integers(cells_y))
                if all(max(abs(cx - tx), abs(cy - ty)) >= spacing for tx, ty in taken):
                    taken.append((cx, cy))
                    cls = int(rng.integers(len(CLASS_NAMES)))
                    u = float(rng.uniform(*intensity))
                    x, y = cx * BLOB, cy * BLOB
                    img[y:y + BLOB, x:x + BLOB] = CLASS_COLORS[cls] * u
                    boxes.append(([float(x), float(y), float(BLOB), float(BLOB)], cls))
                    break
    return img.astype(np.float32), boxes


def write_scene_dataset(out_dir, count: int, seed: int = 0) -> Manifest:
    """Write `count` scenes as PPM files plus a manifest with ground truth."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        img, boxes = random_scene(rng)
        name = f"scene_{i:04d}.ppm"
        tensorio.save_image(os.path.join(out_dir, name), img)
        records.append(AnnotationRecord(
            image=name, width=TINY_W, height=TINY_H,
            boxes=[{"bbox": bbox, "label": CLASS_NAMES[cls]} for bbox, cls in boxes],
            source="synthetic"))
    return merge([records])


def calibration_images(count: int, seed: int = 1) -> list[np.ndarray]:
    """Half ordinary scenes, half dense contrast-varied blob tilings, so the
    activation histograms carry continuous mass over the full response range
    instead of a background spike plus sparse outliers."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 2 == 0:
            img, _ = random_scene(rng, max_blobs=96, negative_chance=0.0,
                                  intensity=(0.1, 1.0), spacing=1)
        else:
            img, _ = random_scene(rng)
        out.append(tensorio.image_to_nchw(img))
    return out


# --------------------------------------------------------------------------
# tiny detector weights
# --------------------------------------------------------------------------

def _identity_bn(graph, bn_id, channels, beta=None):
    graph.weights[(bn_id, "bn_gamma")] = np.ones(channels, dtype=np.float32)
    graph.weights[(bn_id, "bn_beta")] = (
        np.zeros(channels, dtype=np.float32) if beta is None
        else np.asarray(beta, dtype=np.float32))
    graph.weights[(bn_id, "bn_mean")] = np.zeros(channels, dtype=np.float32)
    # var = 1 - eps makes the normalization exactly identity
    graph.weights[(bn_id, "bn_var")] = np.full(channels, 1.0 - 1e-6, dtype=np.float32)


def build_tiny_detector() -> Graph:
    """Construct the tiny detector with working hand-derived weights.

    Stage weights are analytic; the head's objectness/class gains are set
    from measured probe responses so detection margins are guaranteed by
    construction (asserted below).
    """
    graph = frontend.parse_cfg(tiny_cfg())

    # conv0: matched filters (2*color - 1)/9 on channels 0..5; channels 6,7
    # carry smooth luminance responses so no tensor slice is a constant
    # (constant slices put delta spikes in the calibration histograms)
    k0 = np.zeros((8, 3, 3, 3), dtype=np.float64)
    beta0 = np.zeros(8, dtype=np.float64)
    for k in range(6):
        k0[k] = ((2.0 * CLASS_COLORS[k] - 1.0) / 9.0)[:, None, None]
        own = float(CLASS_COLORS[k] @ (2.0 * CLASS_COLORS[k] - 1.0))
        bg = float(BACKGROUND * (2.0 * CLASS_COLORS[k] - 1.0).sum())
        beta0[k] = -(own + bg) / 2.0
    k0[6] = 1.0 / 27.0
    k0[7] = 0.5 / 27.0
    beta0[7] = -0.02
    graph.weights[("conv0", "kernel")] = k0.reshape(-1).astype(np.float32)
    _identity_bn(graph, "bn0", 8, beta=beta0)

    # conv1: per-channel 3x3 average + downsample
    k1 = np.zeros((8, 8, 3, 3), dtype=np.float64)
    for c in range(8):
        k1[c, c] = 1.0 / 9.0
    graph.weights[("conv1", "kernel")] = k1.reshape(-1).astype(np.float32)
    _identity_bn(graph, "bn1", 8)

    # conv2: weak residual refinement
    graph.weights[("conv2", "kernel")] = (0.2 * k1).reshape(-1).astype(np.float32)
    _identity_bn(graph, "bn2", 8)

    # conv4: 2x2 average-pick of class channels into the stride-8 feature
    # map; spare outputs carry scaled luminance/class mixes (same no-constant
    # rule as conv0)
    k4 = np.zeros((12, 8, 2, 2), dtype=np.float64)
    for c in range(6):
        k4[c, c] = 0.25
    k4[6, 6] = 0.25
    k4[7, 7] = 0.25
    k4[8, 6] = 0.125
    k4[9, 7] = 0.0625
    k4[10, :6] = 0.125
    k4[11, 6] = 0.1875
    graph.weights[("conv4", "kernel")] = k4.reshape(-1).astype(np.float32)
    _identity_bn(graph, "bn4", 12)

    # head A placeholder (calibrated below); head B stays silent
    graph.weights[("conv5", "kernel")] = np.zeros(11 * 12, dtype=np.float32)
    graph.weights[("conv5", "bias")] = np.zeros(11, dtype=np.float32)

    k10 = np.zeros((12, 20, 1, 1), dtype=np.float64)
    for c in range(6):
        k10[c, c] = 0.5    # upsampled class channels pass through
        k10[6 + c, 12 + c] = 0.5  # fine-path class channels from the concat
    graph.weights[("conv10", "kernel")] = k10.reshape(-1).astype(np.float32)
    _identity_bn(graph, "bn10", 12)
    b11 = np.zeros(11, dtype=np.float32)
    b11[4] = -10.0  # objectness pinned low: this head contributes structure, not boxes
    graph.weights[("conv11", "kernel")] = np.zeros(11 * 12, dtype=np.float32)
    graph.weights[("conv11", "bias")] = b11

    # probe responses: one blob per class at head-A cell (i=4, j=6)
    responses = np.zeros(6)
    spill = np.zeros(6)
    for k in range(6):
        img = np.full((TINY_H, TINY_W, 3), BACKGROUND, dtype=np.float32)
        img[32:40, 48:56] = CLASS_COLORS[k]
        trace = executor.execute(graph, tensorio.image_to_nchw(img))
        feat = trace.as_f32("act4")[0, k]
        responses[k] = feat[4, 6]
        masked = feat.copy()
        masked[4, 6] = -np.inf
        spill[k] = masked.max()
    if not np.all(responses > 0.05):
        raise RuntimeError(f"tiny detector probe responses too weak: {responses}")
    if not np.all(spill / responses < 0.6):
        raise RuntimeError(f"tiny detector spill too strong: {spill / responses}")

    # head A: objectness logit ~ +4 and class logit ~ +6 at a blob center
    k5 = np.zeros((11, 12, 1, 1), dtype=np.float64)
    b5 = np.zeros(11, dtype=np.float64)
    for k in range(6):
        k5[4, k] = 8.0 / responses[k]
        k5[5 + k, k] = 12.0 / responses[k]
    b5[4] = -4.0
    b5[5:] = -6.0
    graph.weights[("conv5", "kernel")] = k5.reshape(-1).astype(np.float32)
    graph.weights[("conv5", "bias")] = b5.astype(np.float32)

    _self_check(graph)
    return graph


def _self_check(graph) -> None:
    rng = np.random.default_rng(2024)
    for _ in range(3):
        img, boxes = random_scene(rng, negative_chance=0.0)
        dets = detect.detect_image(graph, img, conf_threshold=0.25)
        for bbox, cls in boxes:
            hit = any(
                d["class"] == cls
                and detect.iou(detect.corners(d["bbox"]), detect.corners(bbox)) >= 0.8
                for d in dets)
            if not hit:
                raise RuntimeError(
                    f"tiny detector misses class {cls} at {bbox}; got {dets}")


# --------------------------------------------------------------------------
# random-filled weights for structural fixtures
# --------------------------------------------------------------------------

def random_weights(graph, seed: int = 0) -> bytes:
    """Darknet-format bytes with He-scaled random kernels and identity-ish
    batchnorm stats, so the parsed network executes with sane activations."""
    rng = np.random.default_rng(seed)
    filled = graph.copy()
    for (layer, role), count in frontend._darknet_layout(graph):
        if role == "kernel":
            fan_in = count // layer.attrs["out_ch"]
            value = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=count).astype(np.float32)
        else:
            value = np.full(count, 1.0 if role in ("bn_gamma", "bn_var") else 0.0,
                            dtype=np.float32)
        filled.weights[(layer.id, role)] = value
    return frontend.save_weights(filled)

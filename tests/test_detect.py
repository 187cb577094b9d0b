import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import detect
from jetforge.artifacts import ArtifactError


def test_letterbox_1920x1080_to_608x352():
    img = np.zeros((1080, 1920, 3), dtype=np.float32)
    tensor, tf = detect.letterbox(img, 608, 352)
    assert tensor.shape == (1, 3, 352, 608)
    assert tf.scale == pytest.approx(608 / 1920)
    assert tf.pad_x == 0
    assert tf.pad_y == 5  # content height 342, centered
    # padding rows hold the mid-gray value
    assert np.all(tensor[0, :, :5, :] == detect.LETTERBOX_PAD_VALUE)
    assert np.all(tensor[0, :, -5:, :] == detect.LETTERBOX_PAD_VALUE)


def test_letterbox_identity():
    img = np.random.default_rng(0).uniform(size=(352, 608, 3)).astype(np.float32)
    tensor, tf = detect.letterbox(img, 608, 352)
    assert (tf.scale, tf.pad_x, tf.pad_y) == (1.0, 0, 0)
    assert np.allclose(tensor[0].transpose(1, 2, 0), img)


def test_letterbox_square_into_wide():
    img = np.zeros((100, 100, 3), dtype=np.float32)
    _, tf = detect.letterbox(img, 608, 352)
    assert tf.scale == pytest.approx(3.52)
    assert tf.pad_x == 128  # content 352 wide, centered in 608
    assert tf.pad_y == 0


def test_letterbox_rejects_empty_and_unaligned():
    with pytest.raises(detect.EmptyImage):
        detect.letterbox(np.zeros((0, 10, 3), dtype=np.float32), 608, 352)
    with pytest.raises(detect.DetectError):
        detect.letterbox(np.zeros((10, 10, 3), dtype=np.float32), 600, 352)


def head_feature(grid_h, grid_w, anchors, num_classes, fill=-20.0):
    c = len(anchors) * (5 + num_classes)
    return np.full((1, c, grid_h, grid_w), fill, dtype=np.float32)


def test_decode_zero_logits_centered():
    anchors = [(16.0, 16.0)]
    feat = head_feature(11, 19, anchors, 6)
    # cell (0,0): zero box logits, strong objectness/class 0
    feat[0, 0:4, 0, 0] = 0.0
    feat[0, 4, 0, 0] = 10.0
    feat[0, 5, 0, 0] = 10.0
    dets = detect.decode_head(feat, anchors, 6, 608, 352, conf_threshold=0.5)
    assert len(dets) == 1
    d = dets[0]
    assert d.box.cx == pytest.approx(0.5 / 19)
    assert d.box.cy == pytest.approx(0.5 / 11)
    assert d.box.w == pytest.approx(16 / 608)
    assert d.box.h == pytest.approx(16 / 352)
    assert d.class_id == 0


def test_decode_saturated_negative_objectness():
    anchors = [(16.0, 16.0)]
    feat = head_feature(4, 4, anchors, 6, fill=0.0)
    feat[0, 4, :, :] = -40.0  # objectness sigmoid saturates to 0
    dets = detect.decode_head(feat, anchors, 6, 608, 352, conf_threshold=1e-6)
    assert dets == []


def test_decode_channel_mismatch():
    anchors = [(16.0, 16.0), (32.0, 32.0), (64.0, 64.0)]
    feat = head_feature(4, 4, anchors[:1], 6)  # 11 channels, needs 33
    with pytest.raises(detect.ChannelMismatch):
        detect.decode_head(feat, anchors, 6, 608, 352)


@pytest.mark.parametrize("channel", [2, 3])
def test_decode_overflowing_size_logit_names_the_anchor_and_cell(channel):
    """A finite size logit above exp's float range is a DetectError naming
    the anchor and the cell, not a bare OverflowError."""
    anchors = [(16.0, 16.0), (32.0, 32.0)]
    feat = head_feature(3, 5, anchors, 6)
    per_anchor = 5 + 6
    feat[0, per_anchor + 4, 2, 1] = feat[0, per_anchor + 5, 2, 1] = 10.0
    feat[0, per_anchor + channel, 2, 1] = 710.0
    with pytest.raises(detect.DetectError, match=r"anchor 1 at cell \(row 2, col 1\)"):
        detect.decode_head(feat, anchors, 6, 160, 96, conf_threshold=0.5)
    feat[0, per_anchor + channel, 2, 1] = 709.0  # exp stays finite
    assert len(detect.decode_head(feat, anchors, 6, 160, 96, conf_threshold=0.5)) == 1


def test_decode_encode_roundtrip():
    """Inverting the decode formulas and decoding recovers the box."""
    anchors = [(24.0, 36.0)]
    gw, gh, iw, ih = 19, 11, 608, 352
    box = detect.Box(cx=0.43, cy=0.61, w=0.11, h=0.17)
    j, i = int(box.cx * gw), int(box.cy * gh)
    tx = -math.log(1.0 / (box.cx * gw - j) - 1.0)   # inverse sigmoid
    ty = -math.log(1.0 / (box.cy * gh - i) - 1.0)
    tw = math.log(box.w * iw / anchors[0][0])
    th = math.log(box.h * ih / anchors[0][1])
    feat = head_feature(gh, gw, anchors, 6)
    feat[0, 0:5, i, j] = [tx, ty, tw, th, 10.0]
    feat[0, 5 + 2, i, j] = 10.0
    dets = detect.decode_head(feat, anchors, 6, iw, ih, conf_threshold=0.5)
    assert len(dets) == 1
    got = dets[0].box
    for a, b in zip((got.cx, got.cy, got.w, got.h), (box.cx, box.cy, box.w, box.h)):
        assert a == pytest.approx(b, abs=1e-5)
    assert dets[0].class_id == 2


def test_iou_cases():
    a = detect.Box(0.5, 0.5, 1.0, 1.0)
    assert detect.iou(a, a) == 1.0
    b = detect.Box(5.0, 5.0, 1.0, 1.0)
    assert detect.iou(a, b) == 0.0
    c = detect.Box(1.0, 0.5, 1.0, 1.0)  # offset by 0.5 width
    assert detect.iou(a, c) == pytest.approx(1 / 3)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 1), st.floats(0.01, 1),
       st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 1), st.floats(0.01, 1))
def test_iou_symmetric(ax, ay, aw, ah, bx, by, bw, bh):
    a, b = detect.Box(ax, ay, aw, ah), detect.Box(bx, by, bw, bh)
    assert detect.iou(a, b) == detect.iou(b, a)


def brute_force_nms(dets, thresh):
    """O(n^2) reference: a det survives unless an earlier-kept, same-class,
    higher-ranked det overlaps it at >= thresh."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    kept = []
    for i in order:
        if all(dets[j].class_id != dets[i].class_id
               or detect.iou(dets[j].box, dets[i].box) < thresh for j in kept):
            kept.append(i)
    return sorted(kept)


def random_dets(rng, n, classes=2):
    out = []
    for _ in range(n):
        out.append(detect.DetectionBox(
            box=detect.Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.4, 2)),
            class_id=int(rng.integers(classes)),
            confidence=float(rng.uniform(0.01, 1.0))))
    return out


def test_nms_simple_cases():
    d = random_dets(np.random.default_rng(0), 1)
    assert detect.nms(d) == d
    a = detect.DetectionBox(detect.Box(0.5, 0.5, 0.2, 0.2), 0, 0.9)
    b = detect.DetectionBox(detect.Box(0.5, 0.5, 0.2, 0.2), 0, 0.8)
    kept = detect.nms([a, b], 0.45)
    assert kept == [a]


@pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan], ids=repr)
def test_nms_refuses_an_iou_threshold_outside_zero_to_one(threshold):
    """A threshold below 0 or NaN used to suppress every box but one per
    class, however far apart."""
    a = detect.DetectionBox(detect.Box(0.2, 0.2, 0.1, 0.1), 0, 0.9)
    b = detect.DetectionBox(detect.Box(0.8, 0.8, 0.1, 0.1), 0, 0.8)
    assert detect.nms([a, b], 0.0) == [a] and detect.nms([a, b], 1.0) == [a, b]
    with pytest.raises(detect.DetectError, match=re.escape(f"got {threshold}") + "$"):
        detect.nms([a, b], threshold)


def test_nms_matches_brute_force(rng):
    for _ in range(25):
        dets = random_dets(rng, int(rng.integers(2, 9)))
        got = detect.nms(dets, 0.45)
        want_idx = brute_force_nms(dets, 0.45)
        assert sorted(map(id, got)) == sorted(id(dets[i]) for i in want_idx)


def test_nms_order_independent_with_distinct_confidences(rng):
    dets = random_dets(rng, 8)
    # force distinct confidences
    dets = [detect.DetectionBox(d.box, d.class_id, 0.1 + 0.1 * i)
            for i, d in enumerate(dets)]
    a = detect.nms(dets, 0.45)
    b = detect.nms(dets[::-1], 0.45)
    assert {(d.confidence, d.class_id) for d in a} == {(d.confidence, d.class_id) for d in b}


def test_unletterbox_identity_and_clip():
    tf = detect.LetterboxTransform(scale=1.0, pad_x=0, pad_y=0, src_w=608,
                                   src_h=352, dst_w=608, dst_h=352)
    d = detect.DetectionBox(detect.Box(0.5, 0.5, 0.1, 0.1), 0, 0.9)
    out = detect.unletterbox([d], tf)[0]
    assert out["bbox"] == pytest.approx([0.45 * 608, 0.45 * 352, 0.1 * 608, 0.1 * 352])

    # box extending into padding clips to the image edge
    tf = detect.LetterboxTransform(scale=608 / 1920, pad_x=0, pad_y=5,
                                   src_w=1920, src_h=1080, dst_w=608, dst_h=352)
    edge = detect.DetectionBox(detect.Box(0.5, 0.99, 0.2, 0.1), 0, 0.9)
    out = detect.unletterbox([edge], tf)[0]
    x, y, w, h = out["bbox"]
    assert y + h <= 1080 + 1e-6


def test_unletterbox_center_maps_to_center():
    img = np.zeros((1080, 1920, 3), dtype=np.float32)
    _, tf = detect.letterbox(img, 608, 352)
    d = detect.DetectionBox(detect.Box(0.5, 0.5, 0.1, 0.1), 0, 0.9)
    out = detect.unletterbox([d], tf)[0]
    x, y, w, h = out["bbox"]
    assert x + w / 2 == pytest.approx(960, abs=1.0)
    assert y + h / 2 == pytest.approx(540, abs=1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(50, 400), st.integers(50, 400),
       st.floats(0.2, 0.8), st.floats(0.2, 0.8), st.floats(0.05, 0.2), st.floats(0.05, 0.2))
def test_letterbox_roundtrip_within_one_pixel(w, h, cx, cy, bw, bh):
    """Project a source-pixel box into network space and back: error <= 1 px."""
    img = np.zeros((h, w, 3), dtype=np.float32)
    _, tf = detect.letterbox(img, 608, 352)
    src = [cx * w - bw * w / 2, cy * h - bh * h / 2, bw * w, bh * h]
    # forward map to normalized network coordinates
    nx1 = (src[0] * tf.scale + tf.pad_x) / tf.dst_w
    ny1 = (src[1] * tf.scale + tf.pad_y) / tf.dst_h
    nw = src[2] * tf.scale / tf.dst_w
    nh = src[3] * tf.scale / tf.dst_h
    det = detect.DetectionBox(detect.Box(nx1 + nw / 2, ny1 + nh / 2, nw, nh), 0, 1.0)
    back = detect.unletterbox([det], tf)[0]["bbox"]
    assert np.allclose(back, src, atol=1.0)


def test_detections_jsonl_roundtrip(tmp_path):
    per_image = {"a.ppm": [{"class": 1, "confidence": 0.5, "bbox": [1, 2, 3, 4]}],
                 "b.ppm": []}
    path = tmp_path / "dets.jsonl"
    detect.write_detections_jsonl(path, per_image, {"tool": "test"})
    recs = detect.read_detections_jsonl(path)
    assert recs == [{"image": "a.ppm", "class": 1, "confidence": 0.5,
                     "bbox": [1, 2, 3, 4]}]


@pytest.mark.parametrize("image", [5, None, ["a.ppm"]], ids=repr)
def test_detection_whose_image_is_no_string_names_line_and_field(tmp_path, image):
    path = tmp_path / "dets.jsonl"
    det = {"image": image, "class": 1, "confidence": 0.5, "bbox": [1, 2, 3, 4]}
    path.write_text(json.dumps({"_meta": {}}) + "\n" + json.dumps(det) + "\n")
    where = re.escape(f"{path}:2: image: expected a string, got {json.dumps(image)}")
    with pytest.raises(ArtifactError, match="^" + where):
        detect.read_detections_jsonl(path)

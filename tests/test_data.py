import json
import os
import re
import warnings

import numpy as np
import pytest

from jetforge import data
from jetforge.artifacts import ArtifactError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
COCO_JSON = os.path.join(FIXTURES, "coco_fixture.json")
VISDRONE_DIR = os.path.join(FIXTURES, "visdrone")


@pytest.fixture(scope="module")
def coco_records():
    return data.ingest_coco(COCO_JSON)


@pytest.fixture(scope="module")
def visdrone_records():
    return data.ingest_visdrone(VISDRONE_DIR, default_size=(200, 160))


def boxes_by_image(records):
    return {r.image: r.boxes for r in records}


def test_coco_direct_and_crowd_mapping(coco_records):
    by_img = boxes_by_image(coco_records)
    img1 = by_img["coco/img_001.jpg"]
    assert sorted(b["label"] for b in img1) == ["car", "person"]
    img2 = by_img["coco/img_002.jpg"]
    assert sorted(b["label"] for b in img2) == ["car", "ignore"]  # crowd person


def test_coco_negatives_retained(coco_records):
    by_img = boxes_by_image(coco_records)
    # pizza-only and annotation-free images stay, with empty box lists
    assert by_img["coco/img_004.jpg"] == []
    assert by_img["coco/img_005.jpg"] == []
    assert by_img["coco/img_010.jpg"] == []
    assert len(coco_records) == 10


def test_coco_unknown_category_id(tmp_path):
    with open(COCO_JSON) as f:
        doc = json.load(f)
    doc["annotations"][0]["category_id"] = 999
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(data.UnknownCategoryId):
        data.ingest_coco(bad)


def test_coco_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(data.MalformedJson):
        data.ingest_coco(bad)


@pytest.mark.parametrize("key, field, value", [
    ("images", "id", "1"),
    ("images", "file_name", 7),
    ("images", "width", "640"),
    ("images", "height", 0),
    ("annotations", "image_id", 1.0),
    ("annotations", "category_id", [3]),
    ("annotations", "bbox", [1, 2, 3]),
    ("annotations", "bbox", [1, 2, 3, float("nan")]),
    ("categories", "id", True),
    ("categories", "name", None)], ids=str)
def test_coco_value_of_the_wrong_kind_names_file_list_index_and_field(key, field, value,
                                                                      tmp_path):
    with open(COCO_JSON) as f:
        doc = json.load(f)
    doc[key][1][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    where = re.escape(f"{bad}: {key}: 1: {field}: expected ")
    with pytest.raises(ArtifactError, match="^" + where):
        data.ingest_coco(bad)


def test_coco_repeated_image_id_names_the_second_image(tmp_path):
    with open(COCO_JSON) as f:
        doc = json.load(f)
    doc["images"][1]["id"] = doc["images"][0]["id"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    where = re.escape(f"{bad}: images: 1: id: expected an id no earlier image has, got 1")
    with pytest.raises(ArtifactError, match="^" + where):
        data.ingest_coco(bad)


@pytest.mark.parametrize("category", [2, 4], ids=["car", "pizza"])
def test_coco_annotation_of_an_unknown_image_raises_whatever_its_class(tmp_path, category):
    with open(COCO_JSON) as f:
        doc = json.load(f)
    doc["annotations"].append({"id": 99, "image_id": 12345, "category_id": category,
                               "bbox": [1, 2, 3, 4]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(data.MalformedJson, match="annotation 99 references unknown image"):
        data.ingest_coco(bad)


def test_visdrone_remaps(visdrone_records):
    by_img = boxes_by_image(visdrone_records)
    assert [b["label"] for b in by_img["vd_0002.jpg"]] == ["person", "car"]  # people, van
    assert [b["label"] for b in by_img["vd_0003.jpg"]] == ["ignore", "car"]
    assert [b["label"] for b in by_img["vd_0004.jpg"]] == ["ignore", "ignore"]  # tricycles
    assert [b["label"] for b in by_img["vd_0007.jpg"]] == ["motorbike", "bicycle"]


def test_visdrone_malformed_line(tmp_path):
    d = tmp_path / "ann"
    d.mkdir()
    (d / "x.txt").write_text("1,2,3,4,1,4,0\n")  # 7 fields
    with pytest.raises(data.MalformedLine):
        data.ingest_visdrone(d, default_size=(100, 100))


@pytest.mark.parametrize("line", ["nan,5,10,10,0,1,0,0", "1e400,5,10,10,0,1,0,0",
                                  "5,5,1_0,10,0,1,0,0"], ids=["nan", "1e400", "1_0"])
def test_visdrone_box_numbers_must_be_finite_decimal_numbers(tmp_path, line):
    d = tmp_path / "ann"
    d.mkdir()
    (d / "x.txt").write_text("1,2,3,4,0,1,0,0\n" + line + "\n")
    where = re.escape(f"{d / 'x.txt'}:2: box: expected 4 finite decimal numbers, got ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(data.MalformedLine, match="^" + where):
            data.ingest_visdrone(d, default_size=(100, 80))


def test_out_of_bounds_boxes_clipped_or_dropped(tmp_path):
    d = tmp_path / "ann"
    d.mkdir()
    # first box pokes past the right edge, second lies fully outside
    (d / "x.txt").write_text("90,10,30,20,1,4,0,0\n150,150,10,10,1,4,0,0\n")
    with pytest.warns(UserWarning):
        records = data.ingest_visdrone(d, default_size=(100, 100))
    assert len(records[0].boxes) == 1
    assert records[0].boxes[0]["bbox"] == [90.0, 10.0, 10.0, 20.0]


def test_visdrone_unknown_category(tmp_path):
    d = tmp_path / "ann"
    d.mkdir()
    (d / "x.txt").write_text("1,2,3,4,1,42,0,0\n")
    with pytest.raises(data.UnknownCategory):
        data.ingest_visdrone(d, default_size=(100, 100))


def test_remap_tables_pinned():
    """Every source category has a pinned outcome."""
    assert data.COCO_REMAP == {
        "person": "person", "car": "car", "bicycle": "bicycle",
        "motorcycle": "motorbike", "bus": "bus", "truck": "truck"}
    want = {"0": data.IGNORE, "1": "person", "2": "person", "3": "bicycle",
            "4": "car", "5": "car", "6": "truck", "7": data.IGNORE,
            "8": data.IGNORE, "9": "bus", "10": "motorbike", "11": data.IGNORE}
    assert data.load_visdrone_categories() == want


def test_merge_summary_matches_hand_tally(coco_records, visdrone_records):
    manifest = data.merge([coco_records, visdrone_records])
    assert manifest.summary["images"] == 20
    assert manifest.summary["source_counts"] == {"coco": 10, "visdrone": 10}
    assert manifest.summary["class_histogram"] == {
        "person": 5, "car": 8, "bicycle": 3, "motorbike": 3, "bus": 2, "truck": 2}
    assert manifest.summary["ignore_boxes"] == 6
    assert manifest.summary["negative_images"] == 4
    paths = [r.image for r in manifest.records]
    assert paths == sorted(paths)


def test_merge_duplicate_path(coco_records):
    with pytest.raises(data.DuplicateImagePath):
        data.merge([coco_records, coco_records])


def test_merge_permutation_invariant(coco_records, visdrone_records):
    a = data.merge([coco_records, visdrone_records])
    b = data.merge([visdrone_records, coco_records])
    assert a.summary == b.summary
    assert [r.image for r in a.records] == [r.image for r in b.records]


def test_manifest_roundtrip(tmp_path, coco_records, visdrone_records):
    manifest = data.merge([coco_records, visdrone_records])
    path = tmp_path / "manifest.jsonl"
    data.save_manifest(path, manifest, {"tool": "test"})
    loaded = data.load_manifest(path)
    assert loaded.summary == manifest.summary
    assert [r.image for r in loaded.records] == [r.image for r in manifest.records]
    assert loaded.records[0].boxes == manifest.records[0].boxes


def write_records(path, *boxes):
    """A manifest at `path` with one record for a.ppm per box in `boxes`."""
    path.write_text("".join(json.dumps({"image": "a.ppm", "width": 64, "height": 64,
                                        "boxes": [{"bbox": box, "label": "car"}]}) + "\n"
                            for box in boxes))


def test_a_manifest_with_two_records_for_one_image_is_refused_naming_file_and_image(tmp_path):
    """Scoring keys records by image, so a second record would silently
    replace the first: the loader refuses it, as merge does."""
    path = tmp_path / "twice.jsonl"
    write_records(path, [0, 0, 10, 10], [30, 30, 10, 10])
    with pytest.raises(data.DuplicateImagePath,
                       match=re.escape(f"{path}: image 'a.ppm' has more than one record")):
        data.load_manifest(path)
    write_records(path, [0, 0, 10, 10])
    assert len(data.load_manifest(path).records) == 1


# --------------------------------------------------------------------------
# anchor k-means
# --------------------------------------------------------------------------

def test_kmeans_single_cluster_mean():
    result = data.kmeans_anchors([(10, 10), (30, 30)], k=1, seed=0)
    assert np.allclose(result.anchors, [[20.0, 20.0]])


@pytest.mark.parametrize("k", [0, -2])
def test_kmeans_refuses_fewer_than_one_cluster(k):
    """It used to return one anchor for any k < 1."""
    boxes = np.random.default_rng(0).uniform(4, 60, (50, 2))
    with pytest.raises(data.DataError, match=f"k must be at least 1, got {k}"):
        data.kmeans_anchors(boxes, k)


@pytest.mark.parametrize("net_w,net_h", [(0, 352), (608, -64)])
def test_anchor_boxes_refuse_a_net_size_below_one(coco_records, net_w, net_h):
    """It used to scale every box to nothing, so k-means found no boxes."""
    with pytest.raises(data.DataError,
                       match=f"^net size must be at least 1x1, got {net_w}x{net_h}$"):
        data.anchor_boxes_from_manifest(data.merge([coco_records]), net_w, net_h)


def brute_force_two_clusters(boxes):
    """Best 2-partition by mean IoU, centroids = coordinate means."""
    boxes = np.asarray(boxes, dtype=np.float64)
    best = (-1.0, None)
    n = len(boxes)
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        if mask.all() or not mask.any():
            continue
        cents = np.stack([boxes[mask].mean(axis=0), boxes[~mask].mean(axis=0)])
        iou = data.wh_iou(boxes, cents).max(axis=1).mean()
        if iou > best[0]:
            best = (iou, cents)
    return best


def test_kmeans_matches_bruteforce_on_separated_sizes():
    boxes = [(8, 8), (9, 9), (50, 60), (55, 62)]
    result = data.kmeans_anchors(boxes, k=2, seed=0)
    want_iou, want_cents = brute_force_two_clusters(boxes)
    assert result.mean_iou == pytest.approx(want_iou)
    got = np.asarray(sorted(result.anchors.tolist()))
    want = np.asarray(sorted(want_cents.tolist()))
    assert np.allclose(got, want)


def test_kmeans_richer_codebook_dominates(rng):
    boxes = rng.uniform(4, 120, size=(200, 2))
    iou3 = data.kmeans_anchors(boxes, k=3, seed=1).mean_iou
    iou9 = data.kmeans_anchors(boxes, k=9, seed=1).mean_iou
    assert iou9 >= iou3


def test_kmeans_history_non_decreasing(rng):
    boxes = rng.uniform(2, 200, size=(200, 2))
    result = data.kmeans_anchors(boxes, k=6, seed=3)
    hist = result.iou_history
    assert all(b >= a for a, b in zip(hist, hist[1:]))
    assert result.anchors.shape == (6, 2)
    areas = result.anchors.prod(axis=1)
    assert np.all(np.diff(areas) >= 0)  # sorted by area


def test_kmeans_too_few_boxes():
    with pytest.raises(data.TooFewBoxes):
        data.kmeans_anchors([(10, 10), (10, 10)], k=3, seed=0)
    with pytest.raises(data.TooFewBoxes):
        data.kmeans_anchors(np.zeros((0, 2)), k=1, seed=0)


def test_anchor_boxes_from_manifest(coco_records):
    manifest = data.merge([coco_records])
    boxes = data.anchor_boxes_from_manifest(manifest, 608, 352)
    # image 100x80 -> scale = min(608/100, 352/80) = 4.4; ignore boxes excluded
    class_boxes = sum(1 for r in manifest.records for b in r.boxes
                      if b["label"] != data.IGNORE)
    assert boxes.shape == (class_boxes, 2)
    assert np.allclose(boxes[0], [20 * 4.4, 20 * 4.4])


# --------------------------------------------------------------------------
# 16:9 network heights
# --------------------------------------------------------------------------

def test_fit_height_examples():
    assert data.fit_height(608) == 352
    assert data.fit_height(960) == 544
    assert data.fit_height(416) == 256


def test_fit_height_exhaustive():
    for w in range(416, 961, 32):
        h = data.fit_height(w)
        assert h % 32 == 0 and 256 <= h <= 544
        target = w * 9 / 16
        for other in range(256, 545, 32):
            assert abs(h - target) <= abs(other - target)
            if abs(h - target) == abs(other - target):
                assert h >= other  # ties toward the larger height
